"""Harmonic and restricted composition sums modulo prime powers, with a
congruence verification harness and modular constant recovery."""

from .bernoulli import EXACT_CAP, PoleError, PowerSumError, bernoulli_exact, bernoulli_mod_p
from .compsum import (
    CompSumSpec,
    PrecisionError,
    ScaleGuardError,
    comp_sum,
    comp_sum_kronecker,
    count_solutions_exact,
    r_spec,
    s_spec,
)
from .mhs import mhs, mhs_restricted, unordered_sum
from .modring import NonUnitError, PrimePowerModulus, is_prime, rational_to_residue
from .verifier import (
    CLAIMS,
    Claim,
    ClaimInstance,
    ClaimReport,
    EvalContext,
    GridSpec,
    instance_from_params,
    primes_between,
    sweep,
    verify,
)

__version__ = "0.1.0"

# The constant hunt is imported on first use: `verify` never needs it.
_RATRECON = (
    "DuplicatePrimeError",
    "InsufficientDataError",
    "ReconstructionResult",
    "ResidueObservation",
    "crt_combine",
    "hunt_constant",
    "reconstruct",
)


def __getattr__(name: str):
    if name in _RATRECON:
        from . import ratrecon

        return getattr(ratrecon, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EXACT_CAP",
    "PoleError",
    "PowerSumError",
    "bernoulli_exact",
    "bernoulli_mod_p",
    "CompSumSpec",
    "PrecisionError",
    "ScaleGuardError",
    "comp_sum",
    "comp_sum_kronecker",
    "count_solutions_exact",
    "r_spec",
    "s_spec",
    "mhs",
    "mhs_restricted",
    "unordered_sum",
    "NonUnitError",
    "PrimePowerModulus",
    "is_prime",
    "rational_to_residue",
    *_RATRECON,
    "CLAIMS",
    "Claim",
    "ClaimInstance",
    "ClaimReport",
    "EvalContext",
    "GridSpec",
    "instance_from_params",
    "primes_between",
    "sweep",
    "verify",
    "__version__",
]
