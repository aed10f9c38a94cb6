"""Recovery of rational constants from residues modulo many primes.

The pipeline is exact: per-prime observations of a normalized constant
are combined by CRT and fed to bounded rational reconstruction (modular
substitute for floating-point integer-relation searches). A constant is
reported as found only if it also survives validation against a held-out
observation; not-found-up-to-bound is an ordinary result carrying the
bound that was excluded, not an error.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, isqrt
from typing import NamedTuple

from .bernoulli import PoleError, bernoulli_mod_p
from .compsum import r_spec, s_spec, comp_sum
from .modring import PrimePowerModulus, is_prime

__all__ = [
    "DuplicatePrimeError",
    "InsufficientDataError",
    "ResidueObservation",
    "ReconstructionResult",
    "crt_combine",
    "reconstruct",
    "hunt_constant",
    "HUNT_FAMILIES",
]


class DuplicatePrimeError(ValueError):
    """Two observations share a prime."""


class InsufficientDataError(ValueError):
    """Fewer than two usable observations."""


class _ObservationFields(NamedTuple):
    p: int
    value: int


class ResidueObservation(_ObservationFields):
    """One prime's view of the candidate constant: an immutable named tuple,
    validated on construction."""

    __slots__ = ()

    def __new__(cls, p: int, value: int) -> ResidueObservation:
        if not 0 <= value < p:
            raise ValueError(f"observation {value} outside [0, {p})")
        return super().__new__(cls, p, value)


class ReconstructionResult(NamedTuple):
    status: str  # "found" | "not-found-up-to-bound"
    candidate: Fraction | None
    combined_modulus: int
    bound: int
    observations: tuple[ResidueObservation, ...] = ()
    skipped: tuple[tuple[int, str], ...] = ()
    note: str = ""

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def used_primes(self) -> tuple[int, ...]:
        return tuple(obs.p for obs in self.observations)


def crt_combine(observations: list[ResidueObservation]) -> tuple[int, int]:
    """Unique residue mod prod(p) agreeing with every observation."""
    if not observations:
        raise InsufficientDataError("no observations to combine")
    seen = set()
    M = 1
    for obs in observations:
        if obs.p in seen:
            raise DuplicatePrimeError(f"prime {obs.p} appears twice")
        seen.add(obs.p)
        M *= obs.p
    x = 0
    for obs in observations:
        q = M // obs.p
        x = (x + obs.value * q * pow(q, -1, obs.p)) % M
    return x, M


def reconstruct(value: int, M: int) -> ReconstructionResult:
    """Bounded rational reconstruction of value mod M.

    Half-extended Euclid on (M, value), stopping at the first remainder
    <= floor(sqrt(M/2)); the symmetric bound on numerator and denominator
    guarantees at most one candidate.
    """
    if not 0 <= value < M:
        raise ValueError(f"value {value} outside [0, {M})")
    bound = isqrt(M // 2)
    r0, r1 = M, value
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 != 0 and abs(t1) <= bound:
        num = r1 if t1 > 0 else -r1
        den = abs(t1)
        if gcd(num, den) == 1 and gcd(den, M) == 1:
            return ReconstructionResult("found", Fraction(num, den), M, bound)
    return ReconstructionResult("not-found-up-to-bound", None, M, bound)


def _normalized_observation(family: str, d: int, m: int, p: int) -> tuple[int | None, str]:
    """One prime's observation of the target constant, or a skip reason.

    qd:     bounded d-part sum at p**2 divided by p * B(p-d)
    c:      bounded d-part sum at m*p divided by (d-1)! * B(p-d)
    cprime: free d-part sum at m*p divided by (d-1)! * B(p-d)
    """
    if p <= d:
        return None, f"p={p} <= d={d}"
    try:
        b = bernoulli_mod_p(p - d, p)
    except PoleError:
        return None, f"B(p-{d}) has a pole mod {p}"
    if b == 0:
        return None, f"B(p-{d}) == 0 mod {p}"
    if family == "qd":
        v = comp_sum(s_spec(d, 1, p, 2), PrimePowerModulus(p, 2))
        if v % p:
            return None, f"sum at p**2 not divisible by p={p}"
        return (v // p) * pow(b, -1, p) % p, ""
    spec = s_spec(d, m, p) if family == "c" else r_spec(d, m, p)
    v = comp_sum(spec, PrimePowerModulus(p, 1))
    norm = factorial(d - 1) * b % p
    return v * pow(norm, -1, p) % p, ""


def hunt_constant(family: str, d: int, m: int, primes: list[int]) -> ReconstructionResult:
    """Gather normalized observations over the primes, combine, reconstruct.

    Primes where the normalizing Bernoulli factor vanishes (or the
    hypotheses fail) are skipped with a note; they carry no information
    about the constant. When at least three observations exist, the
    largest prime is held out: a candidate must reconstruct identically
    without it and reduce to its observation, which rejects the spurious
    boundary fractions a bare Euclidean pass can produce from
    constant-free data. The qd family has no multiplier: m must be 1.
    """
    if family not in HUNT_FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose one of {sorted(HUNT_FAMILIES)}")
    if family == "qd" and m != 1:
        raise ValueError(f"the qd family is the bounded sum at p**2 with m = 1; got m={m}")
    observations: list[ResidueObservation] = []
    skipped: list[tuple[int, str]] = []
    for p in sorted(set(primes)):
        if not is_prime(p):
            continue
        value, reason = _normalized_observation(family, d, m, p)
        if value is None:
            skipped.append((p, reason))
        else:
            observations.append(ResidueObservation(p, value))
    if len(observations) < 2:
        raise InsufficientDataError(
            f"only {len(observations)} usable primes for {family} d={d} m={m}"
        )
    x, M = crt_combine(observations)
    result = reconstruct(x, M)
    note = "modular rational reconstruction in lieu of a floating-point relation search"
    if result.found and len(observations) >= 3:
        held = observations[-1]
        rest = observations[:-1]
        xs, Ms = crt_combine(rest)
        sub = reconstruct(xs, Ms)
        cand = result.candidate
        consistent = (
            sub.found
            and sub.candidate == cand
            and cand.denominator % held.p != 0
            and cand.numerator * pow(cand.denominator, -1, held.p) % held.p == held.value
        )
        if not consistent:
            result = ReconstructionResult("not-found-up-to-bound", None, M, result.bound)
            note += f"; candidate rejected by held-out prime {held.p}"
    return result._replace(observations=tuple(observations), skipped=tuple(skipped), note=note)


HUNT_FAMILIES = {"qd", "c", "cprime"}
