"""Catalog of congruence claims over restricted sums, with grid sweeps.

Each claim binds a stable id, the congruence actually checked (an ASCII
formula printed in reports), hypothesis checks that turn out-of-range
instances into skips, an evaluator producing (lhs, rhs, modulus, note),
and a default parameter grid sized so the whole catalog sweeps in
seconds single-threaded.

Mixed-precision rule used throughout: a right-hand side of the shape
c * B * p**j (mod p**(j+1)) is evaluated by reducing the cofactor c * B
mod p, lifting the canonical representative, and multiplying by p**j.
A term carrying an explicit p**j factor needs its cofactor only to the
complementary precision; that is the one reading under which every
checked congruence is well-posed.

Conjectural claims are flagged: a mismatch there is a *finding* (the
interesting scientific output), reported distinctly and not counted as a
verification failure.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Mapping

from .bernoulli import PoleError, bernoulli_mod_p
from .compsum import (
    CompSumSpec,
    ScaleGuardError,
    count_solutions_exact,
    comp_sum,
    gamma_n,
    r_spec,
    s_spec,
)
from .mhs import mhs, unordered_sum
from .modring import NonUnitError, PrimePowerModulus, is_prime, rational_to_residue

__all__ = [
    "ClaimInstance",
    "ClaimReport",
    "Claim",
    "GridSpec",
    "EvalContext",
    "CLAIMS",
    "verify",
    "sweep",
    "instance_from_params",
    "primes_between",
]


def primes_between(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(q for q in range(lo, hi + 1) if is_prime(q))


@dataclass(frozen=True)
class ClaimInstance:
    """One claim at one parameter point; unused dimensions stay None."""

    claim_id: str
    p: int
    r: int | None = None
    m: int | None = None
    n: int | None = None
    extra: tuple[tuple[str, int | tuple[int, ...]], ...] = ()

    _MISSING = object()

    def get(self, key: str, default=_MISSING):
        for k, v in self.extra:
            if k == key:
                return v
        if default is not ClaimInstance._MISSING:
            return default
        raise KeyError(f"instance {self} has no extra parameter {key!r}")

    def params(self) -> dict:
        out: dict = {"p": self.p}
        for name in ("r", "m", "n"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        out.update(self.extra)
        return out

    def sort_key(self):
        return (
            self.claim_id,
            self.p,
            self.r if self.r is not None else 0,
            self.m if self.m is not None else 0,
            self.n if self.n is not None else 0,
            self.extra,
        )


@dataclass
class ClaimReport:
    """Outcome of checking one claim instance.

    status is one of pass / fail / skip / error / finding, where finding
    marks a mismatch on a conjecture-flagged claim.
    """

    instance: ClaimInstance
    status: str
    lhs: int | None = None
    rhs: int | None = None
    modulus: int | None = None
    note: str = ""
    anchor: str = ""
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class GridSpec:
    """User overrides for the swept dimensions; None keeps claim defaults."""

    primes: tuple[int, ...] | None = None
    rs: tuple[int, ...] | None = None
    ms: tuple[int, ...] | None = None


class EvalContext:
    """Shared evaluation state: comp_sum memo, optional persistent cache rows,
    and an evaluation counter (cache hits never touch the evaluator)."""

    def __init__(self, cache_rows: Mapping[tuple, int] | None = None):
        self.comp_sum_evals = 0
        self.cache_hits = 0
        self._memo: dict[tuple, int] = {}
        self._cache = cache_rows or {}
        self.new_rows: dict[tuple, int] = {}

    @staticmethod
    def cache_key(spec: CompSumSpec, mod_exp: int) -> tuple[str, int, int, str]:
        kind = "S" if spec.upper_bound is not None else "R"
        params = f"kind={kind};n={spec.n};m={spec.m};e={mod_exp}"
        if spec.target != spec.m * spec.p**spec.r:
            params += f";target={spec.target}"
        return ("comp_sum", spec.p, spec.r, params)

    def comp_sum(self, spec: CompSumSpec, mod_exp: int) -> int:
        key = self.cache_key(spec, mod_exp)
        if key in self._memo:
            return self._memo[key]
        if key in self._cache:
            self.cache_hits += 1
            value = self._cache[key]
        else:
            value = comp_sum(spec, PrimePowerModulus(spec.p, mod_exp)).value
            self.comp_sum_evals += 1
            self.new_rows[key] = value
        self._memo[key] = value
        return value


@dataclass(frozen=True)
class Claim:
    claim_id: str
    anchor: str
    check: Callable[[ClaimInstance], str | None]
    evaluate: Callable[[ClaimInstance, EvalContext], tuple[int, int, int, str]]
    grid: Callable[[GridSpec], Iterator[ClaimInstance]]
    conjecture: bool = False
    grid_note: str = ""


# ---------------------------------------------------------------------------
# shared right-hand-side helpers

def _rat(c: Fraction | int, p: int, e: int = 1) -> int:
    return rational_to_residue(Fraction(c), PrimePowerModulus(p, e)).value


def _bern(p: int, k: int) -> int:
    return bernoulli_mod_p(k, p).value


def _cof_rhs(c: Fraction | int, bern_indices: Iterable[int], p: int, j: int, e: int) -> int:
    """(c * prod B(idx)) reduced mod p, lifted, times p**j, reduced mod p**e."""
    cof = _rat(c, p)
    for k in bern_indices:
        cof = cof * _bern(p, k) % p
    return cof * p**j % p**e


def _triple_bernoulli(p: int, n: int) -> int:
    """(n!/6) * sum_{a+b+c=(n-3)/2, a,b,c>=1} prod B(p-2i-1)/(2i+1), mod p."""
    half = (n - 3) // 2
    acc = 0
    for a in range(1, half + 1):
        for b in range(1, half - a + 1):
            c = half - a - b
            if c < 1:
                continue
            term = _bern(p, p - 2 * a - 1) * _bern(p, p - 2 * b - 1) % p
            term = term * _bern(p, p - 2 * c - 1) % p
            acc = (acc + term * _rat(Fraction(1, (2 * a + 1) * (2 * b + 1) * (2 * c + 1)), p)) % p
    return acc * _rat(Fraction(factorial(n), 6), p) % p


def _odd(x: int) -> bool:
    return x % 2 == 1


# ---------------------------------------------------------------------------
# claim definitions

_P_SMALL = primes_between(11, 31)  # (11, 13, 17, 19, 23, 29, 31)


def _g_primes(grid: GridSpec, default: tuple[int, ...]) -> tuple[int, ...]:
    if grid.primes is None:
        return default
    return tuple(q for q in grid.primes if is_prime(q))


def _g(grid_vals: tuple[int, ...] | None, default: tuple[int, ...]) -> tuple[int, ...]:
    return default if grid_vals is None else grid_vals


# --- EQ-1.1 ---------------------------------------------------------------

def _eq11_check(inst: ClaimInstance) -> str | None:
    if inst.p < 3:
        return "requires p >= 3"
    return None


def _eq11_eval(inst: ClaimInstance, ctx: EvalContext):
    p = inst.p
    lhs = ctx.comp_sum(r_spec(3, 1, p), 1)
    rhs = _cof_rhs(-2, [p - 3], p, 0, 1)
    return lhs, rhs, p, ""


def _eq11_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, primes_between(5, 97)):
        yield ClaimInstance("EQ-1.1", p)


# --- THM-1.1-i -------------------------------------------------------------

def _thm1i_check(inst: ClaimInstance) -> str | None:
    if inst.p <= 7:
        return "requires p > 7"
    if inst.m is None or inst.m < 1:
        return "requires a multiplier m >= 1"
    if inst.m % inst.p == 0:
        return "requires p not dividing m"
    return None


def _thm1i_eval(inst: ClaimInstance, ctx: EvalContext):
    p, m = inst.p, inst.m
    lhs = ctx.comp_sum(r_spec(7, m, p), 1)
    rhs = _cof_rhs(-(504 * m + 210 * m**3 + 6 * m**5), [p - 7], p, 0, 1)
    return lhs, rhs, p, ""


def _thm1i_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, primes_between(11, 47)):
        for m in _g(grid.ms, (1, 2, 3)):
            yield ClaimInstance("THM-1.1-i", p, m=m)


# --- THM-1.1-ii ------------------------------------------------------------

def _thm1ii_check(inst: ClaimInstance) -> str | None:
    if inst.p <= 7:
        return "requires p > 7"
    if inst.r is None or inst.r < 2:
        return "requires r >= 2"
    if inst.m is None or inst.m < 1:
        return "requires a multiplier m >= 1"
    if inst.m % inst.p == 0:
        return "requires p not dividing m"
    return None


def _thm1ii_eval(inst: ClaimInstance, ctx: EvalContext):
    p, r, m = inst.p, inst.r, inst.m
    lhs = ctx.comp_sum(r_spec(7, m, p, r), r)
    rhs = _cof_rhs(Fraction(-factorial(7), 10) * m, [p - 7], p, r - 1, r)
    return lhs, rhs, p**r, ""


def _thm1ii_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, (11, 13)):
        for r in _g(grid.rs, (2, 3)):
            for m in _g(grid.ms, (1, 2)):
                yield ClaimInstance("THM-1.1-ii", p, r=r, m=m)


# --- EQ-1.3 ----------------------------------------------------------------

def _eq13_check(inst: ClaimInstance) -> str | None:
    if inst.p <= 7:
        return "requires p > 7"
    if inst.r is None or inst.r < 2:
        return "requires r >= 2"
    return None


def _eq13_eval(inst: ClaimInstance, ctx: EvalContext):
    p, r = inst.p, inst.r
    lhs = ctx.comp_sum(s_spec(7, 1, p, r + 1), r + 1)
    rhs = p * ctx.comp_sum(s_spec(7, 1, p, r), r) % p ** (r + 1)
    return lhs, rhs, p ** (r + 1), ""


def _eq13_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, (11,)):
        for r in _g(grid.rs, (2,)):
            yield ClaimInstance("EQ-1.3", p, r=r)


# --- LEM-2.1 ---------------------------------------------------------------

def _lem21_check(inst: ClaimInstance) -> str | None:
    n, m, a = inst.n, inst.m, inst.get("a")
    if n is None or n < 2:
        return "requires n >= 2"
    if inst.p <= n:
        return "requires p > n"
    if m is None or m < 1:
        return "requires m >= 1"
    if not 1 <= a <= n - 1:
        return "requires 1 <= a <= n-1"
    return None


def _lem21_eval(inst: ClaimInstance, ctx: EvalContext):
    p, n, m, a = inst.p, inst.n, inst.m, inst.get("a")
    lhs = count_solutions_exact(a, m, n, p) % p**2
    rhs = _cof_rhs(Fraction((-1) ** (m - 1) * comb(n - 2, m - 1)) * gamma_n(a, n), [], p, 1, 2)
    return lhs, rhs, p**2, ""


def _lem21_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, (11, 13, 17)):
        for n in range(3, 10):
            for m in _g(grid.ms, tuple(range(1, n))):
                for a in range(1, n):
                    yield ClaimInstance("LEM-2.1", p, m=m, n=n, extra=(("a", a),))


# --- COR-2.2 ---------------------------------------------------------------

_N7_DIFFS = {
    (2, 1): Fraction(-5, 3),
    (2, 2): Fraction(1, 3),
    (2, 3): Fraction(-1, 6),
    (3, 1): Fraction(10, 3),
    (3, 2): Fraction(-2, 3),
    (3, 3): Fraction(1, 3),
}


def _cor22_check(inst: ClaimInstance) -> str | None:
    if inst.p <= 7:
        return "requires p > 7"
    if (inst.m, inst.get("a")) not in _N7_DIFFS:
        return "tabulated only for m in {2,3}, a in {1,2,3}"
    return None


def _cor22_eval(inst: ClaimInstance, ctx: EvalContext):
    p, m, a = inst.p, inst.m, inst.get("a")
    lhs = (count_solutions_exact(a, m, 7, p) - count_solutions_exact(7 - a, m, 7, p)) % p**2
    rhs = _cof_rhs(_N7_DIFFS[(m, a)], [], p, 1, 2)
    return lhs, rhs, p**2, ""


def _cor22_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, (11, 13, 17)):
        for m in _g(grid.ms, (2, 3)):
            for a in (1, 2, 3):
                yield ClaimInstance("COR-2.2", p, m=m, n=7, extra=(("a", a),))


# --- LEM-2.3-i -------------------------------------------------------------

def _lem23i_check(inst: ClaimInstance) -> str | None:
    n, k = inst.n, inst.m
    if n is None or n < 2:
        return "requires n >= 2"
    if inst.p <= n:
        return "requires p > n"
    if k is None or not 1 <= k <= n - 1:
        return "requires 1 <= k <= n-1"
    if inst.r is None or inst.r < 1:
        return "requires r >= 1"
    return None


def _lem23i_eval(inst: ClaimInstance, ctx: EvalContext):
    p, r, n, k = inst.p, inst.r, inst.n, inst.m
    lhs = ctx.comp_sum(s_spec(n, k, p, r), r)
    rhs = (-1) ** n * ctx.comp_sum(s_spec(n, n - k, p, r), r) % p**r
    return lhs, rhs, p**r, ""


def _lem23i_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, (11, 13)):
        for r in _g(grid.rs, (1, 2)):
            for n in range(3, 9):
                for k in _g(grid.ms, tuple(range(1, n))):
                    yield ClaimInstance("LEM-2.3-i", p, r=r, m=k, n=n)


# --- LEM-2.3-ii ------------------------------------------------------------

def _lem23ii_check(inst: ClaimInstance) -> str | None:
    n, m = inst.n, inst.m
    if n is None or n < 2:
        return "requires n >= 2"
    if inst.p <= n:
        return "requires p > n"
    if m is None or not 1 <= m <= n - 1:
        return "requires 1 <= m <= n-1"
    if inst.r is None or inst.r < 1:
        return "requires r >= 1"
    return None


def _lem23ii_eval(inst: ClaimInstance, ctx: EvalContext):
    p, r, n, m = inst.p, inst.r, inst.n, inst.m
    e = r + 1
    lhs = ctx.comp_sum(s_spec(n, m, p, r + 1), e)
    rhs = 0
    for a in range(1, n):
        rhs += count_solutions_exact(a, m, n, p) * ctx.comp_sum(s_spec(n, a, p, r), e)
    return lhs, rhs % p**e, p**e, ""


def _lem23ii_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, (11,)):
        for r in _g(grid.rs, (1, 2)):
            for m in _g(grid.ms, (1, 2, 3, 4, 5, 6)):
                yield ClaimInstance("LEM-2.3-ii", p, r=r, m=m, n=7)


# --- LEM-3.1 / LEM-3.4 (unordered sums) -------------------------------------

_U_COMPS = (
    (1, 1), (2,),
    (1, 1, 1), (2, 1), (3,),
    (1, 1, 1, 1), (2, 1, 1), (2, 2), (4,),
    (1, 1, 1, 1, 1), (2, 2, 1), (3, 1, 1), (5,),
    (1, 1, 1, 1, 1, 1), (2, 2, 2), (3, 2, 1),
    (1, 1, 1, 1, 1, 1, 1), (2, 2, 2, 1), (3, 3, 1),
    (1, 1, 1, 1, 1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 2),
)


def _u_check(inst: ClaimInstance) -> str | None:
    alphas = inst.get("alphas")
    b = inst.get("b", 1)
    if b < 1:
        return "requires b >= 1"
    if inst.claim_id == "LEM-3.1" and b != 1:
        return "fixed at b = 1 (the scaled family is LEM-3.4)"
    if not alphas or any(a < 1 for a in alphas):
        return "requires positive exponents"
    w = sum(alphas)
    if w > inst.p - 3:
        return f"requires weight {w} <= p-3"
    if inst.p <= len(alphas):
        return "requires p > depth"
    return None


def _u_eval(inst: ClaimInstance, ctx: EvalContext):
    p = inst.p
    alphas = inst.get("alphas")
    b = inst.get("b", 1)
    n = len(alphas)
    w = sum(alphas)
    if _odd(w):
        lhs = unordered_sum(b, alphas, PrimePowerModulus(p, 3)).value
        c = Fraction((-1) ** n * factorial(n - 1) * b * b * w * (w + 1), 2 * (w + 2))
        rhs = _cof_rhs(c, [p - w - 2], p, 2, 3)
        return lhs, rhs, p**3, "odd-weight branch"
    lhs = unordered_sum(b, alphas, PrimePowerModulus(p, 2)).value
    c = Fraction((-1) ** (n - 1) * factorial(n - 1) * b * w, w + 1)
    rhs = _cof_rhs(c, [p - w - 1], p, 1, 2)
    return lhs, rhs, p**2, "even-weight branch"


def _u_grid_for(claim_id: str, bs: tuple[int, ...]):
    def grid_fn(grid: GridSpec) -> Iterator[ClaimInstance]:
        for p in _g_primes(grid, _P_SMALL):
            for b in bs:
                for alphas in _U_COMPS:
                    yield ClaimInstance(
                        claim_id, p, n=len(alphas), extra=(("alphas", alphas), ("b", b))
                    )

    return grid_fn


# --- COR-3.2 ---------------------------------------------------------------

def _cor32_check(inst: ClaimInstance) -> str | None:
    alpha, n = inst.get("alpha"), inst.n
    if alpha < 1 or n is None or n < 1:
        return "requires alpha >= 1 and n >= 1"
    if n * alpha > inst.p - 3:
        return f"requires weight {n * alpha} <= p-3"
    return None


def _cor32_eval(inst: ClaimInstance, ctx: EvalContext):
    p, n, alpha = inst.p, inst.n, inst.get("alpha")
    w = n * alpha
    if _odd(w):
        lhs = mhs(p - 1, (alpha,) * n, PrimePowerModulus(p, 3)).value
        rhs = _cof_rhs(Fraction((-1) ** n * alpha * (w + 1), 2 * (w + 2)), [p - w - 2], p, 2, 3)
        return lhs, rhs, p**3, "odd-weight branch"
    lhs = mhs(p - 1, (alpha,) * n, PrimePowerModulus(p, 2)).value
    rhs = _cof_rhs(Fraction((-1) ** (n - 1) * alpha, w + 1), [p - w - 1], p, 1, 2)
    return lhs, rhs, p**2, "even-weight branch"


def _cor32_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, _P_SMALL):
        for alpha in range(1, 9):
            for n in range(1, 9):
                if alpha * n <= 8:
                    yield ClaimInstance("COR-3.2", p, n=n, extra=(("alpha", alpha),))


# --- LEM-3.3 ---------------------------------------------------------------

def _lem33_check(inst: ClaimInstance) -> str | None:
    if inst.n is None or inst.n < 2:
        return "requires n > 1"
    if inst.p <= inst.n + 1:
        return "requires p > n+1"
    return None


def _lem33_eval(inst: ClaimInstance, ctx: EvalContext):
    p, n = inst.p, inst.n
    if _odd(n):
        lhs = ctx.comp_sum(r_spec(n, 1, p), 1)
        rhs = _cof_rhs(-factorial(n - 1), [p - n], p, 0, 1)
        return lhs, rhs, p, ""
    lhs = ctx.comp_sum(r_spec(n, 1, p), 2)
    rhs = _cof_rhs(Fraction(-n * factorial(n), 2 * (n + 1)), [p - n - 1], p, 1, 2)
    note = "even branch; cofactor -n*n!/(2(n+1)), the factor 2 confirmed against exact rationals"
    return lhs, rhs, p**2, note


def _lem33_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, _P_SMALL):
        for n in range(2, 10):
            yield ClaimInstance("LEM-3.3", p, n=n)


# --- LEM-3.5 ---------------------------------------------------------------

def _lem35_check(inst: ClaimInstance) -> str | None:
    if inst.n is None or inst.n < 3 or not _odd(inst.n):
        return "requires odd n >= 3"
    if inst.p <= inst.n + 1:
        return "requires p > n+1 (added hypothesis)"
    return None


def _lem35_eval(inst: ClaimInstance, ctx: EvalContext):
    p, n = inst.p, inst.n
    lhs = ctx.comp_sum(r_spec(n, 2, p), 1)
    rhs = _cof_rhs(Fraction(-(n + 1) * factorial(n - 1), 2), [p - n], p, 0, 1)
    return lhs, rhs, p, ""


def _lem35_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, _P_SMALL):
        for n in (3, 5, 7, 9):
            yield ClaimInstance("LEM-3.5", p, n=n)


# --- COR-3.6 ---------------------------------------------------------------

def _cor36_check(inst: ClaimInstance) -> str | None:
    if inst.n is None or inst.n < 5 or not _odd(inst.n):
        return "requires odd n >= 5"
    if inst.p <= inst.n:
        return "requires p > n"
    return None


def _cor36_eval(inst: ClaimInstance, ctx: EvalContext):
    p, n = inst.p, inst.n
    lhs = ctx.comp_sum(s_spec(n, 2, p), 1)
    rhs = _cof_rhs(Fraction((n - 1) * factorial(n - 1), 2), [p - n], p, 0, 1)
    return lhs, rhs, p, ""


def _cor36_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, _P_SMALL):
        for n in (5, 7, 9):
            yield ClaimInstance("COR-3.6", p, n=n)


# --- LEM-3.7 / COR-3.8 -------------------------------------------------------

def _lem37_check(inst: ClaimInstance) -> str | None:
    if inst.n is None or inst.n < 3 or not _odd(inst.n):
        return "requires odd n >= 3"
    if inst.p < max(inst.n, 5):
        return "requires p >= max(n, 5)"
    return None


def _lem37_eval(inst: ClaimInstance, ctx: EvalContext):
    p, n = inst.p, inst.n
    lhs = ctx.comp_sum(r_spec(n, 3, p), 1)
    if n == 3:
        # three bounded parts cannot reach 3p, so the decomposition
        # R = S + C(n+1,2) S(1) + n S(2) collapses to -6 B(p-3)
        rhs = _cof_rhs(-6, [p - 3], p, 0, 1)
        return lhs, rhs, p, "degenerate n=3 value; general cofactor does not apply"
    main = _cof_rhs(Fraction(-(n + 1) * (n + 2) * factorial(n - 1), 6), [p - n], p, 0, 1)
    rhs = (main - _triple_bernoulli(p, n)) % p
    return lhs, rhs, p, ""


def _lem37_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, _P_SMALL):
        for n in (3, 5, 7, 9):
            yield ClaimInstance("LEM-3.7", p, n=n)


def _cor38_eval(inst: ClaimInstance, ctx: EvalContext):
    p, n = inst.p, inst.n
    lhs = ctx.comp_sum(s_spec(n, 3, p), 1)
    if n == 3:
        # the bounded family is empty: three parts below p cannot sum to 3p
        return lhs, 0, p, "degenerate n=3 value; the bounded sum is empty"
    main = _cof_rhs(Fraction(-(n - 1) * (n - 2) * factorial(n - 1), 6), [p - n], p, 0, 1)
    rhs = (main - _triple_bernoulli(p, n)) % p
    return lhs, rhs, p, ""


def _cor38_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, _P_SMALL):
        for n in (3, 5, 7, 9):
            yield ClaimInstance("COR-3.8", p, n=n)


# --- PROP-4.1 ----------------------------------------------------------------

def _prop41_check(inst: ClaimInstance) -> str | None:
    if inst.p <= 7:
        return "requires p > 7"
    if inst.r is None or inst.r < 1:
        return "requires r >= 1"
    return None


def _prop41_eval(inst: ClaimInstance, ctx: EvalContext):
    p, r = inst.p, inst.r
    lhs = ctx.comp_sum(s_spec(7, 1, p, r + 1), r + 1)
    rhs = _cof_rhs(Fraction(-factorial(7), 10), [p - 7], p, r, r + 1)
    return lhs, rhs, p ** (r + 1), ""


def _prop41_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, (11, 13)):
        for r in _g(grid.rs, (1, 2)):
            yield ClaimInstance("PROP-4.1", p, r=r)


# --- EQ-4.1 ------------------------------------------------------------------

def _eq41_check(inst: ClaimInstance) -> str | None:
    if inst.p <= 7:
        return "requires p > 7"
    if inst.r is None or inst.r < 1:
        return "requires r >= 1"
    if inst.m is None or inst.m < 1:
        return "requires m >= 1"
    return None


def _eq41_eval(inst: ClaimInstance, ctx: EvalContext):
    p, r, m = inst.p, inst.r, inst.m
    lhs = ctx.comp_sum(r_spec(7, m, p, r), r)
    rhs = 0
    for a in range(1, 7):
        rhs += comb(m + 6 - a, 6) * ctx.comp_sum(s_spec(7, a, p, r), r)
    return lhs, rhs % p**r, p**r, ""


def _eq41_grid(grid: GridSpec) -> Iterator[ClaimInstance]:
    for p in _g_primes(grid, (11,)):
        for r in _g(grid.rs, (1, 2)):
            for m in _g(grid.ms, (1, 2, 3)):
                yield ClaimInstance("EQ-4.1", p, r=r, m=m)


# --- EQ-5.1 / EQ-5.2 ----------------------------------------------------------

def _depth1_check(inst: ClaimInstance) -> str | None:
    d, m = inst.n, inst.m
    if d is None or d < 3 or not _odd(d):
        return "requires odd d >= 3"
    if inst.p <= d:
        return "requires p > d"
    if m not in (1, 2):
        return "constants tabulated for m in {1,2} only"
    return None


def _eq51_eval(inst: ClaimInstance, ctx: EvalContext):
    p, d, m = inst.p, inst.n, inst.m
    c = Fraction(-1) if m == 1 else Fraction(d - 1, 2)
    lhs = ctx.comp_sum(s_spec(d, m, p), 1)
    rhs = _cof_rhs(c * factorial(d - 1), [p - d], p, 0, 1)
    return lhs, rhs, p, ""


def _eq52_eval(inst: ClaimInstance, ctx: EvalContext):
    p, d, m = inst.p, inst.n, inst.m
    c = Fraction(-1) if m == 1 else Fraction(-(d + 1), 2)
    lhs = ctx.comp_sum(r_spec(d, m, p), 1)
    rhs = _cof_rhs(c * factorial(d - 1), [p - d], p, 0, 1)
    return lhs, rhs, p, ""


def _depth1_grid_for(claim_id: str):
    def grid_fn(grid: GridSpec) -> Iterator[ClaimInstance]:
        for p in _g_primes(grid, _P_SMALL):
            for d in (3, 5, 7, 9):
                for m in _g(grid.ms, (1, 2)):
                    yield ClaimInstance(claim_id, p, m=m, n=d)

    return grid_fn


# --- CONJ-5.1 (weights 8, 9, 10) -----------------------------------------------

def _conj_check(inst: ClaimInstance) -> str | None:
    if inst.p < 11:
        return "requires p >= 11"
    if inst.m is None or inst.m < 1:
        return "requires m >= 1"
    if inst.m % inst.p == 0:
        return "requires p not dividing m"
    return None


def _conj8_eval(inst: ClaimInstance, ctx: EvalContext):
    p, m = inst.p, inst.m
    lhs = ctx.comp_sum(r_spec(8, m, p), 1)
    c = Fraction(112, 5) * m * (m * m + 16) * (m * m - 1)
    rhs = _cof_rhs(c, [p - 3, p - 5], p, 0, 1)
    return lhs, rhs, p, ""


def _conj9_eval(inst: ClaimInstance, ctx: EvalContext):
    p, m = inst.p, inst.m
    lhs = ctx.comp_sum(r_spec(9, m, p), 1)
    rhs = (
        _cof_rhs(Fraction(-factorial(8), 18) * comb(m + 2, 5), [p - 3, p - 3, p - 3], p, 0, 1)
        + _cof_rhs(-8 * m * (m**6 + 126 * m**4 + 1869 * m**2 + 3044), [p - 9], p, 0, 1)
    ) % p
    return lhs, rhs, p, ""


def _conj10_eval(inst: ClaimInstance, ctx: EvalContext):
    p, m = inst.p, inst.m
    lhs = ctx.comp_sum(r_spec(10, m, p), 1)
    c = Fraction(-24, 35) * m * (m**4 + 71 * m**2 + 540) * (m * m - 1)
    rhs = (_cof_rhs(c * 50, [p - 3, p - 7], p, 0, 1) + _cof_rhs(c * 21, [p - 5, p - 5], p, 0, 1)) % p
    return lhs, rhs, p, ""


def _conj_grid_for(claim_id: str):
    def grid_fn(grid: GridSpec) -> Iterator[ClaimInstance]:
        for p in _g_primes(grid, _P_SMALL):
            for m in _g(grid.ms, (1, 2, 3, 4)):
                yield ClaimInstance(claim_id, p, m=m)

    return grid_fn


# ---------------------------------------------------------------------------
# the registry

CLAIMS: dict[str, Claim] = {}


def _register(claim: Claim) -> None:
    CLAIMS[claim.claim_id] = claim


_register(Claim(
    "EQ-1.1",
    "sum_{i+j+k=p, i,j,k>0} 1/(ijk) == -2*B(p-3)  (mod p)",
    _eq11_check, _eq11_eval, _eq11_grid,
    grid_note="primes 5..97",
))
_register(Claim(
    "THM-1.1-i",
    "sum over l1+..+l7 = m*p of unit reciprocals == -(504m+210m^3+6m^5)*B(p-7)  (mod p)",
    _thm1i_check, _thm1i_eval, _thm1i_grid,
    grid_note="primes 11..47, m in {1,2,3}",
))
_register(Claim(
    "THM-1.1-ii",
    "sum over l1+..+l7 = m*p^r of unit reciprocals == -(7!/10)*m*p^(r-1)*B(p-7)  (mod p^r), r >= 2",
    _thm1ii_check, _thm1ii_eval, _thm1ii_grid,
    grid_note="p in {11,13}, r in {2,3}, m in {1,2}",
))
_register(Claim(
    "EQ-1.3",
    "S(7,1,p^(r+1)) == p * S(7,1,p^r)  (mod p^(r+1)), r >= 2",
    _eq13_check, _eq13_eval, _eq13_grid,
    grid_note="p=11, r=2",
))
_register(Claim(
    "LEM-2.1",
    "C(a,m,n,p) == (-1)^(m-1) * binom(n-2,m-1) * gamma_n(a) * p  (mod p^2)",
    _lem21_check, _lem21_eval, _lem21_grid,
    grid_note="p in {11,13,17}, n in 3..9, m and a in 1..n-1",
))
_register(Claim(
    "COR-2.2",
    "C(a,m,7,p) - C(7-a,m,7,p) == tabulated multiple of p  (mod p^2), m in {2,3}, a in {1,2,3}",
    _cor22_check, _cor22_eval, _cor22_grid,
    grid_note="p in {11,13,17}, all six differences",
))
_register(Claim(
    "LEM-2.3-i",
    "S(n,k,p^r) == (-1)^n * S(n,n-k,p^r)  (mod p^r)",
    _lem23i_check, _lem23i_eval, _lem23i_grid,
    grid_note="p in {11,13}, r in {1,2}, n in 3..8, k in 1..n-1",
))
_register(Claim(
    "LEM-2.3-ii",
    "S(n,m,p^(r+1)) == sum_{a=1}^{n-1} C(a,m,n,p) * S(n,a,p^r)  (mod p^(r+1))",
    _lem23ii_check, _lem23ii_eval, _lem23ii_grid,
    grid_note="p=11, r in {1,2}, n=7, m in 1..6",
))
_register(Claim(
    "LEM-3.1",
    "U_1(a_1..a_n), w = sum a_i: odd w: (-1)^n (n-1)! w(w+1)/(2(w+2)) B(p-w-2) p^2 (mod p^3); "
    "even w: (-1)^(n-1) (n-1)! w/(w+1) B(p-w-1) p (mod p^2)",
    _u_check, _u_eval, _u_grid_for("LEM-3.1", (1,)),
    grid_note="primes 11..31, weights 2..8 at depths 1..8",
))
_register(Claim(
    "COR-3.2",
    "H({a}^n), w = n*a: odd w: (-1)^n a(w+1)/(2(w+2)) B(p-w-2) p^2 (mod p^3); "
    "even w: (-1)^(n-1) a/(w+1) B(p-w-1) p (mod p^2)",
    _cor32_check, _cor32_eval, _cor32_grid,
    grid_note="primes 11..31, all (a, n) with n*a <= 8",
))
_register(Claim(
    "LEM-3.3",
    "R(n,1,p): odd n: -(n-1)! B(p-n) (mod p); even n: -n*n!/(2(n+1)) B(p-n-1) p (mod p^2)",
    _lem33_check, _lem33_eval, _lem33_grid,
    grid_note="primes 11..31, n in 2..9; even-branch cofactor carries the 1/2 factor",
))
_register(Claim(
    "LEM-3.4",
    "U_b(a_1..a_n), w = sum a_i: odd w: (-1)^n (n-1)! b^2 w(w+1)/(2(w+2)) B(p-w-2) p^2 (mod p^3); "
    "even w: (-1)^(n-1) (n-1)! b w/(w+1) B(p-w-1) p (mod p^2)",
    _u_check, _u_eval, _u_grid_for("LEM-3.4", (1, 2, 3)),
    grid_note="primes 11..31, b in {1,2,3}, weights 2..8",
))
_register(Claim(
    "LEM-3.5",
    "R(n,2,p) == -((n+1)/2) (n-1)! B(p-n)  (mod p), odd n",
    _lem35_check, _lem35_eval, _lem35_grid,
    grid_note="primes 11..31, n in {3,5,7,9}; p > n+1 enforced",
))
_register(Claim(
    "COR-3.6",
    "S(n,2,p) == ((n-1)/2) (n-1)! B(p-n)  (mod p), odd n >= 5",
    _cor36_check, _cor36_eval, _cor36_grid,
    grid_note="primes 11..31, n in {5,7,9}",
))
_register(Claim(
    "LEM-3.7",
    "R(n,3,p) == -((n+1)(n+2)/6) (n-1)! B(p-n) - (n!/6) T(n,p)  (mod p) for odd n >= 5, "
    "T = sum_{a+b+c=(n-3)/2} prod B(p-2i-1)/(2i+1); R(3,3,p) == -6 B(p-3)",
    _lem37_check, _lem37_eval, _lem37_grid,
    grid_note="primes 11..31, n in {3,5,7,9}; n=3 uses the degenerate value",
))
_register(Claim(
    "COR-3.8",
    "S(n,3,p) == -((n-1)(n-2)/6) (n-1)! B(p-n) - (n!/6) T(n,p)  (mod p) for odd n >= 5; "
    "S(3,3,p) == 0 (empty family)",
    _lem37_check, _cor38_eval, _cor38_grid,
    grid_note="primes 11..31, n in {3,5,7,9}; n=3 uses the degenerate value",
))
_register(Claim(
    "PROP-4.1",
    "S(7,1,p^(r+1)) == -(7!/10) B(p-7) p^r  (mod p^(r+1))",
    _prop41_check, _prop41_eval, _prop41_grid,
    grid_note="p in {11,13}, r in {1,2}",
))
_register(Claim(
    "EQ-4.1",
    "sum over l1+..+l7 = m*p^r of unit reciprocals == sum_{a=1}^{6} binom(m+6-a,6) S(7,a,p^r)  (mod p^r)",
    _eq41_check, _eq41_eval, _eq41_grid,
    grid_note="p=11, r in {1,2}, m in {1,2,3}",
))
_register(Claim(
    "EQ-5.1",
    "S(d,m,p) == c_{d,m} (d-1)! B(p-d)  (mod p), c_{d,1} = -1, c_{d,2} = (d-1)/2",
    _depth1_check, _eq51_eval, _depth1_grid_for("EQ-5.1"),
    grid_note="primes 11..31, odd d in {3,5,7,9}, m in {1,2}",
))
_register(Claim(
    "EQ-5.2",
    "R(d,m,p) == c'_{d,m} (d-1)! B(p-d)  (mod p), c'_{d,1} = -1, c'_{d,2} = -(d+1)/2",
    _depth1_check, _eq52_eval, _depth1_grid_for("EQ-5.2"),
    grid_note="primes 11..31, odd d in {3,5,7,9}, m in {1,2}",
))
_register(Claim(
    "CONJ-5.1-w8",
    "R(8,m,p) == (112/5) m (m^2+16)(m^2-1) B(p-3) B(p-5)  (mod p)",
    _conj_check, _conj8_eval, _conj_grid_for("CONJ-5.1-w8"),
    conjecture=True,
    grid_note="primes 11..31, m in {1,2,3,4}",
))
_register(Claim(
    "CONJ-5.1-w9",
    "R(9,m,p) == -(8!/18) binom(m+2,5) B(p-3)^3 - 8m(m^6+126m^4+1869m^2+3044) B(p-9)  (mod p)",
    _conj_check, _conj9_eval, _conj_grid_for("CONJ-5.1-w9"),
    conjecture=True,
    grid_note="primes 11..31, m in {1,2,3,4}",
))
_register(Claim(
    "CONJ-5.1-w10",
    "R(10,m,p) == -(24/35) m (m^4+71m^2+540)(m^2-1) (50 B(p-3) B(p-7) + 21 B(p-5)^2)  (mod p)",
    _conj_check, _conj10_eval, _conj_grid_for("CONJ-5.1-w10"),
    conjecture=True,
    grid_note="primes 11..31, m in {1,2,3,4}",
))


# ---------------------------------------------------------------------------
# evaluation driver

def verify(
    instance: ClaimInstance,
    ctx: EvalContext | None = None,
    registry: Mapping[str, Claim] | None = None,
) -> ClaimReport:
    """Evaluate one claim instance into a ClaimReport.

    Hypothesis violations yield a skip, never a failure; arithmetic
    domain errors (non-units, Bernoulli poles, scale guards, malformed
    parameters) yield an error report.
    """
    reg = registry if registry is not None else CLAIMS
    claim = reg.get(instance.claim_id)
    if claim is None:
        raise KeyError(f"unknown claim id {instance.claim_id!r}")
    ctx = ctx if ctx is not None else EvalContext()
    start = time.perf_counter()

    def done(report: ClaimReport) -> ClaimReport:
        report.elapsed_ms = (time.perf_counter() - start) * 1000.0
        return report

    if not is_prime(instance.p):
        return done(ClaimReport(instance, "skip", note=f"{instance.p} is not prime", anchor=claim.anchor))
    try:
        reason = claim.check(instance)
    except (KeyError, TypeError) as exc:
        return done(ClaimReport(instance, "error", note=f"bad parameters: {exc}", anchor=claim.anchor))
    if reason is not None:
        return done(ClaimReport(instance, "skip", note=reason, anchor=claim.anchor))
    try:
        lhs, rhs, modulus, note = claim.evaluate(instance, ctx)
    except (NonUnitError, PoleError, ScaleGuardError, ValueError, KeyError, TypeError) as exc:
        return done(ClaimReport(instance, "error", note=f"{type(exc).__name__}: {exc}", anchor=claim.anchor))
    if lhs == rhs:
        status = "pass"
    else:
        status = "finding" if claim.conjecture else "fail"
        tag = "conjecture mismatch" if claim.conjecture else "congruence fails"
        note = f"{tag}: lhs {lhs} != rhs {rhs} (mod {modulus})" + (f"; {note}" if note else "")
    return done(ClaimReport(instance, status, lhs=lhs, rhs=rhs, modulus=modulus, note=note, anchor=claim.anchor))


def _instances_for(
    claim_ids: Iterable[str],
    grid: GridSpec,
    registry: Mapping[str, Claim],
) -> list[ClaimInstance]:
    instances: list[ClaimInstance] = []
    for cid in claim_ids:
        claim = registry.get(cid)
        if claim is None:
            raise KeyError(f"unknown claim id {cid!r}")
        instances.extend(claim.grid(grid))
    instances.sort(key=lambda i: i.sort_key())
    return instances


def _pool_verify(args: tuple[ClaimInstance, dict]) -> tuple[ClaimReport, dict, int, int]:
    instance, cache_rows = args
    ctx = EvalContext(cache_rows=cache_rows)
    report = verify(instance, ctx)
    return report, ctx.new_rows, ctx.comp_sum_evals, ctx.cache_hits


def sweep(
    claim_ids: Iterable[str],
    grid: GridSpec = GridSpec(),
    ctx: EvalContext | None = None,
    registry: Mapping[str, Claim] | None = None,
    jobs: int = 1,
) -> list[ClaimReport]:
    """Evaluate the claims over their (possibly overridden) grids.

    Reports come back in lexicographic (claim_id, p, r, m, n, extra)
    order regardless of evaluation order or worker count.
    """
    reg = registry if registry is not None else CLAIMS
    instances = _instances_for(claim_ids, grid, reg)
    if jobs > 1 and registry is None and len(instances) > 1:
        ctx = ctx if ctx is not None else EvalContext()
        snapshot = dict(ctx._cache)
        snapshot.update(ctx.new_rows)
        reports = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for report, new_rows, evals, hits in pool.map(
                _pool_verify, [(inst, snapshot) for inst in instances]
            ):
                reports.append(report)
                ctx.comp_sum_evals += evals
                ctx.cache_hits += hits
                for key, value in new_rows.items():
                    if key not in snapshot:
                        ctx.new_rows.setdefault(key, value)
        return reports
    ctx = ctx if ctx is not None else EvalContext()
    # Evaluate prime by prime, so that comp_sum's one-prime ladder memo serves
    # every claim at that prime before moving on; the stable sort keeps the
    # claim order within a prime, and reports still come back in sorted order.
    reports: list[ClaimReport | None] = [None] * len(instances)
    for i in sorted(range(len(instances)), key=lambda i: instances[i].p):
        reports[i] = verify(instances[i], ctx, registry=reg)
    return reports


_INT_FIELDS = ("p", "r", "m", "n")


def instance_from_params(claim_id: str, params: Mapping[str, object]) -> ClaimInstance:
    """Build an instance from a flat parameter mapping (CLI --instance)."""
    if "p" not in params:
        raise ValueError("instance needs at least p=<prime>")
    core = {k: params[k] for k in _INT_FIELDS if k in params}
    extra = tuple(sorted((k, v) for k, v in params.items() if k not in _INT_FIELDS))
    return ClaimInstance(claim_id, extra=extra, **core)
