"""Catalog of congruence claims over restricted sums, with grid sweeps.

The catalog is one table, CLAIMS: each row is a Claim holding a stable
id, the congruence actually checked (an ASCII formula printed in
reports), the default parameter grid as ordered dimensions, the
hypotheses as (fails, message) pairs drawn from a small shared
vocabulary, one evaluate function, and a conjecture flag. evaluate is the
only per-claim code: a claim that needs composition sums is a generator
that yields their (spec, e) terms once, receives their values and returns
(lhs, rhs, modulus, note); a claim without them returns that tuple
directly. One grid builder (Claim.grid) and one hypothesis walk
(Claim.violated) serve every row, and the default grids are sized so the
whole catalog sweeps in seconds single-threaded.

Instances are verified prime by prime (verify_instances), each prime
against its own EvalContext, in process or as one process-pool task per
prime; every entry point runs that one task, _verify_prime, and verify
is verify_instances of one instance. A task returns plain data: each
instance's outcome, the context's counters and its new cache rows; the
calling process builds each ClaimReport from its own instance, so
reports, counters and new cache rows do not depend on the number of
workers. A prime is planned before it is evaluated: every instance that
passes its hypotheses is started up to the terms it yields, those terms,
less the ones already cached, go to compsum as one plan, so that each
ladder is built once, at the largest part count and target asked of it,
and only then is each instance sent its values. compsum decides how each
term is read; the context knows only cache keys and values. Within a
prime, each claim's parameter names are read once and the prime is
tested once; nothing of that is kept from one call to the next.
Reports come back in ClaimInstance.sort_key order.

Mixed-precision rule used throughout: a right-hand side of the shape
c * B * p**j (mod p**(j+1)) is evaluated by reducing the cofactor c * B
mod p, lifting the canonical representative, and multiplying by p**j;
the product is canonical mod p**(j+1) as it stands, so j alone fixes
its modulus. A term carrying an explicit p**j factor needs its cofactor
only to the complementary precision; that is the one reading under
which every checked congruence is well-posed.

Conjectural claims are flagged: a mismatch there is a *finding* (the
interesting scientific output), reported distinctly and not counted as a
verification failure.
"""

from __future__ import annotations

import os
from collections.abc import Generator
from math import comb, factorial, gcd
from operator import attrgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .bernoulli import PoleError, bernoulli_mod_p
from .compsum import (
    CompSumSpec,
    count_solutions_exact,
    comp_sum,
    Plan,
    r_spec,
    s_spec,
)
from .mhs import mhs, unordered_sum
from .modring import NonUnitError, is_prime, prime_power

__all__ = [
    "ClaimInstance",
    "ClaimReport",
    "Claim",
    "GridSpec",
    "EvalContext",
    "CLAIMS",
    "verify",
    "verify_instances",
    "sweep",
    "instance_from_params",
    "primes_between",
]


def primes_between(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(q for q in range(lo, hi + 1) if is_prime(q))


_INT_FIELDS = ("p", "r", "m", "n")
_FIELD_NAMES = frozenset(_INT_FIELDS)


class ClaimInstance(NamedTuple):
    """One claim at one parameter point; unused dimensions stay None."""

    claim_id: str
    p: int
    r: int | None = None
    m: int | None = None
    n: int | None = None
    extra: tuple[tuple[str, int | tuple[int, ...]], ...] = ()

    _MISSING = object()

    def get(self, key: str, default=_MISSING):
        """A parameter by name: p, r, m or n (None when unset), or an extra."""
        if key in _INT_FIELDS:
            return getattr(self, key)
        for k, v in self.extra:
            if k == key:
                return v
        if default is not ClaimInstance._MISSING:
            return default
        raise KeyError(f"instance {self} has no extra parameter {key!r}")

    def params(self) -> dict:
        """The set parameters by name, in replay order: p, r, m, n, then the extras."""
        out: dict = {"p": self.p}
        for name in ("r", "m", "n"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        out.update(self.extra)
        return out

    def sort_key(self) -> tuple:
        """claim_id, then p, r, m, n and each extra's name and value, unset
        fields as 0, each value preceded by whether it is a tuple: total
        over int and tuple values, an int before a tuple, so a malformed
        instance sorts among well-formed ones."""
        claim_id, p, r, m, n, extra = self
        r, m, n = 0 if r is None else r, 0 if m is None else m, 0 if n is None else n
        key = (claim_id, isinstance(p, tuple), p, isinstance(r, tuple), r,
               isinstance(m, tuple), m, isinstance(n, tuple), n)
        for name, value in extra:
            key += (name, isinstance(value, tuple), value)
        return key


class ClaimReport(NamedTuple):
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


class GridSpec(NamedTuple):
    """User overrides for the swept dimensions; None keeps claim defaults."""

    primes: tuple[int, ...] | None = None
    rs: tuple[int, ...] | None = None
    ms: tuple[int, ...] | None = None


Term = tuple[CompSumSpec, int]  # a composition sum and the exponent e of its modulus p**e
Sides = tuple[int, int, int, str]  # lhs, rhs, modulus, note
Evaluation = Generator[Sequence[Term], tuple[int, ...], Sides]
Outcome = tuple[str, int | None, int | None, int | None, str, str]  # a ClaimReport's fields after its instance


class EvalContext:
    """One plan's comp_sum values by cache key, optional persistent cache
    rows, and counters of evaluations, cache hits and ladder builds (cache
    hits never touch the evaluator).

    Values live for one plan: plan() replaces the previous plan and forgets
    its values. Reading a term outside the current plan replaces the plan
    with one of that term alone, so a later read of a term of the old plan
    climbs its ladders again; _verify_prime plans every term a prime's
    instances yield before it reads any. compsum.Plan decides each term's
    route, one per cache key within a plan, so a value read by one route
    never stands in for another. The cache holds one value per cache key,
    whatever its route."""

    def __init__(self, cache_rows: Mapping[tuple, int] | None = None):
        self.comp_sum_evals = 0
        self.cache_hits = 0
        self.ladder_builds = 0
        self._cache = cache_rows or {}
        self.new_rows: dict[tuple, int] = {}
        self.plan(())

    @staticmethod
    def cache_key(spec: CompSumSpec, mod_exp: int) -> tuple[str, int, int, str]:
        kind = "S" if spec.upper_bound is not None else "R"
        params = f"kind={kind};n={spec.n};m={spec.m};e={mod_exp}"
        if spec.target != spec.m * spec.p**spec.r:
            params += f";target={spec.target}"
        return ("comp_sum", spec.p, spec.r, params)

    def plan(self, terms: Iterable[Term]) -> None:
        """Replace the current plan and forget its values: keep each term's
        cache key, and hand compsum the terms whose key the cache does not hold."""
        self._keys = {term: self.cache_key(*term) for term in terms}
        self._values: dict[tuple, int] = {}
        self._plan = Plan(term for term, key in self._keys.items() if key not in self._cache)

    def comp_sum(self, spec: CompSumSpec, mod_exp: int) -> int:
        term = (spec, mod_exp)
        if term not in self._keys:
            self.plan([term])
        key = self._keys[term]
        if key in self._values:
            return self._values[key]
        if key in self._cache:
            self.cache_hits += 1
            value = self._cache[key]
        else:
            built = self._plan.ladders_built
            value = comp_sum(spec, prime_power(spec.p, mod_exp), plan=self._plan)
            self.ladder_builds += self._plan.ladders_built - built
            self.comp_sum_evals += 1
            self.new_rows[key] = value
        self._values[key] = value
        return value


# ---------------------------------------------------------------------------
# the hypothesis vocabulary: (fails, message) pairs. fails(instance) is true
# when the instance lies outside the claim; message, a string or a function
# of the instance, becomes the skip note. A missing extra or a value of the
# wrong type raises KeyError or TypeError inside fails, which verify reports
# as a bad-parameters error quoting the exception, so each fails is written
# as the violated comparison (p <= k rather than not p > k): the error note
# names that comparison. Each fails reads a parameter once: p, r, m and n as
# fields, an extra through ClaimInstance.get.

def _reader(name: str) -> Callable[[ClaimInstance], object]:
    return attrgetter(name) if name in _INT_FIELDS else (lambda i: i.get(name))


def _p_above(k: int):
    return (lambda i: i.p <= k), f"requires p > {k}"


def _p_at_least(k: int):
    return (lambda i: i.p < k), f"requires p >= {k}"


def _at_least(name: str, k: int, message: str | None = None):
    read = _reader(name)
    return (lambda i: (v := read(i)) is None or v < k), message or f"requires {name} >= {k}"


def _odd_at_least(k: int, name: str = "n"):
    return (lambda i: i.n is None or i.n < k or not _odd(i.n)), f"requires odd {name} >= {k}"


def _p_above_n(c: int = 0, message: str | None = None):
    return (lambda i: i.p <= i.n + c), message or "requires p > n" + (f"+{c}" if c else "")


def _within_1_and_n_minus_1(name: str, label: str):
    read = _reader(name)
    return (lambda i: (v := read(i)) is None or not 1 <= v <= i.n - 1), f"requires 1 <= {label} <= n-1"


def _weight_at_most_p_minus_3(weight: Callable[[ClaimInstance], int]):
    return (lambda i: weight(i) > i.p - 3), (lambda i: f"requires weight {weight(i)} <= p-3")


def _given(name: str):
    """Listed first, so that a missing extra is an error before any other hypothesis skips."""
    return (lambda i: i.get(name) is None), f"requires {name}"


_P_NOT_DIVIDING_M = (lambda i: i.m % i.p == 0), "requires p not dividing m"


class Claim(NamedTuple):
    """One row of the catalog.

    dims is the default grid as ordered (name, values) dimensions; values
    is an iterable, or a function of the point built from the dimensions
    before it. The dimensions name every parameter the claim takes: an
    instance carrying any other name is a bad-parameters error. --primes,
    --r and --m replace the p, r and m dimensions of the rows that have
    them. hypotheses are checked in order. evaluate(inst)
    returns (lhs, rhs, modulus, note); a claim that needs composition sums
    writes it as a generator that yields a list of (spec, e) terms once
    and receives their values, each mod p**e, in the same order.
    """

    claim_id: str
    anchor: str
    dims: tuple[tuple[str, Iterable | Callable[[dict], Iterable]], ...]
    hypotheses: tuple[tuple[Callable[[ClaimInstance], bool], str | Callable[[ClaimInstance], str]], ...]
    evaluate: Callable[[ClaimInstance], Sides | Evaluation]
    conjecture: bool = False

    def grid(self, spec: GridSpec = GridSpec()) -> list[ClaimInstance]:
        """The instances of the default grid under the spec's overrides."""
        override = {
            "p": None if spec.primes is None else tuple(q for q in spec.primes if is_prime(q)),
            "r": spec.rs,
            "m": spec.ms,
        }
        points: list[dict] = [{}]
        for name, values in self.dims:
            fixed = override.get(name)
            if fixed is not None:
                values = fixed
            points = [{**point, name: value} for point in points
                      for value in (values(point) if callable(values) else values)]
        extras = sorted(name for name, _ in self.dims if name not in _INT_FIELDS)
        return [ClaimInstance(self.claim_id, point["p"], point.get("r"), point.get("m"), point.get("n"),
                              tuple([(name, point[name]) for name in extras])) for point in points]

    def violated(self, instance: ClaimInstance) -> str | None:
        """The note of the first hypothesis the instance fails, or None."""
        for fails, message in self.hypotheses:
            if fails(instance):
                return message(instance) if callable(message) else message
        return None


# ---------------------------------------------------------------------------
# shared right-hand-side helpers, and each claim's evaluator

def _rat(num: int, den: int, p: int) -> int:
    """num/den mod p; NonUnitError when p divides the reduced denominator."""
    g = gcd(num, den)
    num, den = (num // g, den // g) if den > 0 else (-num // g, -den // g)
    if den % p == 0:
        raise NonUnitError(f"denominator of {num}/{den} is divisible by {p}")
    return num * pow(den, -1, p) % p


def _cof_rhs(num: int, den: int, bern_indices: Iterable[int], p: int, j: int) -> int:
    """(num/den * prod B(idx)) reduced mod p, lifted, times p**j: canonical mod p**(j+1)."""
    cof = _rat(num, den, p)
    for k in bern_indices:
        cof = cof * bernoulli_mod_p(k, p) % p
    return cof * p**j


def _triple_bernoulli(p: int, n: int) -> int:
    """(n!/6) * sum_{a+b+c=(n-3)/2, a,b,c>=1} prod B(p-2i-1)/(2i+1), mod p."""
    half = (n - 3) // 2
    acc = 0
    for a in range(1, half + 1):
        for b in range(1, half - a + 1):
            c = half - a - b
            if c < 1:
                continue
            term = bernoulli_mod_p(p - 2 * a - 1, p) * bernoulli_mod_p(p - 2 * b - 1, p) % p
            term = term * bernoulli_mod_p(p - 2 * c - 1, p) % p
            acc = (acc + term * _rat(1, (2 * a + 1) * (2 * b + 1) * (2 * c + 1), p)) % p
    return acc * _rat(factorial(n), 6, p) % p


def _odd(x: int) -> bool:
    return x % 2 == 1


_P_SMALL = primes_between(11, 31)  # (11, 13, 17, 19, 23, 29, 31)


def _eq11_eval(inst: ClaimInstance):
    p = inst.p
    [lhs] = yield [(r_spec(3, 1, p), 1)]
    return lhs, _cof_rhs(-2, 1, [p - 3], p, 0), p, ""


def _thm1i_eval(inst: ClaimInstance):
    p, m = inst.p, inst.m
    [lhs] = yield [(r_spec(7, m, p), 1)]
    rhs = _cof_rhs(-(504 * m + 210 * m**3 + 6 * m**5), 1, [p - 7], p, 0)
    return lhs, rhs, p, ""


def _thm1ii_eval(inst: ClaimInstance):
    p, r, m = inst.p, inst.r, inst.m
    [lhs] = yield [(r_spec(7, m, p, r), r)]
    rhs = _cof_rhs(-factorial(7) * m, 10, [p - 7], p, r - 1)
    return lhs, rhs, p**r, ""


# EQ-1.3, EQ-4.1 and LEM-2.3-ii hold by algebra alone for the digit
# weights (and f_b == (1 - x**p**R) * f mod p**e, R >= e, is how every
# bounded sum is read), so each takes one side at its full target, read
# with no weights: EQ-1.3 its lower sum, EQ-4.1 its free sum, and
# LEM-2.3-ii its lower sums, whose parts stay below p**r < p**e, the one
# case that climbs a bounded ladder of its own. At e = 1 every other sum
# is read on the period key, whose mirror [x**(n*p - t)] g**n ==
# (-1)**n [x**t] g**n makes LEM-2.3-i at r = 1 hold by algebra alone: it
# takes the side with the larger index at its full target, so that each
# sum S(n, j, p) has one route. Full targets at e = 1 climb f by the digit
# route, so every cross-routed row compares two different climbs.

def _eq13_eval(inst: ClaimInstance):
    p, r = inst.p, inst.r
    upper, lower = yield [(s_spec(7, 1, p, r + 1), r + 1), (s_spec(7, 1, p, r, full_target=True), r)]
    return upper, p * lower % p ** (r + 1), p ** (r + 1), ""


def _lem21_eval(inst: ClaimInstance):
    p, n, m, a = inst.p, inst.n, inst.m, inst.get("a")
    lhs = count_solutions_exact(a, m, n, p) % p**2
    # (-1)**(m-1) C(n-2, m-1) times gamma_n(a) = (-1)**(a-1) / (a C(n-1, a))
    rhs = _cof_rhs((-1) ** (m + a) * comb(n - 2, m - 1), a * comb(n - 1, a), [], p, 1)
    return lhs, rhs, p**2, ""


_N7_DIFFS = {  # (m, a): the multiple of p, as numerator and denominator
    (2, 1): (-5, 3),
    (2, 2): (1, 3),
    (2, 3): (-1, 6),
    (3, 1): (10, 3),
    (3, 2): (-2, 3),
    (3, 3): (1, 3),
}


def _cor22_eval(inst: ClaimInstance):
    p, m, a = inst.p, inst.m, inst.get("a")
    lhs = (count_solutions_exact(a, m, 7, p) - count_solutions_exact(7 - a, m, 7, p)) % p**2
    rhs = _cof_rhs(*_N7_DIFFS[(m, a)], [], p, 1)
    return lhs, rhs, p**2, ""


def _lem23i_eval(inst: ClaimInstance):
    p, r, n, k = inst.p, inst.r, inst.n, inst.m
    s_k, s_n_minus_k = yield [(s_spec(n, k, p, r, full_target=r == 1 and 2 * k >= n), r),
                              (s_spec(n, n - k, p, r, full_target=r == 1 and 2 * k <= n), r)]
    return s_k, (-1) ** n * s_n_minus_k % p**r, p**r, ""


def _lem23ii_eval(inst: ClaimInstance):
    p, r, n, m = inst.p, inst.r, inst.n, inst.m
    e = r + 1
    upper, *lower = yield [(s_spec(n, m, p, e), e), *((s_spec(n, a, p, r), e) for a in range(1, n))]
    rhs = sum(count_solutions_exact(a, m, n, p) * s for a, s in enumerate(lower, start=1))
    return upper, rhs % p**e, p**e, ""


_U_COMPS = (
    (1, 1), (2,),
    (1, 1, 1), (2, 1), (3,),
    (1, 1, 1, 1), (2, 1, 1), (2, 2), (4,),
    (1, 1, 1, 1, 1), (2, 2, 1), (3, 1, 1), (5,),
    (1, 1, 1, 1, 1, 1), (2, 2, 2), (3, 2, 1),
    (1, 1, 1, 1, 1, 1, 1), (2, 2, 2, 1), (3, 3, 1),
    (1, 1, 1, 1, 1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 2),
)


def _u_eval(inst: ClaimInstance):
    p = inst.p
    alphas = inst.get("alphas")
    b = inst.get("b", 1)
    n = len(alphas)
    w = sum(alphas)
    # both branches read one table per (b, p), built once at p**3: U is an integer
    # combination of power sums, so its value mod p**3 reduces to the one mod p**2
    lhs = unordered_sum(b, alphas, prime_power(p, 3))
    if _odd(w):
        rhs = _cof_rhs((-1) ** n * factorial(n - 1) * b * b * w * (w + 1), 2 * (w + 2), [p - w - 2], p, 2)
        return lhs, rhs, p**3, "odd-weight branch"
    lhs %= p * p
    rhs = _cof_rhs((-1) ** (n - 1) * factorial(n - 1) * b * w, w + 1, [p - w - 1], p, 1)
    return lhs, rhs, p**2, "even-weight branch"


def _cor32_eval(inst: ClaimInstance):
    p, n, alpha = inst.p, inst.n, inst.get("alpha")
    w = n * alpha
    if _odd(w):
        lhs = mhs(p - 1, (alpha,) * n, prime_power(p, 3))
        rhs = _cof_rhs((-1) ** n * alpha * (w + 1), 2 * (w + 2), [p - w - 2], p, 2)
        return lhs, rhs, p**3, "odd-weight branch"
    lhs = mhs(p - 1, (alpha,) * n, prime_power(p, 2))
    rhs = _cof_rhs((-1) ** (n - 1) * alpha, w + 1, [p - w - 1], p, 1)
    return lhs, rhs, p**2, "even-weight branch"


def _lem33_eval(inst: ClaimInstance):
    p, n = inst.p, inst.n
    [lhs] = yield [(r_spec(n, 1, p), 1 if _odd(n) else 2)]
    if _odd(n):
        return lhs, _cof_rhs(-factorial(n - 1), 1, [p - n], p, 0), p, ""
    rhs = _cof_rhs(-n * factorial(n), 2 * (n + 1), [p - n - 1], p, 1)
    note = "even branch; cofactor -n*n!/(2(n+1)), the factor 2 confirmed against exact rationals"
    return lhs, rhs, p**2, note


def _lem35_eval(inst: ClaimInstance):
    p, n = inst.p, inst.n
    [lhs] = yield [(r_spec(n, 2, p), 1)]
    rhs = _cof_rhs(-(n + 1) * factorial(n - 1), 2, [p - n], p, 0)
    return lhs, rhs, p, ""


def _cor36_eval(inst: ClaimInstance):
    p, n = inst.p, inst.n
    [lhs] = yield [(s_spec(n, 2, p), 1)]
    rhs = _cof_rhs((n - 1) * factorial(n - 1), 2, [p - n], p, 0)
    return lhs, rhs, p, ""


def _lem37_eval(inst: ClaimInstance):
    p, n = inst.p, inst.n
    [lhs] = yield [(r_spec(n, 3, p), 1)]
    if n == 3:
        # three bounded parts cannot reach 3p, so the decomposition
        # R = S + C(n+1,2) S(1) + n S(2) collapses to -6 B(p-3)
        rhs = _cof_rhs(-6, 1, [p - 3], p, 0)
        return lhs, rhs, p, "degenerate n=3 value; general cofactor does not apply"
    main = _cof_rhs(-(n + 1) * (n + 2) * factorial(n - 1), 6, [p - n], p, 0)
    rhs = (main - _triple_bernoulli(p, n)) % p
    return lhs, rhs, p, ""


def _cor38_eval(inst: ClaimInstance):
    p, n = inst.p, inst.n
    [lhs] = yield [(s_spec(n, 3, p), 1)]
    if n == 3:
        # the bounded family is empty: three parts below p cannot sum to 3p
        return lhs, 0, p, "degenerate n=3 value; the bounded sum is empty"
    main = _cof_rhs(-(n - 1) * (n - 2) * factorial(n - 1), 6, [p - n], p, 0)
    rhs = (main - _triple_bernoulli(p, n)) % p
    return lhs, rhs, p, ""


def _prop41_eval(inst: ClaimInstance):
    p, r = inst.p, inst.r
    [lhs] = yield [(s_spec(7, 1, p, r + 1), r + 1)]
    rhs = _cof_rhs(-factorial(7), 10, [p - 7], p, r)
    return lhs, rhs, p ** (r + 1), ""


def _eq41_eval(inst: ClaimInstance):
    p, r, m = inst.p, inst.r, inst.m
    free, *bounded = yield [(r_spec(7, m, p, r, full_target=True), r),
                            *((s_spec(7, a, p, r), r) for a in range(1, 7))]
    rhs = sum(comb(m + 6 - a, 6) * s for a, s in enumerate(bounded, start=1))
    return free, rhs % p**r, p**r, ""


def _eq51_eval(inst: ClaimInstance):
    p, d, m = inst.p, inst.n, inst.m
    [lhs] = yield [(s_spec(d, m, p), 1)]
    num, den = (-1, 1) if m == 1 else (d - 1, 2)
    rhs = _cof_rhs(num * factorial(d - 1), den, [p - d], p, 0)
    return lhs, rhs, p, ""


def _eq52_eval(inst: ClaimInstance):
    p, d, m = inst.p, inst.n, inst.m
    [lhs] = yield [(r_spec(d, m, p), 1)]
    num, den = (-1, 1) if m == 1 else (-(d + 1), 2)
    rhs = _cof_rhs(num * factorial(d - 1), den, [p - d], p, 0)
    return lhs, rhs, p, ""


def _conj8_eval(inst: ClaimInstance):
    p, m = inst.p, inst.m
    [lhs] = yield [(r_spec(8, m, p), 1)]
    rhs = _cof_rhs(112 * m * (m * m + 16) * (m * m - 1), 5, [p - 3, p - 5], p, 0)
    return lhs, rhs, p, ""


def _conj9_eval(inst: ClaimInstance):
    p, m = inst.p, inst.m
    [lhs] = yield [(r_spec(9, m, p), 1)]
    rhs = (
        _cof_rhs(-factorial(8) * comb(m + 2, 5), 18, [p - 3, p - 3, p - 3], p, 0)
        + _cof_rhs(-8 * m * (m**6 + 126 * m**4 + 1869 * m**2 + 3044), 1, [p - 9], p, 0)
    ) % p
    return lhs, rhs, p, ""


def _conj10_eval(inst: ClaimInstance):
    p, m = inst.p, inst.m
    [lhs] = yield [(r_spec(10, m, p), 1)]
    num = -24 * m * (m**4 + 71 * m**2 + 540) * (m * m - 1)
    rhs = (_cof_rhs(num * 50, 35, [p - 3, p - 7], p, 0) + _cof_rhs(num * 21, 35, [p - 5, p - 5], p, 0)) % p
    return lhs, rhs, p, ""


# ---------------------------------------------------------------------------
# the catalog

def _unordered_hypotheses(*b_rules):
    """LEM-3.1 and LEM-3.4 share these; b is 1 when the instance omits it."""
    return (
        _given("alphas"),
        ((lambda i: i.n is not None and i.n != len(i.get("alphas"))),
         "requires n = number of exponents"),
        ((lambda i: i.get("b", 1) < 1), "requires b >= 1"),
        *b_rules,
        ((lambda i: not (alphas := i.get("alphas")) or any(a < 1 for a in alphas)),
         "requires positive exponents"),
        _weight_at_most_p_minus_3(lambda i: sum(i.get("alphas"))),
    )


_UNORDERED_DIMS = (("alphas", _U_COMPS), ("n", lambda pt: (len(pt["alphas"]),)))
_ODD_DEPTH_HYPOTHESES = (
    _odd_at_least(3, "d"),
    _p_above_n(message="requires p > d"),
    ((lambda i: i.m not in (1, 2)), "constants tabulated for m in {1,2} only"),
)
_TRIPLE_HYPOTHESES = (_odd_at_least(3), ((lambda i: i.p < max(i.n, 5)), "requires p >= max(n, 5)"))


def _below_n(point: dict) -> range:
    return range(1, point["n"])


_CONJ_HYPOTHESES = (_p_at_least(11), _at_least("m", 1), _P_NOT_DIVIDING_M)
_MULTIPLIER = (_at_least("m", 1, "requires a multiplier m >= 1"), _P_NOT_DIVIDING_M)

CLAIMS: dict[str, Claim] = {claim.claim_id: claim for claim in (
    Claim(
        "EQ-1.1",
        "sum_{i+j+k=p, i,j,k>0} 1/(ijk) == -2*B(p-3)  (mod p)",
        (("p", primes_between(5, 97)),),
        (_p_at_least(3),),
        _eq11_eval,
    ),
    Claim(
        "THM-1.1-i",
        "sum over l1+..+l7 = m*p of unit reciprocals == -(504m+210m^3+6m^5)*B(p-7)  (mod p)",
        (("p", primes_between(11, 47)), ("m", (1, 2, 3))),
        (_p_above(7), *_MULTIPLIER),
        _thm1i_eval,
    ),
    Claim(
        "THM-1.1-ii",
        "sum over l1+..+l7 = m*p^r of unit reciprocals == -(7!/10)*m*p^(r-1)*B(p-7)  (mod p^r), r >= 2",
        (("p", (11, 13)), ("r", (2, 3)), ("m", (1, 2))),
        (_p_above(7), _at_least("r", 2), *_MULTIPLIER),
        _thm1ii_eval,
    ),
    Claim(
        "EQ-1.3",
        "S(7,1,p^(r+1)) == p * S(7,1,p^r)  (mod p^(r+1)), r >= 2",
        (("p", (11,)), ("r", (2,))),
        (_p_above(7), _at_least("r", 2)),
        _eq13_eval,
    ),
    Claim(
        "LEM-2.1",
        "C(a,m,n,p) == (-1)^(m-1) * binom(n-2,m-1) * gamma_n(a) * p  (mod p^2)",
        (("p", (11, 13, 17)), ("n", range(3, 10)), ("m", _below_n), ("a", _below_n)),
        (_given("a"), _at_least("n", 2), _p_above_n(), _at_least("m", 1), _within_1_and_n_minus_1("a", "a")),
        _lem21_eval,
    ),
    Claim(
        "COR-2.2",
        "C(a,m,7,p) - C(7-a,m,7,p) == tabulated multiple of p  (mod p^2), m in {2,3}, a in {1,2,3}",
        (("p", (11, 13, 17)), ("m", (2, 3)), ("n", (7,)), ("a", (1, 2, 3))),
        (_p_above(7),
         ((lambda i: (i.m, i.get("a")) not in _N7_DIFFS), "tabulated only for m in {2,3}, a in {1,2,3}")),
        _cor22_eval,
    ),
    Claim(
        "LEM-2.3-i",
        "S(n,k,p^r) == (-1)^n * S(n,n-k,p^r)  (mod p^r)",
        (("p", (11, 13)), ("r", (1, 2)), ("n", range(3, 9)), ("m", _below_n)),
        (_at_least("n", 2), _p_above_n(), _within_1_and_n_minus_1("m", "k"), _at_least("r", 1)),
        _lem23i_eval,
    ),
    Claim(
        "LEM-2.3-ii",
        "S(n,m,p^(r+1)) == sum_{a=1}^{n-1} C(a,m,n,p) * S(n,a,p^r)  (mod p^(r+1))",
        (("p", (11,)), ("r", (1, 2)), ("m", range(1, 7)), ("n", (7,))),
        (_at_least("n", 2), _p_above_n(), _within_1_and_n_minus_1("m", "m"), _at_least("r", 1)),
        _lem23ii_eval,
    ),
    Claim(
        "LEM-3.1",
        "U_1(a_1..a_n), w = sum a_i: odd w: (-1)^n (n-1)! w(w+1)/(2(w+2)) B(p-w-2) p^2 (mod p^3); "
        "even w: (-1)^(n-1) (n-1)! w/(w+1) B(p-w-1) p (mod p^2)",
        (("p", _P_SMALL), ("b", (1,)), *_UNORDERED_DIMS),
        _unordered_hypotheses(
            ((lambda i: i.get("b", 1) != 1), "fixed at b = 1 (the scaled family is LEM-3.4)")),
        _u_eval,
    ),
    Claim(
        "COR-3.2",
        "H({a}^n), w = n*a: odd w: (-1)^n a(w+1)/(2(w+2)) B(p-w-2) p^2 (mod p^3); "
        "even w: (-1)^(n-1) a/(w+1) B(p-w-1) p (mod p^2)",
        (("p", _P_SMALL), ("alpha", range(1, 9)), ("n", lambda pt: range(1, 8 // pt["alpha"] + 1))),
        (((lambda i: i.get("alpha") < 1 or i.n is None or i.n < 1), "requires alpha >= 1 and n >= 1"),
         _weight_at_most_p_minus_3(lambda i: i.n * i.get("alpha"))),
        _cor32_eval,
    ),
    Claim(
        "LEM-3.3",
        "R(n,1,p): odd n: -(n-1)! B(p-n) (mod p); even n: -n*n!/(2(n+1)) B(p-n-1) p (mod p^2)",
        (("p", _P_SMALL), ("n", range(2, 10))),
        (_at_least("n", 2, "requires n > 1"), _p_above_n(1)),
        _lem33_eval,
    ),
    Claim(
        "LEM-3.4",
        "U_b(a_1..a_n), w = sum a_i: odd w: (-1)^n (n-1)! b^2 w(w+1)/(2(w+2)) B(p-w-2) p^2 (mod p^3); "
        "even w: (-1)^(n-1) (n-1)! b w/(w+1) B(p-w-1) p (mod p^2)",
        (("p", _P_SMALL), ("b", (1, 2, 3)), *_UNORDERED_DIMS),
        _unordered_hypotheses(),
        _u_eval,
    ),
    Claim(
        "LEM-3.5",
        "R(n,2,p) == -((n+1)/2) (n-1)! B(p-n)  (mod p), odd n",
        (("p", _P_SMALL), ("n", (3, 5, 7, 9))),
        (_odd_at_least(3), _p_above_n(1, "requires p > n+1 (added hypothesis)")),
        _lem35_eval,
    ),
    Claim(
        "COR-3.6",
        "S(n,2,p) == ((n-1)/2) (n-1)! B(p-n)  (mod p), odd n >= 5",
        (("p", _P_SMALL), ("n", (5, 7, 9))),
        (_odd_at_least(5), _p_above_n()),
        _cor36_eval,
    ),
    Claim(
        "LEM-3.7",
        "R(n,3,p) == -((n+1)(n+2)/6) (n-1)! B(p-n) - (n!/6) T(n,p)  (mod p) for odd n >= 5, "
        "T = sum_{a+b+c=(n-3)/2} prod B(p-2i-1)/(2i+1); R(3,3,p) == -6 B(p-3)",
        (("p", _P_SMALL), ("n", (3, 5, 7, 9))),
        _TRIPLE_HYPOTHESES,
        _lem37_eval,
    ),
    Claim(
        "COR-3.8",
        "S(n,3,p) == -((n-1)(n-2)/6) (n-1)! B(p-n) - (n!/6) T(n,p)  (mod p) for odd n >= 5; "
        "S(3,3,p) == 0 (empty family)",
        (("p", _P_SMALL), ("n", (3, 5, 7, 9))),
        _TRIPLE_HYPOTHESES,
        _cor38_eval,
    ),
    Claim(
        "PROP-4.1",
        "S(7,1,p^(r+1)) == -(7!/10) B(p-7) p^r  (mod p^(r+1))",
        (("p", (11, 13)), ("r", (1, 2))),
        (_p_above(7), _at_least("r", 1)),
        _prop41_eval,
    ),
    Claim(
        "EQ-4.1",
        "sum over l1+..+l7 = m*p^r of unit reciprocals == sum_{a=1}^{6} binom(m+6-a,6) S(7,a,p^r)  (mod p^r)",
        (("p", (11,)), ("r", (1, 2)), ("m", (1, 2, 3))),
        (_p_above(7), _at_least("r", 1), _at_least("m", 1)),
        _eq41_eval,
    ),
    Claim(
        "EQ-5.1",
        "S(d,m,p) == c_{d,m} (d-1)! B(p-d)  (mod p), c_{d,1} = -1, c_{d,2} = (d-1)/2",
        (("p", _P_SMALL), ("n", (3, 5, 7, 9)), ("m", (1, 2))),
        _ODD_DEPTH_HYPOTHESES,
        _eq51_eval,
    ),
    Claim(
        "EQ-5.2",
        "R(d,m,p) == c'_{d,m} (d-1)! B(p-d)  (mod p), c'_{d,1} = -1, c'_{d,2} = -(d+1)/2",
        (("p", _P_SMALL), ("n", (3, 5, 7, 9)), ("m", (1, 2))),
        _ODD_DEPTH_HYPOTHESES,
        _eq52_eval,
    ),
    Claim(
        "CONJ-5.1-w8",
        "R(8,m,p) == (112/5) m (m^2+16)(m^2-1) B(p-3) B(p-5)  (mod p)",
        (("p", _P_SMALL), ("m", (1, 2, 3, 4))),
        _CONJ_HYPOTHESES,
        _conj8_eval,
        conjecture=True,
    ),
    Claim(
        "CONJ-5.1-w9",
        "R(9,m,p) == -(8!/18) binom(m+2,5) B(p-3)^3 - 8m(m^6+126m^4+1869m^2+3044) B(p-9)  (mod p)",
        (("p", _P_SMALL), ("m", (1, 2, 3, 4))),
        _CONJ_HYPOTHESES,
        _conj9_eval,
        conjecture=True,
    ),
    Claim(
        "CONJ-5.1-w10",
        "R(10,m,p) == -(24/35) m (m^4+71m^2+540)(m^2-1) (50 B(p-3) B(p-7) + 21 B(p-5)^2)  (mod p)",
        (("p", _P_SMALL), ("m", (1, 2, 3, 4))),
        _CONJ_HYPOTHESES,
        _conj10_eval,
        conjecture=True,
    ),
)}


# ---------------------------------------------------------------------------
# evaluation driver

_EVAL_ERRORS = (NonUnitError, PoleError, ValueError, KeyError, TypeError)


def _prepare(instance: ClaimInstance, claims: dict, primes: dict[int, bool]
             ) -> tuple[Claim, Outcome | Evaluation, tuple[Term, ...]]:
    """The instance's claim, and either its final outcome (a skip, an error,
    or the whole outcome of a claim without composition sums) and no terms,
    or its evaluation paused at the terms it yielded, and those terms.

    claims and primes are the caller's memos: each claim with the names of
    its dimensions and the indexes of the fields r, m, n it does not take,
    and whether each p is prime."""
    claim_id, p = instance.claim_id, instance.p
    if claim_id not in claims:
        claim = CLAIMS.get(claim_id)
        if claim is None:
            raise KeyError(f"unknown claim id {claim_id!r}")
        names = frozenset(name for name, _ in claim.dims)
        claims[claim_id] = claim, names, [i for i, name in enumerate(_INT_FIELDS, 1) if name not in names]
    claim, names, untaken = claims[claim_id]
    try:
        given = [k for k, _ in instance.extra]
        if any(instance[i] is not None for i in untaken) or not names.issuperset(given):
            unknown = [name for name in instance.params() if name not in names]
            raise ValueError(f"{claim_id} does not take {', '.join(unknown)}")
        if len(set(given)) < len(given) or not _FIELD_NAMES.isdisjoint(given):
            # params() would let the second value overwrite the first in the report
            k = next(k for k in given if k in _FIELD_NAMES or given.count(k) > 1)
            raise ValueError(f"extra parameter {k!r} " + ("names a field" if k in _FIELD_NAMES else "is given twice"))
        try:
            prime = primes[p]
        except (KeyError, TypeError):  # a new p, or one that is_prime rejects as malformed
            prime = primes[p] = is_prime(p)
        reason = claim.violated(instance) if prime else f"{p} is not prime"
    except (KeyError, TypeError, ValueError) as exc:
        return claim, ("error", None, None, None, f"bad parameters: {exc}", claim.anchor), ()
    if reason is not None:
        return claim, ("skip", None, None, None, reason, claim.anchor), ()
    try:
        run = claim.evaluate(instance)
        if isinstance(run, Generator):
            return claim, run, tuple(next(run))
    except _EVAL_ERRORS as exc:
        return claim, _error(claim, exc), ()
    return claim, _outcome(claim, run), ()


def _evaluate(claim: Claim, run: Evaluation, terms: tuple[Term, ...], ctx: EvalContext) -> Outcome:
    """Send the paused evaluation its terms' values and judge what it returns."""
    try:
        run.send(tuple(ctx.comp_sum(spec, e) for spec, e in terms))
    except StopIteration as stop:
        return _outcome(claim, stop.value)
    except _EVAL_ERRORS as exc:
        return _error(claim, exc)
    run.close()
    raise RuntimeError(f"{claim.claim_id} yielded a second time; a claim yields its terms once")


def _outcome(claim: Claim, sides: Sides) -> Outcome:
    lhs, rhs, modulus, note = sides
    if lhs == rhs:
        status = "pass"
    else:
        status = "finding" if claim.conjecture else "fail"
        tag = "conjecture mismatch" if claim.conjecture else "congruence fails"
        note = f"{tag}: lhs {lhs} != rhs {rhs} (mod {modulus})" + (f"; {note}" if note else "")
    return status, lhs, rhs, modulus, note, claim.anchor


def _error(claim: Claim, exc: Exception) -> Outcome:
    return "error", None, None, None, f"{type(exc).__name__}: {exc}", claim.anchor


def verify(instance: ClaimInstance, ctx: EvalContext | None = None) -> ClaimReport:
    """Evaluate one claim instance into a ClaimReport: verify_instances([instance], ctx)[0].

    Hypothesis violations yield a skip, never a failure; arithmetic
    domain errors (non-units, Bernoulli poles, malformed parameters) yield
    an error report. ctx, as for verify_instances, is read for cache rows
    and receives the counters and new rows; nothing is evaluated in it.
    """
    return verify_instances([instance], ctx)[0]


def _verify_prime(task: tuple[list[ClaimInstance], dict]) -> tuple[list[Outcome], tuple[int, int, int], dict]:
    """Verify one prime's instances against a context reading the given
    cache rows (a pool task is sent only its prime's): check every
    instance's hypotheses and start its evaluation, hand all the terms
    yielded to the context as one plan, then finish the instances in order.
    Module-level so that a pool can run it. Returns plain data: each
    instance's outcome in order, the context's counters (evaluations, cache
    hits, ladder builds) and its new cache rows."""
    instances, cache_rows = task
    ctx = EvalContext(cache_rows)
    claims: dict = {}
    primes: dict[int, bool] = {}
    prepared = [_prepare(instance, claims, primes) for instance in instances]
    ctx.plan(term for _, _, terms in prepared for term in terms)
    outcomes = [_evaluate(claim, run, terms, ctx) if isinstance(run, Generator) else run
                for claim, run, terms in prepared]
    return outcomes, (ctx.comp_sum_evals, ctx.cache_hits, ctx.ladder_builds), ctx.new_rows


def verify_instances(
    instances: Iterable[ClaimInstance],
    ctx: EvalContext | None = None,
    jobs: int = 1,
) -> list[ClaimReport]:
    """Verify instances prime by prime, in process or over a pool of
    min(jobs, primes, CPUs) processes with one task per prime.

    A prime's instances share one context and one compsum plan, so each
    ladder at that prime is built once and serves every claim, and one
    primality test and one read of each claim's names serve them all. A
    task returns its outcomes, counters and new cache rows; this process
    merges the counters and rows into ctx in ascending prime order and
    builds each report from its own instance, so reports come back in
    ClaimInstance.sort_key order and nothing depends on the number of
    workers.
    """
    ctx = ctx if ctx is not None else EvalContext()
    groups: dict[int, list[ClaimInstance]] = {}
    for inst in instances:
        groups.setdefault(inst.p, []).append(inst)
    primes = sorted(groups, key=lambda p: (isinstance(p, tuple), p))
    workers = min(jobs, len(primes), os.cpu_count() or 1)
    if workers <= 1:
        # each cache key holds its prime, so in process every task reads the caller's rows in place
        tasks = [(groups[p], ctx._cache) for p in primes]
        return _collect(tasks, map(_verify_prime, tasks), ctx)
    cache: dict[int, dict[tuple, int]] = {}
    for key, value in ctx._cache.items():
        cache.setdefault(key[1], {})[key] = value
    tasks = [(groups[p], cache.get(p, {})) for p in primes]  # a pool task is sent only its prime's rows
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _collect(tasks, pool.map(_verify_prime, tasks), ctx)


def _collect(tasks: list[tuple[list[ClaimInstance], dict]], results: Iterable, ctx: EvalContext) -> list[ClaimReport]:
    """Each task's reports, built from its own instances as its result
    arrives, so no result is held once read; the counters and new rows go
    to ctx in task order."""
    reports: list[ClaimReport] = []
    for (group, _), (outcomes, (evals, hits, builds), new_rows) in zip(tasks, results):
        reports.extend(ClaimReport(inst, *outcome) for inst, outcome in zip(group, outcomes))
        ctx.comp_sum_evals += evals
        ctx.cache_hits += hits
        ctx.ladder_builds += builds
        ctx.new_rows.update(new_rows)
    reports.sort(key=lambda rep: rep.instance.sort_key())
    return reports


def sweep(
    claim_ids: Iterable[str],
    grid: GridSpec = GridSpec(),
    ctx: EvalContext | None = None,
    jobs: int = 1,
) -> list[ClaimReport]:
    """Verify the claims over their (possibly overridden) grids."""
    instances: list[ClaimInstance] = []
    for cid in claim_ids:
        if cid not in CLAIMS:
            raise KeyError(f"unknown claim id {cid!r}")
        instances.extend(CLAIMS[cid].grid(grid))
    return verify_instances(instances, ctx, jobs)


def instance_from_params(claim_id: str, params: Mapping[str, object]) -> ClaimInstance:
    """Build an instance from a flat parameter mapping (grid points, CLI --instance)."""
    if "p" not in params:
        raise ValueError("instance needs at least p=<prime>")
    core = {k: params[k] for k in _INT_FIELDS if k in params}
    extra = tuple(sorted((k, v) for k, v in params.items() if k not in _INT_FIELDS))
    return ClaimInstance(claim_id, extra=extra, **core)
