"""Catalog of congruence claims over restricted sums, with grid sweeps.

The catalog is one table, CLAIMS: each row is a Claim holding a stable
id, the congruence checked (an ASCII formula printed in reports), the
default grid as ordered dimensions, the hypotheses as (fails, message)
pairs from a small shared vocabulary, one evaluate function and a
conjecture flag. evaluate is a generator that yields, once, every term
it reads whose cost grows with p (composition sums, Bernoulli residues,
unordered sums and chain sweeps; see Term), receives their values and
returns (lhs, rhs, modulus, note). In 19 claims the right side is p**j
times a rational polynomial in Bernoulli residues, and evaluate is one
rule, _bernoulli_rule, applied to the claim's sides function, which
yields that polynomial as data; EQ-1.3, LEM-2.3-i, LEM-2.3-ii and
EQ-4.1 keep a generator of their own. One grid builder (Claim.grid) and
one hypothesis walk (Claim.violated) serve every row.

verify_instances sorts its instances once, on entry, and verifies them
prime by prime, in process or as one pool task per prime; every entry
point runs that one task, _verify_prime, which returns plain verdicts,
counters and new cache rows, and verify_instances alone makes reports.
A prime is planned before it is evaluated: every instance that passes
its hypotheses is started up to the terms it yields, and the prime's
EvalContext is made with all of them as its one plan. The context reads
each term once, from the cache rows or computed, and no term outside its
plan; compsum.Plan builds each ladder once and refuses one too large to
finish (ScaleGuardError) before any is climbed, and the context owns the
prime's unordered-sum tables. Nothing is kept from one prime to the next.

Mixed-precision rule, applied by _bernoulli_rule alone: a right-hand
side of the shape c * B * p**j (mod p**(j+1)) is evaluated by reducing
the cofactor c * B mod p, lifting the canonical representative, and
multiplying by p**j; the product is canonical mod p**(j+1) as it stands,
so j alone fixes its modulus. A term carrying an explicit p**j factor
needs its cofactor only to the complementary precision; that is the one
reading under which every checked congruence is well-posed.

Conjectural claims are flagged: a mismatch there is a *finding* (the
interesting scientific output), reported distinctly and not counted as a
verification failure.
"""

from __future__ import annotations

import os
from collections.abc import Generator
from contextlib import nullcontext
from functools import partial
from math import comb, factorial, gcd
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    "param_texts",
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

    def params(self) -> tuple:
        """The given parameters as (name, value) pairs, in replay order: p, then
        whichever of r, m, n are set, then each extra as given."""
        _, p, r, m, n, extra = self
        return (("p", p), *(() if r is None else (("r", r),)), *(() if m is None else (("m", m),)),
                *(() if n is None else (("n", n),)), *extra)

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


# A term, a quantity a claim reads mod p**e, is a composition sum as (spec, e), or
# (quantity, p, e, args): a Bernoulli residue ("bernoulli", p, 1, (k,)), an unordered
# sum ("unordered", p, 3, (b, alphas)) or a chain sweep H_N(s), ("mhs", p, e, (N, s))
Term = tuple
Sides = tuple[int, int, int, str]  # lhs, rhs, modulus, note
Evaluation = Generator[Sequence[Term], tuple[int, ...], Sides]
Outcome = tuple[str, int | None, int | None, int | None, str]  # a verdict: status, lhs, rhs, modulus, note


def param_texts(pairs: Iterable[tuple[str, object]]) -> list[str]:
    """name=value for each (name, value), a tuple value joined by '+' (alphas=1+1+2):
    the one text of a parameter in report rows, their replays and cache keys."""
    return [f"{name}={'+'.join(map(str, value))}" if isinstance(value, tuple) else f"{name}={value}"
            for name, value in pairs]


_PARAM_NAMES = {"bernoulli": ("k",), "unordered": ("b", "alphas"), "mhs": ("N", "s")}  # each term's args


class EvalContext:
    """One plan's term values by cache key, optional persistent cache rows,
    the unordered-sum tables of the plan's prime, and counters of
    composition-sum evaluations, their cache hits and ladder builds.

    The plan is fixed on construction: its terms are the only ones value
    and comp_sum read, and reading any other raises KeyError naming it.
    The uncached composition sums go to one compsum.Plan, which raises
    ScaleGuardError here if a ladder is too large to finish. Each term is
    read once, from the cache rows or computed and kept as a new row; a
    term whose computation raises is not kept, so each read raises again."""

    def __init__(self, cache_rows: Mapping[tuple, int] | None = None, terms: Iterable[Term] = ()):
        self.comp_sum_evals = 0
        self.cache_hits = 0
        self.ladder_builds = 0
        self._cache = cache_rows or {}
        self.new_rows: dict[tuple, int] = {}
        self._keys = {term: self.cache_key(*term) for term in dict.fromkeys(terms)}  # each key built once
        self._values: dict[tuple, int] = {}
        self._tables: dict = {}  # mhs.unordered_sum's tables, at this context's prime
        self._plan = Plan(term for term, key in self._keys.items() if len(term) == 2 and key not in self._cache)

    @staticmethod
    def cache_key(*term) -> tuple[str, int, int, str]:
        """A term's row key (quantity, p, r, params); r is a composition sum's spec.r, another term's e."""
        if len(term) == 4:
            quantity, p, e, args = term
            return quantity, p, e, ";".join(param_texts(zip(_PARAM_NAMES[quantity], args)))
        spec, mod_exp = term
        kind = "S" if spec.upper_bound is not None else "R"
        params = f"kind={kind};n={spec.n};m={spec.m};e={mod_exp}"
        if spec.target != spec.m * spec.p**spec.r:
            params += f";target={spec.target}"
        return ("comp_sum", spec.p, spec.r, params)

    def value(self, term: Term) -> int:
        """The planned term's value mod p**e; a composition sum is read by comp_sum."""
        return self.comp_sum(*term) if len(term) == 2 else self._read(term)

    def comp_sum(self, spec: CompSumSpec, mod_exp: int) -> int:
        return self._read((spec, mod_exp))

    def _read(self, term: Term) -> int:
        key = self._keys.get(term)
        if key is None:
            raise KeyError(f"{term} is not in the context's plan")
        if key not in self._values:
            if key in self._cache:
                self.cache_hits += len(term) == 2  # composition sums only
                self._values[key] = self._cache[key]
            else:
                self._values[key] = self.new_rows[key] = self._compute(term)
        return self._values[key]

    def _compute(self, term: Term) -> int:
        """The term's value, by the evaluators as this module names them."""
        if len(term) == 2:
            spec, e = term
            built = self._plan.ladders_built
            value = comp_sum(spec, prime_power(spec.p, e), plan=self._plan)
            self.ladder_builds += self._plan.ladders_built - built
            self.comp_sum_evals += 1
            return value
        quantity, p, e, args = term
        if quantity == "bernoulli":
            return bernoulli_mod_p(*args, p)
        if quantity == "unordered":
            return unordered_sum(*args, prime_power(p, e), self._tables)
        return mhs(*args, prime_power(p, e))


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
    them. hypotheses are checked in order. evaluate(inst) is a
    generator: it yields a list of terms once, receives their values, each
    mod p**e, in the same order, and returns (lhs, rhs, modulus, note).
    """

    claim_id: str
    anchor: str
    dims: tuple[tuple[str, Iterable | Callable[[dict], Iterable]], ...]
    hypotheses: tuple[tuple[Callable[[ClaimInstance], bool], str | Callable[[ClaimInstance], str]], ...]
    evaluate: Callable[[ClaimInstance], Evaluation]
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
        shared: dict[tuple, tuple] = {}  # one extra tuple per distinct value, held by every prime's instances
        return [ClaimInstance(self.claim_id, point["p"], point.get("r"), point.get("m"), point.get("n"),
                              shared.setdefault(extra := tuple([(name, point[name]) for name in extras]), extra))
                for point in points]

    def violated(self, instance: ClaimInstance) -> str | None:
        """The note of the first hypothesis the instance fails, or None."""
        for fails, message in self.hypotheses:
            if fails(instance):
                return message(instance) if callable(message) else message
        return None


# ---------------------------------------------------------------------------
# the Bernoulli rule, and each claim's sides or evaluator

def _rat(num: int, den: int, p: int) -> int:
    """num/den mod p; NonUnitError when p divides the reduced denominator."""
    g = gcd(num, den)
    num, den = (num // g, den // g) if den > 0 else (-num // g, -den // g)
    if den % p == 0:
        raise NonUnitError(f"denominator of {num}/{den} is divisible by {p}")
    return num * pow(den, -1, p) % p


def _bernoulli_rule(sides: Callable[[ClaimInstance], Iterator], inst: ClaimInstance) -> Evaluation:
    """The evaluation of a claim whose right side is p**j times a rational
    polynomial in Bernoulli residues: partial(_bernoulli_rule, sides) is its
    Claim.evaluate. sides(inst) is a generator that yields (lhs, j, ds, note),
    then the monomials (num, den, ds), num/den times prod B(p-d) over d in ds;
    lhs is a term or a closed-form int, and ds names each d of the monomials
    once. This yields lhs, if a term, and each B(p-d) in the order of ds; only
    then draws the monomials, so that their numerators are built after the
    prime's plan is priced; reduces their sum mod p, lifts it, multiplies it
    by p**j and returns lhs mod p**(j+1), that modulus and the note."""
    p = inst.p
    monomials = sides(inst)
    lhs, j, ds, note = next(monomials)
    read = not isinstance(lhs, int)
    values = yield ([lhs] if read else []) + [("bernoulli", p, 1, (p - d,)) for d in ds]
    if read:
        lhs = values[0]
    at = dict(zip(ds, values[read:]))  # B(p-d) by d
    cof = 0
    for num, den, mds in monomials:
        c = _rat(num, den, p)
        for d in mds:
            c = c * at[d] % p
        cof += c
    low = p**j
    return lhs % (low * p), cof % p * low, low * p, note


def _triple(n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """-(n!/6) T(n, p) as monomials, T = sum over a+b+c = (n-3)/2, a, b, c >= 1,
    of prod B(p-2i-1)/(2i+1) over i in (a, b, c): one monomial per a <= b <= c,
    times its number of orderings. They name B(p-d) for d = 3, 5, .., n-6."""
    half, num = (n - 3) // 2, -(factorial(n) // 6)
    monomials = []
    for a in range(1, half // 3 + 1):
        for b in range(a, (half - a) // 2 + 1):
            c = half - a - b
            orderings = 6 if a < b < c else 1 if a == c else 3
            ds = (2 * a + 1, 2 * b + 1, 2 * c + 1)
            monomials.append((orderings * num, ds[0] * ds[1] * ds[2], ds))
    return monomials


def _odd(x: int) -> bool:
    return x % 2 == 1


_P_SMALL = primes_between(11, 31)  # (11, 13, 17, 19, 23, 29, 31)


def _eq11_sides(inst: ClaimInstance):
    yield (r_spec(3, 1, inst.p), 1), 0, (3,), ""
    yield -2, 1, (3,)


def _thm1i_sides(inst: ClaimInstance):
    m = inst.m
    yield (r_spec(7, m, inst.p), 1), 0, (7,), ""
    yield -(504 * m + 210 * m**3 + 6 * m**5), 1, (7,)


def _thm1ii_sides(inst: ClaimInstance):
    p, r, m = inst.p, inst.r, inst.m
    yield (r_spec(7, m, p, r), r), r - 1, (7,), ""
    yield -factorial(7) * m, 10, (7,)


# EQ-1.3, EQ-4.1, LEM-2.3-i at r = 1 (by g's mirror x**p * g(1/x) == -g mod p) and
# LEM-2.3-ii would hold by algebra alone if both sides were read by
# weights, so each asks one side's bounded sums S(n, a, p**r) one digit
# deeper, mod p**(r+1), where parts below p**r climb a ladder of their own
# (compsum._reading), and uses them mod p**r (LEM-2.3-ii through its
# multiples of p, C(a, m, n, p)).

def _eq13_eval(inst: ClaimInstance):
    p, r = inst.p, inst.r
    upper, lower = yield [(s_spec(7, 1, p, r + 1), r + 1), (s_spec(7, 1, p, r), r + 1)]
    return upper, p * lower % p ** (r + 1), p ** (r + 1), ""


def _lem21_sides(inst: ClaimInstance):
    p, n, m, a = inst.p, inst.n, inst.m, inst.get("a")
    yield count_solutions_exact(a, m, n, p), 1, (), ""
    # (-1)**(m-1) C(n-2, m-1) times gamma_n(a) = (-1)**(a-1) / (a C(n-1, a))
    yield (-1) ** (m + a) * comb(n - 2, m - 1), a * comb(n - 1, a), ()


_N7_DIFFS = {  # (m, a): the multiple of p, as numerator and denominator
    (2, 1): (-5, 3),
    (2, 2): (1, 3),
    (2, 3): (-1, 6),
    (3, 1): (10, 3),
    (3, 2): (-2, 3),
    (3, 3): (1, 3),
}


def _cor22_sides(inst: ClaimInstance):
    p, m, a = inst.p, inst.m, inst.get("a")
    yield count_solutions_exact(a, m, 7, p) - count_solutions_exact(7 - a, m, 7, p), 1, (), ""
    yield *_N7_DIFFS[(m, a)], ()


def _lem23i_eval(inst: ClaimInstance):
    p, r, n, k = inst.p, inst.r, inst.n, inst.m
    # at r = 1 the side with index >= n/2 is read mod p**2; at 2k = n the one sum both ways
    s_k, s_n_minus_k = yield [(s_spec(n, k, p, r), 2 if r == 1 and 2 * k >= n else r),
                              (s_spec(n, n - k, p, r), 2 if r == 1 and 2 * k < n else r)]
    return s_k % p**r, (-1) ** n * s_n_minus_k % p**r, p**r, ""


def _lem23ii_eval(inst: ClaimInstance):
    # a generator, not a rule claim: its solution counts are computed after the prime's plan is priced
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


def _u_sides(inst: ClaimInstance):
    p = inst.p
    alphas = inst.get("alphas")
    b = inst.get("b", 1)
    n = len(alphas)
    w = sum(alphas)
    # both branches read one table per (b, p), built once at p**3: U is an integer
    # combination of power sums, so its value mod p**3 reduces to the one mod p**2
    lhs = ("unordered", p, 3, (b, tuple(alphas)))
    if _odd(w):
        yield lhs, 2, (w + 2,), "odd-weight branch"
        yield (-1) ** n * factorial(n - 1) * b * b * w * (w + 1), 2 * (w + 2), (w + 2,)
    else:
        yield lhs, 1, (w + 1,), "even-weight branch"
        yield (-1) ** (n - 1) * factorial(n - 1) * b * w, w + 1, (w + 1,)


def _cor32_sides(inst: ClaimInstance):
    p, n, alpha = inst.p, inst.n, inst.get("alpha")
    w = n * alpha
    if _odd(w):
        yield ("mhs", p, 3, (p - 1, (alpha,) * n)), 2, (w + 2,), "odd-weight branch"
        yield (-1) ** n * alpha * (w + 1), 2 * (w + 2), (w + 2,)
    else:
        yield ("mhs", p, 2, (p - 1, (alpha,) * n)), 1, (w + 1,), "even-weight branch"
        yield (-1) ** (n - 1) * alpha, w + 1, (w + 1,)


def _lem33_sides(inst: ClaimInstance):
    p, n = inst.p, inst.n
    if _odd(n):
        yield (r_spec(n, 1, p), 1), 0, (n,), ""
        yield -factorial(n - 1), 1, (n,)
    else:
        note = "even branch; cofactor -n*n!/(2(n+1)), the factor 2 confirmed against exact rationals"
        yield (r_spec(n, 1, p), 2), 1, (n + 1,), note
        yield -n * factorial(n), 2 * (n + 1), (n + 1,)


def _lem35_sides(inst: ClaimInstance):
    n = inst.n
    yield (r_spec(n, 2, inst.p), 1), 0, (n,), ""
    yield -(n + 1) * factorial(n - 1), 2, (n,)


def _cor36_sides(inst: ClaimInstance):
    n = inst.n
    yield (s_spec(n, 2, inst.p), 1), 0, (n,), ""
    yield (n - 1) * factorial(n - 1), 2, (n,)


def _lem37_sides(inst: ClaimInstance):
    p, n = inst.p, inst.n
    if n == 3:
        # three bounded parts cannot reach 3p, so the decomposition
        # R = S + C(n+1,2) S(1) + n S(2) collapses to -6 B(p-3)
        yield (r_spec(3, 3, p), 1), 0, (3,), "degenerate n=3 value; general cofactor does not apply"
        yield -6, 1, (3,)
    else:
        yield (r_spec(n, 3, p), 1), 0, (n, *range(3, n - 5, 2)), ""
        yield -(n + 1) * (n + 2) * factorial(n - 1), 6, (n,)
        yield from _triple(n)


def _cor38_sides(inst: ClaimInstance):
    p, n = inst.p, inst.n
    if n == 3:
        # three parts below p cannot sum to 3p: the bounded family is empty
        yield (s_spec(3, 3, p), 1), 0, (), "degenerate n=3 value; the bounded sum is empty"
    else:
        yield (s_spec(n, 3, p), 1), 0, (n, *range(3, n - 5, 2)), ""
        yield -(n - 1) * (n - 2) * factorial(n - 1), 6, (n,)
        yield from _triple(n)


def _prop41_sides(inst: ClaimInstance):
    p, r = inst.p, inst.r
    yield (s_spec(7, 1, p, r + 1), r + 1), r, (7,), ""
    yield -factorial(7), 10, (7,)


def _eq41_eval(inst: ClaimInstance):
    p, r, m = inst.p, inst.r, inst.m
    free, *bounded = yield [(r_spec(7, m, p, r), r), *((s_spec(7, a, p, r), r + 1) for a in range(1, 7))]
    rhs = sum(comb(m + 6 - a, 6) * s for a, s in enumerate(bounded, start=1))
    return free, rhs % p**r, p**r, ""


def _eq51_sides(inst: ClaimInstance):
    d, m = inst.n, inst.m
    yield (s_spec(d, m, inst.p), 1), 0, (d,), ""
    num, den = (-1, 1) if m == 1 else (d - 1, 2)
    yield num * factorial(d - 1), den, (d,)


def _eq52_sides(inst: ClaimInstance):
    d, m = inst.n, inst.m
    yield (r_spec(d, m, inst.p), 1), 0, (d,), ""
    num, den = (-1, 1) if m == 1 else (-(d + 1), 2)
    yield num * factorial(d - 1), den, (d,)


def _conj8_sides(inst: ClaimInstance):
    m = inst.m
    yield (r_spec(8, m, inst.p), 1), 0, (3, 5), ""
    yield 112 * m * (m * m + 16) * (m * m - 1), 5, (3, 5)


def _conj9_sides(inst: ClaimInstance):
    m = inst.m
    yield (r_spec(9, m, inst.p), 1), 0, (3, 9), ""
    yield -factorial(8) * comb(m + 2, 5), 18, (3, 3, 3)
    yield -8 * m * (m**6 + 126 * m**4 + 1869 * m**2 + 3044), 1, (9,)


def _conj10_sides(inst: ClaimInstance):
    m = inst.m
    yield (r_spec(10, m, inst.p), 1), 0, (3, 5, 7), ""
    num = -24 * m * (m**4 + 71 * m**2 + 540) * (m * m - 1)
    yield num * 50, 35, (3, 7)
    yield num * 21, 35, (5, 5)


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
        partial(_bernoulli_rule, _eq11_sides),
    ),
    Claim(
        "THM-1.1-i",
        "sum over l1+..+l7 = m*p of unit reciprocals == -(504m+210m^3+6m^5)*B(p-7)  (mod p)",
        (("p", primes_between(11, 47)), ("m", (1, 2, 3))),
        (_p_above(7), *_MULTIPLIER),
        partial(_bernoulli_rule, _thm1i_sides),
    ),
    Claim(
        "THM-1.1-ii",
        "sum over l1+..+l7 = m*p^r of unit reciprocals == -(7!/10)*m*p^(r-1)*B(p-7)  (mod p^r), r >= 2",
        (("p", (11, 13)), ("r", (2, 3)), ("m", (1, 2))),
        (_p_above(7), _at_least("r", 2), *_MULTIPLIER),
        partial(_bernoulli_rule, _thm1ii_sides),
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
        partial(_bernoulli_rule, _lem21_sides),
    ),
    Claim(
        "COR-2.2",
        "C(a,m,7,p) - C(7-a,m,7,p) == tabulated multiple of p  (mod p^2), m in {2,3}, a in {1,2,3}",
        (("p", (11, 13, 17)), ("m", (2, 3)), ("n", (7,)), ("a", (1, 2, 3))),
        (_p_above(7),
         ((lambda i: (i.m, i.get("a")) not in _N7_DIFFS), "tabulated only for m in {2,3}, a in {1,2,3}")),
        partial(_bernoulli_rule, _cor22_sides),
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
        partial(_bernoulli_rule, _u_sides),
    ),
    Claim(
        "COR-3.2",
        "H({a}^n), w = n*a: odd w: (-1)^n a(w+1)/(2(w+2)) B(p-w-2) p^2 (mod p^3); "
        "even w: (-1)^(n-1) a/(w+1) B(p-w-1) p (mod p^2)",
        (("p", _P_SMALL), ("alpha", range(1, 9)), ("n", lambda pt: range(1, 8 // pt["alpha"] + 1))),
        (((lambda i: i.get("alpha") < 1 or i.n is None or i.n < 1), "requires alpha >= 1 and n >= 1"),
         _weight_at_most_p_minus_3(lambda i: i.n * i.get("alpha"))),
        partial(_bernoulli_rule, _cor32_sides),
    ),
    Claim(
        "LEM-3.3",
        "R(n,1,p): odd n: -(n-1)! B(p-n) (mod p); even n: -n*n!/(2(n+1)) B(p-n-1) p (mod p^2)",
        (("p", _P_SMALL), ("n", range(2, 10))),
        (_at_least("n", 2, "requires n > 1"), _p_above_n(1)),
        partial(_bernoulli_rule, _lem33_sides),
    ),
    Claim(
        "LEM-3.4",
        "U_b(a_1..a_n), w = sum a_i: odd w: (-1)^n (n-1)! b^2 w(w+1)/(2(w+2)) B(p-w-2) p^2 (mod p^3); "
        "even w: (-1)^(n-1) (n-1)! b w/(w+1) B(p-w-1) p (mod p^2)",
        (("p", _P_SMALL), ("b", (1, 2, 3)), *_UNORDERED_DIMS),
        _unordered_hypotheses(),
        partial(_bernoulli_rule, _u_sides),
    ),
    Claim(
        "LEM-3.5",
        "R(n,2,p) == -((n+1)/2) (n-1)! B(p-n)  (mod p), odd n",
        (("p", _P_SMALL), ("n", (3, 5, 7, 9))),
        (_odd_at_least(3), _p_above_n(1, "requires p > n+1 (added hypothesis)")),
        partial(_bernoulli_rule, _lem35_sides),
    ),
    Claim(
        "COR-3.6",
        "S(n,2,p) == ((n-1)/2) (n-1)! B(p-n)  (mod p), odd n >= 5",
        (("p", _P_SMALL), ("n", (5, 7, 9))),
        (_odd_at_least(5), _p_above_n()),
        partial(_bernoulli_rule, _cor36_sides),
    ),
    Claim(
        "LEM-3.7",
        "R(n,3,p) == -((n+1)(n+2)/6) (n-1)! B(p-n) - (n!/6) T(n,p)  (mod p) for odd n >= 5, "
        "T = sum_{a+b+c=(n-3)/2} prod B(p-2i-1)/(2i+1); R(3,3,p) == -6 B(p-3)",
        (("p", _P_SMALL), ("n", (3, 5, 7, 9))),
        _TRIPLE_HYPOTHESES,
        partial(_bernoulli_rule, _lem37_sides),
    ),
    Claim(
        "COR-3.8",
        "S(n,3,p) == -((n-1)(n-2)/6) (n-1)! B(p-n) - (n!/6) T(n,p)  (mod p) for odd n >= 5; "
        "S(3,3,p) == 0 (empty family)",
        (("p", _P_SMALL), ("n", (3, 5, 7, 9))),
        _TRIPLE_HYPOTHESES,
        partial(_bernoulli_rule, _cor38_sides),
    ),
    Claim(
        "PROP-4.1",
        "S(7,1,p^(r+1)) == -(7!/10) B(p-7) p^r  (mod p^(r+1))",
        (("p", (11, 13)), ("r", (1, 2))),
        (_p_above(7), _at_least("r", 1)),
        partial(_bernoulli_rule, _prop41_sides),
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
        partial(_bernoulli_rule, _eq51_sides),
    ),
    Claim(
        "EQ-5.2",
        "R(d,m,p) == c'_{d,m} (d-1)! B(p-d)  (mod p), c'_{d,1} = -1, c'_{d,2} = -(d+1)/2",
        (("p", _P_SMALL), ("n", (3, 5, 7, 9)), ("m", (1, 2))),
        _ODD_DEPTH_HYPOTHESES,
        partial(_bernoulli_rule, _eq52_sides),
    ),
    Claim(
        "CONJ-5.1-w8",
        "R(8,m,p) == (112/5) m (m^2+16)(m^2-1) B(p-3) B(p-5)  (mod p)",
        (("p", _P_SMALL), ("m", (1, 2, 3, 4))),
        _CONJ_HYPOTHESES,
        partial(_bernoulli_rule, _conj8_sides),
        conjecture=True,
    ),
    Claim(
        "CONJ-5.1-w9",
        "R(9,m,p) == -(8!/18) binom(m+2,5) B(p-3)^3 - 8m(m^6+126m^4+1869m^2+3044) B(p-9)  (mod p)",
        (("p", _P_SMALL), ("m", (1, 2, 3, 4))),
        _CONJ_HYPOTHESES,
        partial(_bernoulli_rule, _conj9_sides),
        conjecture=True,
    ),
    Claim(
        "CONJ-5.1-w10",
        "R(10,m,p) == -(24/35) m (m^4+71m^2+540)(m^2-1) (50 B(p-3) B(p-7) + 21 B(p-5)^2)  (mod p)",
        (("p", _P_SMALL), ("m", (1, 2, 3, 4))),
        _CONJ_HYPOTHESES,
        partial(_bernoulli_rule, _conj10_sides),
        conjecture=True,
    ),
)}


# ---------------------------------------------------------------------------
# evaluation driver

_EVAL_ERRORS = (NonUnitError, PoleError, ValueError, KeyError, TypeError)


def _prepare(instance: ClaimInstance, claims: dict, primes: dict[int, bool]
             ) -> tuple[Claim, Outcome | Evaluation, tuple[Term, ...]]:
    """The instance's claim, and either its final outcome (a skip or an
    error) and no terms, or its evaluation paused at the terms it yielded,
    and those terms.

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
            unknown = dict.fromkeys(name for name, _ in instance.params() if name not in names)
            raise ValueError(f"{claim_id} does not take {', '.join(unknown)}")
        if len(set(given)) < len(given) or not _FIELD_NAMES.isdisjoint(given):
            # ClaimInstance.get reads only the first match, a field before any extra: the other value goes unread
            k = next(k for k in given if k in _FIELD_NAMES or given.count(k) > 1)
            raise ValueError(f"extra parameter {k!r} " + ("names a field" if k in _FIELD_NAMES else "is given twice"))
        try:
            prime = primes[p]
        except (KeyError, TypeError):  # a new p, or one that is_prime rejects as malformed
            prime = primes[p] = is_prime(p)
        reason = claim.violated(instance) if prime else f"{p} is not prime"
    except (KeyError, TypeError, ValueError) as exc:
        return claim, ("error", None, None, None, f"bad parameters: {exc}"), ()
    if reason is not None:
        return claim, ("skip", None, None, None, reason), ()
    try:
        run = claim.evaluate(instance)
        return claim, run, tuple(next(run))
    except _EVAL_ERRORS as exc:
        return claim, _error(exc), ()


def _evaluate(claim: Claim, run: Evaluation, terms: tuple[Term, ...], ctx: EvalContext) -> Outcome:
    """Send the paused evaluation its terms' values and judge what it returns."""
    try:
        run.send(tuple(map(ctx.value, terms)))
    except StopIteration as stop:
        return _outcome(claim, stop.value)
    except _EVAL_ERRORS as exc:
        return _error(exc)
    run.close()
    raise RuntimeError(f"{claim.claim_id} yielded a second time; a claim yields its terms once")


def _outcome(claim: Claim, sides: Sides) -> Outcome:
    lhs, rhs, modulus, note = sides
    if lhs == rhs:
        return "pass", lhs, rhs, modulus, note
    tag = "conjecture mismatch" if claim.conjecture else "congruence fails"
    note = f"{tag}: lhs {lhs} != rhs {rhs} (mod {modulus})" + (f"; {note}" if note else "")
    return "finding" if claim.conjecture else "fail", lhs, rhs, modulus, note


def _error(exc: Exception) -> Outcome:
    return "error", None, None, None, f"{type(exc).__name__}: {exc}"


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
    cache rows (a pool task is sent only its prime's): start every
    instance that passes its hypotheses, plan all the terms yielded in one
    context, then finish the instances in order. Module-level so that a
    pool can run it. Returns plain data: each instance's verdict (status,
    lhs, rhs, modulus, note), the context's counters (evaluations, cache
    hits, ladder builds) and its new cache rows."""
    instances, cache_rows = task
    claims: dict = {}
    primes: dict[int, bool] = {}
    prepared = [_prepare(instance, claims, primes) for instance in instances]
    ctx = EvalContext(cache_rows, (term for _, _, terms in prepared for term in terms))
    outcomes = [_evaluate(claim, run, terms, ctx) if isinstance(run, Generator) else run
                for claim, run, terms in prepared]
    return outcomes, (ctx.comp_sum_evals, ctx.cache_hits, ctx.ladder_builds), ctx.new_rows


def verify_instances(
    instances: Iterable[ClaimInstance],
    ctx: EvalContext | None = None,
    jobs: int = 1,
    keep_rows: bool = True,
) -> list[ClaimReport]:
    """Verify instances prime by prime, in process or over a pool of
    min(jobs, primes, CPUs) processes with one task per prime.

    The instances are sorted once, on entry, by ClaimInstance.sort_key; each
    prime's task gets its instances in that order, and they share one
    context. This is the one place that makes a ClaimReport: as each prime's
    verdicts arrive, in ascending prime order, its counters and new cache
    rows go into ctx (rows only into a caller's ctx, and only with
    keep_rows, which a caller that appends no cache turns off) and its
    reports are made from its own instances, each anchor read from CLAIMS,
    a pass row holding one int for both sides and equal moduli one int.
    The sorted instances then take their prime's next report, so nothing
    depends on the number of workers.
    """
    kept = ctx is not None and keep_rows
    ctx = EvalContext() if ctx is None else ctx
    instances = sorted(instances, key=ClaimInstance.sort_key)
    groups: dict[int, list[ClaimInstance]] = {}
    for inst in instances:
        groups.setdefault(inst.p, []).append(inst)
    primes = sorted(groups, key=lambda p: (isinstance(p, tuple), p))
    workers = min(jobs, len(primes), os.cpu_count() or 1)
    done, moduli = {}, {}  # each prime's reports, and one int per distinct modulus
    if workers <= 1:
        # each cache key holds its prime, so in process every task reads the caller's rows in place
        pool, run, cache = nullcontext(), map, dict.fromkeys(primes, ctx._cache)
    else:
        cache = {}
        for key, value in ctx._cache.items():
            cache.setdefault(key[1], {})[key] = value
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)  # a pool task is sent only its prime's rows
        run = pool.map
    with pool:
        for p, (outcomes, (evals, hits, builds), new_rows) in zip(
                primes, run(_verify_prime, [(groups[p], cache.get(p, {})) for p in primes])):
            ctx.comp_sum_evals += evals
            ctx.cache_hits += hits
            ctx.ladder_builds += builds
            if kept:
                ctx.new_rows.update(new_rows)
            done[p] = iter([ClaimReport(inst, status, lhs, lhs if status == "pass" else rhs,
                                        moduli.setdefault(modulus, modulus), note, CLAIMS[inst.claim_id].anchor)
                            for inst, (status, lhs, rhs, modulus, note) in zip(groups[p], outcomes)])
    return [next(done[inst.p]) for inst in instances]


def sweep(
    claim_ids: Iterable[str],
    grid: GridSpec = GridSpec(),
    ctx: EvalContext | None = None,
    jobs: int = 1,
    keep_rows: bool = True,
) -> list[ClaimReport]:
    """Verify the claims over their (possibly overridden) grids."""
    instances: list[ClaimInstance] = []
    for cid in claim_ids:
        if cid not in CLAIMS:
            raise KeyError(f"unknown claim id {cid!r}")
        instances.extend(CLAIMS[cid].grid(grid))
    return verify_instances(instances, ctx, jobs, keep_rows)


def instance_from_params(claim_id: str, params: Mapping[str, object]) -> ClaimInstance:
    """Build an instance from a flat parameter mapping (grid points, CLI --instance)."""
    if "p" not in params:
        raise ValueError("instance needs at least p=<prime>")
    core = {k: params[k] for k in _INT_FIELDS if k in params}
    extra = tuple(sorted((k, v) for k, v in params.items() if k not in _INT_FIELDS))
    return ClaimInstance(claim_id, extra=extra, **core)
