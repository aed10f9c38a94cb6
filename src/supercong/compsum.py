"""Sums of reciprocal products over restricted compositions of m * p**r.

Every sum is one coefficient [x**N] f**n of the truncated unit series
f(x) = sum_{p not| l} x**l / l. The evaluator climbs a derivative ladder:
(f**k)' = k * f**(k-1) * f', and f' has 0/1 coefficients, so each row
f**k costs one O(N) pass of prefix sums followed by an exact p-adic
division by the index. One ladder per (prime, part bound, precision)
serves every power and every target it has grown to. Two independent
oracles check it: binary powering with one Kronecker-substitution
big-integer multiply per step, and, at small scale, a memoized recursive
enumerator. All three return a plain int, canonical in [0, p**e).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import add, sub

from .modring import PrimePowerModulus

__all__ = [
    "ScaleGuardError",
    "PrecisionError",
    "CompSumSpec",
    "s_spec",
    "r_spec",
    "comp_sum",
    "comp_sum_bruteforce",
    "comp_sum_kronecker",
    "count_solutions_exact",
    "gamma_n",
    "BRUTEFORCE_TARGET_CAP",
]

BRUTEFORCE_TARGET_CAP = 60


class ScaleGuardError(ValueError):
    """Brute-force enumeration refused: target too large."""


class PrecisionError(ArithmeticError):
    """An exact p-adic division failed: the working precision ran out."""


@dataclass(frozen=True)
class CompSumSpec:
    """One composition sum: n unit parts summing to target = m * p**r.

    With upper_bound = p**r each part stays strictly below p**r (the
    bounded family, nonempty only for m <= n - 1); with upper_bound = None
    parts are free (the family appearing at target m*p and in the lifted
    congruences). An explicit target decoupled from m * p**r is accepted
    for oracle-style evaluations at arbitrary sums.
    """

    n: int
    m: int
    p: int
    r: int = 1
    upper_bound: int | None = None
    target: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one part")
        if self.m < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.m}")
        if self.r < 1:
            raise ValueError(f"exponent must be >= 1, got {self.r}")
        if self.upper_bound is not None and self.upper_bound != self.p**self.r:
            raise ValueError("the only supported part bound is p**r")
        if self.target is None:
            object.__setattr__(self, "target", self.m * self.p**self.r)
        elif self.target < 1:
            raise ValueError(f"target must be >= 1, got {self.target}")


def s_spec(n: int, m: int, p: int, r: int = 1) -> CompSumSpec:
    """Spec with every part strictly below p**r."""
    return CompSumSpec(n=n, m=m, p=p, r=r, upper_bound=p**r)


def r_spec(n: int, m: int, p: int, r: int = 1) -> CompSumSpec:
    """Spec with unbounded parts."""
    return CompSumSpec(n=n, m=m, p=p, r=r)


def _eval_modulus(spec: CompSumSpec, modulus: PrimePowerModulus | None) -> PrimePowerModulus:
    M = modulus if modulus is not None else PrimePowerModulus(spec.p, spec.r)
    if M.p != spec.p:
        raise ValueError(f"evaluation modulus prime {M.p} != spec prime {spec.p}")
    return M


def _shifted(values: list[int], d: int, lo: int, hi: int) -> list[int]:
    """[values[j - d] for j in lo..hi], reading 0 at negative indices."""
    start = lo - d
    if start >= 0:
        return values[start : hi - d + 1]
    return [0] * min(-start, hi - lo + 1) + values[: max(0, hi - d + 1)]


class _Ladder:
    """Rows f**0 .. f**K of one truncated unit series, kept mod p**(e + K*V).

    Row k's j-th coefficient comes from row k-1 divided by j, which costs
    up to V = max v_p(j) p-adic digits, so row k is exact modulo
    p**(e + (K-k)*V) and every row up to K is good to p**e. Rows and
    targets grow in place while requests stay within K parts and below
    limit = p**(V+1); anything beyond needs a new ladder.
    """

    def __init__(self, p: int, bound: int | None, e: int, K: int, N: int):
        self.p, self.bound, self.e, self.K = p, bound, e, K
        V, self.limit = 0, p
        while self.limit <= N:
            V, self.limit = V + 1, self.limit * p
        self.prec = e + K * V
        self.mod = p**self.prec
        self.rows = [[1]]
        self.inverses = [0]  # per index j: inverse of j's unit part
        self.N = 0
        self.extend(N)

    def serves(self, n: int, N: int) -> bool:
        return n <= self.K and N < self.limit

    def coefficient(self, n: int, N: int) -> int:
        if not self.serves(n, N):
            raise PrecisionError(
                f"[x**{N}] f**{n} mod {self.p}**{self.e} needs more than the ladder's "
                f"{self.p}**{self.prec} (built for {self.K} parts, targets below {self.limit})"
            )
        self.extend(N)
        while len(self.rows) <= n:
            self.rows.append([0] + self._row(self.rows[-1], len(self.rows), 1, self.N))
        return self.rows[n][N] % self.p**self.e

    def extend(self, N: int) -> None:
        lo = self.N + 1
        if N < lo:
            return
        p, mod = self.p, self.mod
        # batch inversion: one pow for the product of the new units
        units = [j for j in range(lo, N + 1) if j % p]
        products = list(accumulate(units, lambda a, b: a * b % mod, initial=1))
        inverse = pow(products[-1], -1, mod)
        unit_inverses = [0] * len(units)
        for i in range(len(units) - 1, -1, -1):
            unit_inverses[i] = inverse * products[i] % mod
            inverse = inverse * units[i] % mod
        fresh = iter(unit_inverses)
        inverses = self.inverses
        for j in range(lo, N + 1):
            inverses.append(next(fresh) if j % p else inverses[j // p])
        self.rows[0] += [0] * (N + 1 - lo)
        for k in range(1, len(self.rows)):
            self.rows[k] += self._row(self.rows[k - 1], k, lo, N)
        self.N = N

    def _row(self, prev: list[int], k: int, lo: int, hi: int) -> list[int]:
        """Coefficients lo..hi of f**k from prev = f**(k-1): j * c_j = k * [x**(j-1)] prev * f'."""
        p, bound, mod = self.p, self.bound, self.mod
        prefix = list(accumulate(prev))
        by_class = prev[:p]  # by_class[i] = prev[i] + prev[i - p] + prev[i - 2p] + ...
        for i in range(p, len(prev), p):
            by_class += map(add, prev[i : i + p], by_class[i - p : i])
        # sums[j - lo] = sum of prev[i] over j - bound < i < j with p not dividing j - i
        sums = list(map(sub, prefix[lo - 1 : hi], _shifted(by_class, p, lo, hi)))
        if bound is not None and hi >= bound:
            outside = list(map(sub, prefix, by_class))
            sums = list(map(sub, sums, _shifted(outside, bound, lo, hi)))
        inverses = self.inverses
        row = [k * s * c % mod for s, c in zip(sums, inverses[lo : hi + 1])]
        for j in range(-(-lo // p) * p, hi + 1, p):
            numerator = k * sums[j - lo] % mod
            v, power = 1, p
            while j % (power * p) == 0:
                v, power = v + 1, power * p
            if numerator % power:
                raise PrecisionError(
                    f"p**{v} does not divide the numerator of coefficient {j} in row {k} "
                    f"mod p**{self.prec} (p={p})"
                )
            row[j - lo] = numerator // power * inverses[j] % mod
        return row


# A memo of ladders, so that a sweep's evaluations share them; values never depend
# on it. It holds one prime's ladders only: a sweep evaluates its instances prime
# by prime, and keeping every prime's ladders costs memory for no reuse.
_ladders: dict[tuple[int, int | None, int], _Ladder] = {}


def comp_sum(spec: CompSumSpec, modulus: PrimePowerModulus | None = None) -> int:
    """Sum of 1/(l_1 * ... * l_n) over the admissible compositions, as a
    canonical int in [0, p**e).

    Evaluated mod p**spec.r unless an explicit modulus (same prime, any
    exponent) is supplied. Empty sums return 0, not an error: they are
    legitimate corner cases (e.g. a single part equal to m * p**r).
    """
    M = _eval_modulus(spec, modulus)
    n, N = spec.n, spec.target
    if N < n:
        return 0
    key = (spec.p, spec.upper_bound, M.r)
    if _ladders and next(iter(_ladders))[0] != spec.p:
        _ladders.clear()
    ladder = _ladders.get(key)
    if ladder is None or not ladder.serves(n, N):
        K, top = (n, N) if ladder is None else (max(n, ladder.K), max(N, ladder.N))
        ladder = _ladders[key] = _Ladder(spec.p, spec.upper_bound, M.r, K, top)
    return ladder.coefficient(n, N)


def comp_sum_kronecker(spec: CompSumSpec, modulus: PrimePowerModulus | None = None) -> int:
    """Scale oracle for comp_sum: binary powering of the truncated unit series.

    Each truncated product is one big-integer multiply of two coefficient
    vectors packed into fixed-width slots (Kronecker substitution). The
    slots hold any exact coefficient sum, so no word-size guard is needed.
    """
    M = _eval_modulus(spec, modulus)
    N = spec.target
    if N < spec.n:
        return 0
    mod = M.modulus
    limit = N if spec.upper_bound is None else min(N, spec.upper_bound - 1)
    base = [pow(l, -1, mod) if l % spec.p else 0 for l in range(limit + 1)]
    width = ((N + 1) * (mod - 1) ** 2).bit_length() // 8 + 1  # bytes per slot
    mask = (1 << 8 * width * (N + 1)) - 1

    def pack(coeffs: list[int]) -> int:
        return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")

    def mul(a: int, b: int) -> int:
        raw = (a * b & mask).to_bytes(width * (N + 1), "little")
        return pack([int.from_bytes(raw[i : i + width], "little") % mod for i in range(0, len(raw), width)])

    cur, acc, k = pack(base), None, spec.n
    while k:
        if k & 1:
            acc = cur if acc is None else mul(acc, cur)
        k >>= 1
        if k:
            cur = mul(cur, cur)
    return acc >> 8 * width * N


def comp_sum_bruteforce(spec: CompSumSpec, modulus: PrimePowerModulus | None = None) -> int:
    """Independent oracle for comp_sum: recursive enumeration by first part.

    Shares suffix subtrees through a memo table, never touching the
    ladder or the series. Guarded to targets <= BRUTEFORCE_TARGET_CAP.
    """
    M = _eval_modulus(spec, modulus)
    N = spec.target
    if N > BRUTEFORCE_TARGET_CAP:
        raise ScaleGuardError(f"brute force capped at target {BRUTEFORCE_TARGET_CAP}, got {N}")
    mod = M.modulus
    p = spec.p
    limit = N if spec.upper_bound is None else min(N, spec.upper_bound - 1)
    memo: dict[tuple[int, int], int] = {}

    def walk(parts_left: int, remaining: int) -> int:
        if parts_left == 0:
            return 1 if remaining == 0 else 0
        key = (parts_left, remaining)
        if key not in memo:
            acc = 0
            for l in range(1, min(limit, remaining - parts_left + 1) + 1):
                if l % p:
                    acc += pow(l, -1, mod) * walk(parts_left - 1, remaining - l)
            memo[key] = acc % mod
        return memo[key]

    return walk(spec.n, N)


def count_solutions_exact(a: int, m: int, n: int, p: int) -> int:
    """Number of integer solutions of x_1 + ... + x_n = m*p - a, 0 <= x_i < p.

    Inclusion-exclusion over how many coordinates overflow p, with exact
    integer binomials.
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    target = m * p - a
    if target < 0:
        return 0
    total = 0
    for i in range(min(n, target // p) + 1):
        total += (-1) ** i * comb(n, i) * comb(n + target - i * p - 1, n - 1)
    return total


def gamma_n(a: int, n: int) -> Fraction:
    """(-1)**(a-1) / (a * C(n-1, a)), for 1 <= a <= n-1."""
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must be in 1..{n - 1}, got {a}")
    return Fraction((-1) ** (a - 1), a * comb(n - 1, a))
