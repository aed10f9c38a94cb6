"""Sums of reciprocal products over restricted compositions of m * p**r.

Every sum is one coefficient [x**N] f**n of the truncated unit series
f(x) = sum_{p not| l} x**l / l. The evaluator climbs a derivative ladder:
(f**k)' = k * f**(k-1) * f', and f' has 0/1 coefficients, so each row
f**k costs one O(N) pass of prefix sums followed by an exact p-adic
division by the index. Evaluation is planned: a caller declares the sums
it will ask for (Plan) and passes the plan to comp_sum. Each (prime,
part bound, precision) key of the plan gets one ladder, built once at
its largest part count and target. The ladder's rows are streamed, two
alive at a time, and only the planned coefficients are kept. A request
outside the plan, or made without one, is a plan of its own. Two
independent oracles check the ladder: binary powering with one
Kronecker-substitution big-integer multiply per step, and, at small
scale, a memoized recursive enumerator. All three return a plain
int, canonical in [0, p**e).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from math import comb
from operator import add, sub
from typing import Iterable, Iterator

from .modring import PrimePowerModulus, prime_power

__all__ = [
    "ScaleGuardError",
    "PrecisionError",
    "CompSumSpec",
    "s_spec",
    "r_spec",
    "comp_sum",
    "Plan",
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
    M = modulus if modulus is not None else prime_power(spec.p, spec.r)
    if M.p != spec.p:
        raise ValueError(f"evaluation modulus prime {M.p} != spec prime {spec.p}")
    return M


def _shifted(values: Iterable[int], d: int, N: int) -> Iterator[int]:
    """values[j - d] for j in 1..N, reading 0 at negative indices."""
    pad = min(d - 1, N)
    return chain(repeat(0, pad), islice(values, N - pad))


class _Ladder:
    """Rows f**1 .. f**K of one truncated unit series to x**N, kept mod p**(e + K*V).

    Row k's j-th coefficient comes from row k-1 divided by j, which costs
    up to V = max v_p(j) p-adic digits, so row k is exact modulo
    p**(e + (K-k)*V) and every row up to K is good to p**e. The rows are
    climbed once and streamed: only the row being built and the one below
    it are alive, so memory is O(N), not O(K*N).
    """

    def __init__(self, p: int, bound: int | None, e: int, K: int, N: int):
        self.p, self.bound, self.e, self.K, self.N = p, bound, e, K, N
        V, limit = 0, p
        while limit <= N:
            V, limit = V + 1, limit * p
        self.prec = e + K * V
        self.mod = mod = p**self.prec
        # inverses[j] inverts j's unit part; one pow for the product of all units
        units = [j for j in range(1, N + 1) if j % p]
        products = list(accumulate(units, lambda a, b: a * b % mod, initial=1))
        inverse = pow(products[-1], -1, mod)
        unit_inverses = [0] * len(units)
        for i in range(len(units) - 1, -1, -1):
            unit_inverses[i] = inverse * products[i] % mod
            inverse = inverse * units[i] % mod
        fresh = iter(unit_inverses)
        self.inverses = inverses = [0]
        for j in range(1, N + 1):
            inverses.append(next(fresh) if j % p else inverses[j // p])

    def fill(self, wanted: dict[tuple[int, int], int | None]) -> None:
        """Set wanted[(n, t)] to [x**t] f**n mod p**e for every requested (n, t)."""
        targets: dict[int, list[int]] = {}
        for n, t in wanted:
            if n > self.K or t > self.N:
                raise PrecisionError(
                    f"[x**{t}] f**{n} mod {self.p}**{self.e} is beyond the ladder's "
                    f"{self.p}**{self.prec} (built for {self.K} parts, targets up to {self.N})"
                )
            targets.setdefault(n, []).append(t)
        out = self.p**self.e
        for k, row in self.rows():
            for t in targets.get(k, ()):
                wanted[(k, t)] = row[t] % out

    def rows(self) -> Iterator[tuple[int, list[int]]]:
        """(k, f**k) for k = 1..K, each row built from the one before and then dropped."""
        row = [1] + [0] * self.N
        for k in range(1, self.K + 1):
            row = self._row(row, k)
            yield k, row

    def _row(self, prev: list[int], k: int) -> list[int]:
        """f**k from prev = f**(k-1): j * c_j = k * [x**(j-1)] prev * f'."""
        p, bound, mod, N = self.p, self.bound, self.mod, self.N
        prefix = list(accumulate(prev))
        by_class = prev[:p]  # by_class[i] = prev[i] + prev[i - p] + prev[i - 2p] + ...
        for i in range(p, len(prev), p):
            by_class += map(add, prev[i : i + p], by_class[i - p : i])
        # sums[j] = sum of prev[i] over j - bound < i < j with p not dividing j - i
        sums = map(sub, prefix, _shifted(by_class, p, N))
        if bound is not None and N >= bound:
            # minus the parts l >= bound: prev[i] over i <= j - bound off j's class
            sums = map(sub, sums, _shifted(map(sub, prefix, by_class), bound, N))
        sums = [0, *sums]
        del prefix, by_class
        inverses = self.inverses
        row = [k * s * c % mod for s, c in zip(sums, inverses)]
        for j in range(p, N + 1, p):
            numerator = k * sums[j] % mod
            v, power = 1, p
            while j % (power * p) == 0:
                v, power = v + 1, power * p
            if numerator % power:
                raise PrecisionError(
                    f"p**{v} does not divide the numerator of coefficient {j} in row {k} "
                    f"mod p**{self.prec} (p={p})"
                )
            row[j] = numerator // power * inverses[j] % mod
        return row


class Plan:
    """The composition sums a caller will ask for, as (spec, e) pairs, each
    to be evaluated mod p**e, grouped by ladder key.

    Each (prime, part bound, precision) key gets one ladder, sized to the
    largest part count and target requested of it. The first comp_sum
    call that reaches a key climbs its ladder and fills in every requested
    coefficient of that key. Values never depend on the plan; only the
    number of ladders built does.
    """

    def __init__(self, requests: Iterable[tuple[CompSumSpec, int]] = ()):
        self.ladders_built = 0
        # per key, the requested (n, N) coefficients, None until the key's ladder is climbed
        self.wanted: dict[tuple[int, int | None, int], dict[tuple[int, int], int | None]] = {}
        for spec, e in requests:
            if spec.target >= spec.n:
                self.wanted.setdefault((spec.p, spec.upper_bound, e), {})[(spec.n, spec.target)] = None


def comp_sum(spec: CompSumSpec, modulus: PrimePowerModulus | None = None, plan: Plan | None = None) -> int:
    """Sum of 1/(l_1 * ... * l_n) over the admissible compositions, as a
    canonical int in [0, p**e).

    Evaluated mod p**spec.r unless an explicit modulus (same prime, any
    exponent) is supplied. Empty sums return 0, not an error: they are
    legitimate corner cases (e.g. a single part equal to m * p**r). A
    request outside the plan, or made without one, is a plan of its own.
    """
    M = _eval_modulus(spec, modulus)
    n, N = spec.n, spec.target
    if N < n:
        return 0
    wanted = plan.wanted.get((spec.p, spec.upper_bound, M.r), {}) if plan is not None else {}
    if (n, N) not in wanted:
        wanted = {(n, N): None}
    if wanted[(n, N)] is None:
        if plan is not None:
            plan.ladders_built += 1
        K, top = max(k for k, _ in wanted), max(t for _, t in wanted)
        _Ladder(spec.p, spec.upper_bound, M.r, K, top).fill(wanted)
    return wanted[(n, N)]


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
