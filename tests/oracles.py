"""Test-only references: one independent oracle per quantity that the
package evaluates by a faster route.

- comp_sum_bruteforce: composition sums by recursive enumeration (the
  package's scale oracle, comp_sum_kronecker, stays in compsum because
  `supercong oracle` runs it);
- gamma_n: the rational gamma_n(a) of LEM-2.1, which the claim writes out
  as an integer numerator and denominator;
- mod_p_table: B_0 .. B_{p-3} mod p by the O(p**2) recurrence;
- power_sum_residue: B_k mod p by the sieved power sum sum_{j<p} j**k
  mod p**2, at the package's sizes;
- unordered_sum_bruteforce: distinct-index unordered sums by nested loops.

None of them shares code with the evaluator it checks, beyond validating
its arguments the same way. Each returns a plain int canonical mod p**e,
except gamma_n, a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, isqrt
from operator import mul
from typing import Sequence

from supercong.compsum import CompSumSpec
from supercong.mhs import _parts
from supercong.modring import PrimePowerModulus, guard_table

# the largest target comp_sum_bruteforce enumerates
BRUTEFORCE_TARGET_CAP = 60


def comp_sum_bruteforce(spec: CompSumSpec, modulus: PrimePowerModulus | None = None) -> int:
    """comp_sum by recursive enumeration by first part, for targets up to
    BRUTEFORCE_TARGET_CAP (ValueError above it).

    Shares suffix subtrees through a memo table, never touching the
    ladder or the series.
    """
    M = modulus if modulus is not None else PrimePowerModulus(spec.p, spec.r)
    if M.p != spec.p:
        raise ValueError(f"evaluation modulus prime {M.p} != spec prime {spec.p}")
    N = spec.target
    if N > BRUTEFORCE_TARGET_CAP:
        raise ValueError(f"brute force capped at target {BRUTEFORCE_TARGET_CAP}, got {N}")
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


def gamma_n(a: int, n: int) -> Fraction:
    """(-1)**(a-1) / (a * C(n-1, a)), for 1 <= a <= n-1."""
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must be in 1..{n - 1}, got {a}")
    return Fraction((-1) ** (a - 1), a * comb(n - 1, a))


@lru_cache(maxsize=None)  # the power sum's tests and the walk's read every table below 500
def mod_p_table(p: int) -> tuple[int, ...]:
    """B_0 .. B_{p-3} mod p by the recurrence sum_{j<=n} C(n+1, j) B_j = 0."""
    top = max(p - 3, 0)
    inv = [0] + [pow(j, -1, p) for j in range(1, p)]
    table = [1 % p]
    for n in range(1, top + 1):
        acc = 0
        c = 1  # C(n+1, j), updated in place
        for j in range(n):
            acc = (acc + c * table[j]) % p
            c = c * (n + 1 - j) % p * inv[j + 1] % p
        table.append(-acc * inv[n + 1] % p)
    return tuple(table)


class PowerSumError(ArithmeticError):
    """p does not divide the power sum, so it yields no B_k residue."""


def power_sum_residue(k: int, p: int) -> int:
    """B_k mod p as (sum_{j<p} j**k mod p**2) / p, valid for even 2 <= k <= p - 3.

    The sum pairs j with p - j: for even k, (p - j)**k == j**k - k*p*j**(k-1)
    (mod p**2), so the pair is j**(k-1) * (2*j - k*p) and the sum runs over
    1 <= j < (p + 1)/2 (none at p = 2). The powers j**(k-1) are filled
    multiplicatively from a smallest-prime-factor sieve built here: a modular
    power at each prime, one product at each composite. The pairing needs k
    even, so an odd k raises ValueError. Raises PowerSumError when p does not
    divide the sum (for instance at k = p - 1, where the sum is -1 mod p):
    that sum carries no B_k. One of more than a few seconds of terms
    raises ScaleGuardError before the sieve is built.
    """
    if k % 2:
        raise ValueError(f"the paired power sum needs an even index, got {k}")
    q, half = p * p, (p - 1) // 2
    guard_table("the power sum of B_{} at p = {}", half, k, p)
    # factor[j]: the smallest prime factor of a composite j, 0 at 0, 1 and the primes;
    # the smaller factors are written last
    factor = [0] * (half + 1)
    for i in range(isqrt(half), 1, -1):
        factor[i * i :: i] = [i] * ((half - i * i) // i + 1)
    kept = half // 2  # a composite j's factors lie below j/2: the powers above are summed as made
    powers = [0, 1][: kept + 1]  # powers[j] = j**(k-1) mod p**2
    for j in range(2, kept + 1):
        a = factor[j]
        powers.append(powers[a] * powers[j // a] % q if a else pow(j, k - 1, q))
    total = sum(map(mul, powers, range(-k * p, 2 * kept + 1 - k * p, 2)))
    for j in range(kept + 1, half + 1):
        a = factor[j]
        total += (powers[a] * powers[j // a] % q if a else pow(j, k - 1, q)) * (2 * j - k * p)
    total %= q
    if total % p:
        raise PowerSumError(f"p = {p} does not divide sum_(j<p) j**{k} = {total} mod p**2")
    return total // p


def unordered_sum_bruteforce(b: int, alphas: Sequence[int], M: PrimePowerModulus) -> int:
    """unordered_sum by direct nested loops, for depth <= 3."""
    parts = _parts(alphas)
    n = len(parts)
    if n > 3:
        raise ValueError("brute-force unordered sums handle at most 3 indexes")
    if n == 0:
        return 1
    mod = M.modulus
    units = [l for l in range(1, b * M.p) if l % M.p]
    pows = [{l: pow(l, -e, mod) for l in units} for e in parts]
    acc = 0
    for tup in product(units, repeat=n):
        if len(set(tup)) != n:
            continue
        term = 1
        for i, l in enumerate(tup):
            term = term * pows[i][l] % mod
        acc = (acc + term) % mod
    return acc
