"""Multiple harmonic sums and distinct-index unordered sums mod p**r.

Every evaluator returns a plain int, canonical in [0, p**r). The nested
sums are evaluated directly as residues through a single O(N * depth)
chain sweep; exact rationals overflow fast at weight >= 7, so they appear
only in tests as oracles. Exponents are plain tuples of positive ints;
the empty tuple acts as the unit value 1, a convention used internally
by the recursions.

Unordered sums are power sums + collision recursion: the inverse power
sums P_k = sum l**(-k) over the units 0 < l < b*p, built in one
O(b*p*w) pass per (b, p, r, w), are combined with integer coefficients
only (the quasi-shuffle relation), so no precision is lost at any r. The
chain sweep over the rearrangements of the exponents and the nested-loop
brute force are its oracles.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

from .modring import NonUnitError, PrimePowerModulus

__all__ = [
    "mhs",
    "mhs_restricted",
    "unordered_sum",
    "unordered_sum_bruteforce",
]


def _parts(s: Sequence[int]) -> tuple[int, ...]:
    parts = tuple(s)
    if any(e < 1 for e in parts):
        raise ValueError(f"composition parts must be >= 1: {parts}")
    return parts


def _sweep(N: int, parts: tuple[int, ...], M: PrimePowerModulus) -> int:
    """The nested sum over indices prime to p: dp[j] accumulates the depth-(d-j) suffix sums."""
    mod = M.modulus
    p = M.p
    d = len(parts)
    if d == 0:
        return 1 % mod
    dp = [0] * d + [1]
    for k in range(1, N + 1):
        if k % p == 0:
            continue
        invk = pow(k, -1, mod)
        pw: dict[int, int] = {}
        for j in range(d):
            e = parts[j]
            if e not in pw:
                pw[e] = pow(invk, e, mod)
            dp[j] = (dp[j] + pw[e] * dp[j + 1]) % mod
    return dp[0]


def mhs(N: int, s: Sequence[int], M: PrimePowerModulus) -> int:
    """H_N(s): sum over N >= k_1 > ... > k_d > 0 of prod k_i**(-s_i), mod p**r.

    s is a tuple of positive exponents; the empty tuple gives 1. The sum
    is unrestricted, so every index up to N must be a unit: for N >= p and
    a non-empty s, NonUnitError is raised (use mhs_restricted).
    """
    if N < 0:
        raise ValueError(f"negative range bound {N}")
    parts = _parts(s)
    if parts and N >= M.p:
        raise NonUnitError(f"index {M.p} is divisible by {M.p}; use the restricted sum")
    return _sweep(N, parts, M)


def mhs_restricted(N: int, s: Sequence[int], M: PrimePowerModulus) -> int:
    """Same nested sum with every index restricted to non-multiples of p."""
    if N < 0:
        raise ValueError(f"negative range bound {N}")
    return _sweep(N, _parts(s), M)


@lru_cache(maxsize=None)
def _inverse_power_sums(b: int, p: int, r: int, w: int) -> tuple[int, ...]:
    """(P_0, ..., P_w) with P_k = sum of l**(-k) over units 0 < l < b*p, mod p**r.

    One pass: one inverse per index, then successive multiplies.
    """
    mod = p**r
    sums = [0] * (w + 1)
    for l in range(1, b * p):
        if l % p == 0:
            continue
        inv = pow(l, -1, mod)
        x = 1
        for k in range(w + 1):
            sums[k] += x
            x = x * inv % mod
    return tuple(s % mod for s in sums)


def unordered_sum(b: int, alphas: Sequence[int], M: PrimePowerModulus) -> int:
    """U_b(a_1, ..., a_n): sum over pairwise-distinct unit indexes
    0 < l_i < b*p of prod l_i**(-a_i), mod p**r.

    Power sums + collision recursion: letting l_1 range freely gives
    P_{a_1} * U(a_2, ..., a_n), which overcounts the terms where l_1
    equals one of the distinct l_2, ..., l_n (at most one of them), and
    such a collision merges two exponents:
    U(a_1, ..., a_n) = P_{a_1} U(a_2, ..., a_n) - sum_{i>=2} U(a_2, ..., a_i + a_1, ..., a_n),
    with U() = 1. The value is invariant under permutations of the
    exponents, so the recursion is memoized on sorted tuples. The chain
    sweep (the multiplicity-weighted sum of mhs_restricted over the
    rearrangements) and unordered_sum_bruteforce are its oracles.
    """
    parts = _parts(alphas)
    n = len(parts)
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if n == 0:
        return 1
    if M.p <= n:
        raise ValueError(f"need p > depth (got p={M.p}, depth={n})")
    mod = M.modulus
    power = _inverse_power_sums(b, M.p, M.r, sum(parts))
    memo: dict[tuple[int, ...], int] = {(): 1 % mod}

    def u(key: tuple[int, ...]) -> int:
        if key not in memo:
            first, rest = key[0], key[1:]
            acc = power[first] * u(rest)
            for i in range(len(rest)):
                acc -= u(tuple(sorted(rest[:i] + (rest[i] + first,) + rest[i + 1:])))
            memo[key] = acc % mod
        return memo[key]

    return u(tuple(sorted(parts)))


def unordered_sum_bruteforce(b: int, alphas: Sequence[int], M: PrimePowerModulus) -> int:
    """Direct nested-loop evaluation of the same sum, for depth <= 3."""
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
