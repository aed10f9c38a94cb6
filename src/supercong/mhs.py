"""Multiple harmonic sums and distinct-index unordered sums mod p**r.

Every evaluator returns a plain int, canonical in [0, p**r). The nested
sums are evaluated directly as residues through a single O(N * depth)
chain sweep; exact rationals overflow fast at weight >= 7, so they appear
only in tests as oracles. Exponents are plain tuples of positive ints;
the empty tuple acts as the unit value 1, a convention used internally
by the recursions.

Unordered sums are power sums + collision recursion: the inverse power
sums P_k = sum l**(-k) over the units 0 < l < b*p, one O(b*p) table of
inverses per (b, p, r) and one multiply per unit and weight, are
combined with integer coefficients only (the quasi-shuffle relation), so
no precision is lost at any r, and a value mod p**r reduces to the value
mod any lower power. The tables belong to the caller, who passes them
in (unordered_sum's `tables`); nothing here keeps one between calls. The
verifier's EvalContext for a prime owns that prime's, so a sweep holds
one prime's tables at a time, and none once it is done. The chain sweep
over the rearrangements of the exponents is its oracle, with a
nested-loop brute force kept in the tests. A chain sweep or a table too large to finish is refused
(ScaleGuardError) before it starts.
"""

from __future__ import annotations

from typing import Sequence

from .modring import NonUnitError, PrimePowerModulus, guard_table, unit_inverses

__all__ = ["mhs", "mhs_restricted", "unordered_sum"]


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
    # an index costs one inverse and d products
    guard_table("the chain sweep of depth {} to N = {} at p = {}", N * (d + 1), d, N, p)
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


class _UnorderedTable:
    """Unordered sums at one (b, p, r): the inverse power sums P_k = sum of
    l**(-k) over units 0 < l < b*p, mod p**r, and the collision memo of U
    values on sorted exponent tuples. The inverses of the units are taken
    once, on construction (unit_inverses); the power sums grow by one
    multiply per unit and weight when a larger weight is asked."""

    def __init__(self, b: int, p: int, r: int):
        self.mod = mod = p**r
        self.inverses = unit_inverses(p, b * p - 1, mod)
        del self.inverses[::p]  # index 0 and the multiples of p
        self.powers = [1] * len(self.inverses)  # l**(-k) at the last k in sums
        self.sums = [len(self.inverses) % mod]
        self.memo: dict[tuple[int, ...], int] = {(): 1 % mod}

    def power_sum(self, k: int) -> int:
        sums, mod = self.sums, self.mod
        while len(sums) <= k:
            self.powers = [x * inv % mod for x, inv in zip(self.powers, self.inverses)]
            sums.append(sum(self.powers) % mod)
        return sums[k]

    def u(self, key: tuple[int, ...]) -> int:
        """U at a sorted exponent tuple, by the collision recursion."""
        memo = self.memo
        if key not in memo:
            first, rest = key[0], key[1:]
            acc = self.power_sum(first) * self.u(rest)
            for i in range(len(rest)):
                acc -= self.u(tuple(sorted(rest[:i] + (rest[i] + first,) + rest[i + 1:])))
            memo[key] = acc % self.mod
        return memo[key]


def unordered_sum(b: int, alphas: Sequence[int], M: PrimePowerModulus, tables: dict | None = None) -> int:
    """U_b(a_1, ..., a_n): sum over pairwise-distinct unit indexes
    0 < l_i < b*p of prod l_i**(-a_i), mod p**r.

    Power sums + collision recursion: letting l_1 range freely gives
    P_{a_1} * U(a_2, ..., a_n), which overcounts the terms where l_1
    equals one of the distinct l_2, ..., l_n (at most one of them), and
    such a collision merges two exponents:
    U(a_1, ..., a_n) = P_{a_1} U(a_2, ..., a_n) - sum_{i>=2} U(a_2, ..., a_i + a_1, ..., a_n),
    with U() = 1. The value is invariant under permutations of the
    exponents, so the recursion is memoized on sorted tuples, in one
    table per (b, p, r) kept in `tables`, shared by every call given that
    dict; a call given none builds a table of its own. A table priced
    above a few seconds of work, b*p units times the weight plus one, is
    refused (ScaleGuardError). The chain sweep (the multiplicity-weighted sum of
    mhs_restricted over the rearrangements) is its oracle.
    """
    parts = _parts(alphas)
    n = len(parts)
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    if n == 0:
        return 1
    if M.p <= n:
        raise ValueError(f"need p > depth (got p={M.p}, depth={n})")
    weight = sum(parts)
    guard_table("the unordered-sum table of U_{} at p = {} to weight {}", b * M.p * (weight + 1), b, M.p, weight)
    tables = {} if tables is None else tables
    if (b, M.p, M.r) not in tables:
        tables[b, M.p, M.r] = _UnorderedTable(b, M.p, M.r)
    return tables[b, M.p, M.r].u(tuple(sorted(parts)))
