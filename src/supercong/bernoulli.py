"""Bernoulli numbers as exact rationals and as residues mod p.

Convention: the generating series t / (exp(t) - 1), hence B_1 = -1/2.
The other common convention flips that sign, and every congruence in this
package depends on the choice, so it is fixed here once and loudly.

The evaluator is one power sum per index: for even 2 <= k <= p - 3,
sum_{j<p} j**k == p * B_k (mod p**2), because the other Faulhaber terms
carry p**2 once k + 1 < p. Pairing j with p - j halves the sum, since
(p - j)**k == j**k - k*p*j**(k-1) (mod p**2) for even k. The (p - 1)/2
powers j**(k-1) are multiplicative in j, so a sieve of smallest prime
factors fills them with a modular power at each prime below p/2 and one
product at each composite. Nothing is kept between calls: the verifier
asks for each B_k mod p once per prime, as a term of that prime's
EvalContext, which reads it from the cache or computes it here. A sieve
too large to finish is refused (ScaleGuardError). The exact-rational path
(bernoulli_exact, which also feeds rational constants and `compute
bernoulli`) checks it; the tests also hold the O(p**2) mod-p recurrence
table as a second oracle. Indexes k <= p - 3 are p-integral by von
Staudt-Clausen, which is exactly the range served.
"""

from __future__ import annotations

from math import comb, isqrt
from operator import mul

from .modring import guard_table, prime_power

__all__ = ["PoleError", "PowerSumError", "EXACT_CAP", "bernoulli_exact", "bernoulli_mod_p"]

EXACT_CAP = 120

_exact: list[Fraction] = []  # B_0, B_1, ... as far as asked; fractions is imported on first use


class PoleError(ArithmeticError):
    """B_k has p in its denominator ((p-1) | k), so no mod-p image exists."""


class PowerSumError(ArithmeticError):
    """p does not divide the power sum, so it yields no B_k residue."""


def bernoulli_exact(k: int) -> Fraction:
    """B_k for 0 <= k <= EXACT_CAP, via sum_{j<=n} C(n+1, j) B_j = 0."""
    if not 0 <= k <= EXACT_CAP:
        raise ValueError(f"exact Bernoulli index must be in 0..{EXACT_CAP}, got {k}")
    from fractions import Fraction

    if not _exact:
        _exact.append(Fraction(1))
    while len(_exact) <= k:
        n = len(_exact)
        acc = sum(comb(n + 1, j) * _exact[j] for j in range(n))
        _exact.append(Fraction(-acc, n + 1))
    return _exact[k]


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


def bernoulli_mod_p(k: int, p: int) -> int:
    """B_k mod p as a canonical int in [0, p), defined for k = 0, odd
    k >= 1, and even k <= p - 3.

    Raises PoleError when (p-1) | k for k > 0: those B_k have p in the
    denominator and carry no residue.
    """
    prime_power(p, 1)  # p must be prime
    if k < 0:
        raise ValueError(f"negative Bernoulli index {k}")
    if k > 0 and k % (p - 1) == 0:
        raise PoleError(f"(p-1) | {k}, so B_{k} has no image mod {p}")
    if k == 0:
        return 1
    if k == 1:
        return (p - 1) // 2  # -1/2 mod p; p = 2 raised PoleError above
    if k % 2 == 1:
        return 0
    if k <= p - 3:
        return power_sum_residue(k, p)
    raise ValueError(f"even index {k} above p-3 = {p - 3}: the power sum serves only 2 <= k <= p-3")
