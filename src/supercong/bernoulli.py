"""Bernoulli numbers as exact rationals and as residues mod p.

Convention: the generating series t / (exp(t) - 1), hence B_1 = -1/2.
The other common convention flips that sign, and every congruence in this
package depends on the choice, so it is fixed here once and loudly.

B_k mod p, for even 2 <= k <= p - 3, comes from Voronoi's congruence at
c = g, the least primitive root (Harvey, "A multimodular algorithm for
computing Bernoulli numbers", Math. Comp. 79, 2010, section 2):
sum_{0<x<p/2} x**(k-1) * W(x) == (g - g**(1-k)) * B_k / k (mod p), where
W(x) = 2*floor(g*x/p) - g + 1, and g**k != 1 as (p-1) does not divide k.
The sum walks g's orbit x_i = g**i, i < (p-1)/2, which holds one of x and
p - x for every unit x; as W(p - x) = -W(x) and (p - x)**(k-1) ==
-x**(k-1), each step adds (g**(k-1))**i * W(x_i), whichever half x_i lies
in. The walk reads its steps in blocks off one table of each power, in
memory that does not grow with p, and keeps nothing: the verifier asks
for each B_k mod p once per prime, as a term of its EvalContext, which
reads it from the cache or computes it here. A walk too long to finish is
refused (ScaleGuardError). bernoulli_exact checks it, and the tests hold
the power sum and the O(p**2) recurrence table as oracles. Indexes
k <= p - 3 are p-integral by von Staudt-Clausen.
"""

from __future__ import annotations

from itertools import repeat
from math import comb, isqrt
from operator import mul

from .modring import guard_table, prime_power

__all__ = ["PoleError", "EXACT_CAP", "bernoulli_exact", "bernoulli_mod_p"]

EXACT_CAP = 120

_exact: list[Fraction] = []  # B_0, B_1, ... as far as asked; fractions is imported on first use


class PoleError(ArithmeticError):
    """B_k has p in its denominator ((p-1) | k), so no mod-p image exists."""


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


def _primitive_root(p: int) -> int:
    """The least g with g**((p-1)/q) != 1 (mod p) at each prime q | p - 1."""
    n, exponents = p - 1, []
    for q in range(2, isqrt(n) + 1):
        if n % q == 0:
            exponents.append((p - 1) // q)
            while n % q == 0:
                n //= q
    exponents += [(p - 1) // n] if n > 1 else []
    g = 2
    while 1 in map(pow, repeat(g), exponents, repeat(p)):
        g += 1
    return g


_BLOCK = 1024  # the most steps a block takes; 4*sqrt(steps) balances a block's fixed cost and its tables


def _orbit_residue(k: int, p: int) -> int:
    """B_k mod p by the walk for even 2 <= k <= p - 3, an odd prime p; guard_table prices it first."""
    n = (p - 1) // 2
    guard_table("the power sum of B_{} at p = {}", n, k, p)
    g = _primitive_root(p)
    h, size, gp = pow(g, k - 1, p), min(n, 4 * isqrt(n), _BLOCK), g * p
    xs, ys = [1], [1]  # g**j and h**j mod p for j < size
    for _ in range(size - 1):
        xs.append(xs[-1] * g % p)
        ys.append(ys[-1] * h % p)
    total, x, y = 0, 1, 1  # the sum of y_i * floor(g*x_i/p), y_i = h**i; a block's first x_i, y_i
    for start in range(0, n, size):
        gx = g * x  # g*x_(start+j) == g*x * g**j (mod g*p): its floor by p is the weight's
        total += y * sum(map(mul, ys, [gx * a % gp // p for a in xs[: n - start]]))
        x, y = x * xs[-1] * g % p, y * ys[-1] * h % p
    # sum_i y_i = (h**n - 1)/(h - 1) = -2/(h - 1), as h**n = (g**n)**(k-1) = (-1)**(k-1)
    weighted = 2 * total + 2 * (g - 1) * pow(h - 1, -1, p)
    return k * weighted * pow(g - pow(g, 1 - k, p), -1, p) % p


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
        return _orbit_residue(k, p)
    raise ValueError(f"even index {k} above p-3 = {p - 3}: the walk serves only 2 <= k <= p-3")
