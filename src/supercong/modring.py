"""Exact arithmetic modulo prime powers p**r.

Residues are plain ints, canonical in [0, p**r); PrimePowerModulus names
the ring Z / p**r and validates it (p prime, r >= 1), and prime_power
builds it once per (p, r) for callers that need it per evaluation.
unit_inverses tabulates the inverses of the units' parts mod p**e.
guard_table refuses a table too large to finish, and figure writes a
number for its message. No memo here holds a value of a prime's sums:
those live in the verifier's EvalContext for that prime. Everything else
is an immutable value or a pure function.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import log10
from typing import NamedTuple

__all__ = ["NonUnitError", "ScaleGuardError", "PrimePowerModulus", "prime_power", "is_prime",
           "rational_to_residue", "unit_inverses", "guard_table", "figure"]

# guard_table refuses a per-prime table priced above this many element operations. At
# p near 10**6 a step of the Bernoulli walk costs 0.1-0.2 us, an index of the chain
# sweep 0.4-0.8 us per level of depth plus one, and a unit of an unordered-sum table
# 0.15-0.4 us per weight plus one: the limit is at most 8 s of work. B_(p-3) at
# p = 10000019 (5e6 steps) takes 0.6-0.8 s in 0.1 MB
_MAX_TABLE_PRICE = 10**7


class NonUnitError(ArithmeticError):
    """Inversion was attempted on a value divisible by the prime."""


class ScaleGuardError(ValueError):
    """A request refused before any work because it is too large to finish:
    a per-prime table, digit weights or a solution count priced above
    _MAX_TABLE_PRICE (guard_table), a composition-sum plan whose costliest
    ladder is priced above its limit, or a Kronecker oracle operand that is
    too wide (compsum)."""


# Witness set that makes Miller-Rabin deterministic for all n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**64 (no probabilistic accept)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    if n >= 1 << 64:
        raise ValueError("deterministic primality test only covers n < 2**64")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _ModulusFields(NamedTuple):
    p: int
    r: int
    modulus: int


class PrimePowerModulus(_ModulusFields):
    """A prime p and exponent r >= 1 defining the ring Z / p**r, with
    modulus = p**r stored once. An immutable named tuple, validated on
    construction; a third field keeps it unequal to a plain (p, r) pair."""

    __slots__ = ()

    def __new__(cls, p: int, r: int) -> PrimePowerModulus:
        if r < 1:
            raise ValueError(f"exponent must be >= 1, got {r}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p, r, p**r)

    def __getnewargs__(self) -> tuple[int, int]:
        return self.p, self.r

    def __repr__(self) -> str:
        return f"PrimePowerModulus({self.p}**{self.r})"


@lru_cache(maxsize=None, typed=True)
def prime_power(p: int, r: int) -> PrimePowerModulus:
    """PrimePowerModulus(p, r), validated once per (p, r); a bad pair raises every time."""
    return PrimePowerModulus(p, r)


def rational_to_residue(q: Fraction | int, M: PrimePowerModulus) -> int:
    """Image of an exact rational in Z / p**r, canonical in [0, p**r).

    The reduced denominator must be coprime to p; this map is a ring
    homomorphism on the p-integral rationals. Only ints and Fractions are
    exact, so anything else (a float, a string) raises TypeError.
    """
    if not isinstance(q, int):
        from fractions import Fraction

        if not isinstance(q, Fraction):
            raise TypeError(f"expected an int or a Fraction, got {type(q).__name__}")
    numerator, denominator = q.numerator, q.denominator  # a Fraction is kept reduced
    if denominator % M.p == 0:
        raise NonUnitError(f"denominator of {q} is divisible by {M.p}")
    return numerator * pow(denominator, -1, M.modulus) % M.modulus


def unit_inverses(p: int, N: int, mod: int) -> list[int]:
    """[0, 1/u_1, ..., 1/u_N] mod `mod`, a power of p, where u_j = j / p**v_p(j)
    is j's unit part. One pow inverts the product of all units up to N, and
    two products per unit unwind it (batch inversion); an index p*i reads
    the entry at i."""
    units = [j for j in range(1, N + 1) if j % p]
    products = list(accumulate(units, lambda a, b: a * b % mod, initial=1))
    inverse, fresh = pow(products[-1], -1, mod), []  # fresh: the units' inverses, the last first
    for unit, product in zip(units[::-1], products[-2::-1]):
        fresh.append(inverse * product % mod)
        inverse = inverse * unit % mod
    inverses = [0]
    for j in range(1, N + 1):
        inverses.append(fresh.pop() if j % p else inverses[j // p])
    return inverses


def figure(x: int, spec: str = "") -> str:
    """format(x, spec) for a message, or x's digit count from 10**100 on: a
    huge int is never written whole, and past 4,300 digits Python refuses to."""
    if abs(x) < 10**100:
        return format(x, spec)
    digits = int(log10(abs(x))) + 1  # log10 may round across a power of 10
    digits += (abs(x) >= 10**digits) - (abs(x) < 10 ** (digits - 1))
    return f"<{digits} digits>"


def guard_table(table: str, price: int, *args: object) -> None:
    """Refuse, with ScaleGuardError naming it, a per-prime table priced above
    _MAX_TABLE_PRICE element operations; call it before the table is built.
    The name is table.format(*args), each int argument written by figure,
    and is formatted only when the table is refused."""
    if price > _MAX_TABLE_PRICE:
        name = table.format(*(figure(a) if isinstance(a, int) else a for a in args))
        raise ScaleGuardError(f"{name} is priced {figure(price, '.3g')} element operations > {_MAX_TABLE_PRICE:.3g}")
