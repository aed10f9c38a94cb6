"""Exact arithmetic modulo prime powers p**r.

Residues are plain ints, canonical in [0, p**r); PrimePowerModulus names
the ring Z / p**r and validates it (p prime, r >= 1), and prime_power
builds it once per (p, r) for callers that need it per evaluation, and
inverses_mod_p tabulates 1/i mod p for every unit i below p. Every
value is immutable and every operation is a pure function, so the whole
module is safe to use from any number of concurrent tasks.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["NonUnitError", "PrimePowerModulus", "prime_power", "is_prime", "rational_to_residue", "inverses_mod_p"]


class NonUnitError(ArithmeticError):
    """Inversion was attempted on a value divisible by the prime."""


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


class PrimePowerModulus:
    """A prime p and exponent r >= 1 defining the ring Z / p**r.

    Immutable, equal and hashed by (p, r), and never equal to a plain
    (p, r) tuple; modulus = p**r is stored once."""

    __slots__ = ("p", "r", "modulus")

    def __init__(self, p: int, r: int):
        if r < 1:
            raise ValueError(f"exponent must be >= 1, got {r}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        set_field = object.__setattr__
        set_field(self, "p", p)
        set_field(self, "r", r)
        set_field(self, "modulus", p**r)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.r) == (other.p, other.r)

    def __hash__(self) -> int:
        return hash((self.p, self.r))

    def __reduce__(self):
        return PrimePowerModulus, (self.p, self.r)

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


def inverses_mod_p(p: int) -> list[int]:
    """[0, 1/1, ..., 1/(p-1)] mod p, by 1/i == -(p//i) / (p % i) below p/2
    and 1/(p-i) == -1/i above it."""
    inv = [0, 1][:p]
    for i in range(2, (p + 1) // 2):
        inv.append(-(p // i) * inv[p % i] % p)
    inv += [p - c for c in inv[(p - 1) // 2 : 0 : -1]]
    return inv
