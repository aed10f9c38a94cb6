import random
from fractions import Fraction

import pytest

from supercong import bernoulli
from supercong.bernoulli import EXACT_CAP, PoleError, bernoulli_exact, bernoulli_mod_p
from supercong.modring import PrimePowerModulus, is_prime, rational_to_residue

from oracles import PowerSumError, mod_p_table, power_sum_residue

# classical table under the t/(e^t - 1) convention
KNOWN = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    5: Fraction(0),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    20: Fraction(-174611, 330),
}


class TestExact:
    def test_known_values(self):
        for k, value in KNOWN.items():
            assert bernoulli_exact(k) == value, k

    def test_sign_convention_is_minus_half(self):
        assert bernoulli_exact(1) == Fraction(-1, 2)

    def test_odd_vanishing(self):
        for k in range(3, EXACT_CAP + 1, 2):
            assert bernoulli_exact(k) == 0

    def test_cap(self):
        bernoulli_exact(EXACT_CAP)
        with pytest.raises(ValueError):
            bernoulli_exact(EXACT_CAP + 1)
        with pytest.raises(ValueError):
            bernoulli_exact(-1)

    def test_von_staudt_clausen(self):
        # B_2k plus the reciprocals of primes q with (q-1) | 2k is an integer
        for two_k in range(2, 62, 2):
            total = bernoulli_exact(two_k)
            for q in range(2, two_k + 2):
                if is_prime(q) and two_k % (q - 1) == 0:
                    total += Fraction(1, q)
            assert total.denominator == 1, two_k


class TestModP:
    def test_spec_examples(self):
        assert bernoulli_mod_p(0, 11) == 1
        assert bernoulli_mod_p(4, 11) == 4
        with pytest.raises(PoleError):
            bernoulli_mod_p(10, 11)

    def test_index_one(self):
        assert bernoulli_mod_p(1, 11) == rational_to_residue(Fraction(-1, 2), PrimePowerModulus(11, 1))

    def test_odd_zero(self):
        assert bernoulli_mod_p(9, 13) == 0
        assert bernoulli_mod_p(11, 13) == 0  # p-2 falls under the odd rule

    def test_consistency_with_exact_all_p_to_100(self):
        for p in range(3, 101):
            if not is_prime(p):
                continue
            M = PrimePowerModulus(p, 1)
            for k in range(0, p - 2):
                assert bernoulli_mod_p(k, p) == rational_to_residue(bernoulli_exact(k), M), (p, k)

    def test_pole_for_multiples_of_p_minus_1(self):
        for p, k in ((7, 6), (7, 12), (11, 20), (13, 24)):
            with pytest.raises(PoleError):
                bernoulli_mod_p(k, p)

    def test_boundary_index_p_minus_3(self):
        M = PrimePowerModulus(13, 1)
        assert bernoulli_mod_p(10, 13) == rational_to_residue(bernoulli_exact(10), M)

    def test_even_index_beyond_table_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_mod_p(14, 13)  # 14 > 13 - 3, even, not a pole

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_mod_p(-2, 11)

    def test_known_irregular_pair(self):
        # 37 divides the numerator of B_32
        assert bernoulli_mod_p(32, 37) == 0
        assert bernoulli_exact(32).numerator % 37 == 0


class TestPowerSum:
    def test_agrees_with_table_for_every_prime_below_500(self):
        checked = 0
        for p in range(5, 500):
            if not is_prime(p):
                continue
            table = mod_p_table(p)
            for k in range(2, p - 2, 2):
                assert power_sum_residue(k, p) == table[k], (p, k)
                checked += 1
        assert checked == 10626

    def test_agrees_with_exact_at_a_large_prime(self):
        p = 10007
        M = PrimePowerModulus(p, 1)
        for k in range(2, EXACT_CAP + 1, 2):
            assert bernoulli_mod_p(k, p) == rational_to_residue(bernoulli_exact(k), M), k

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 499])
    def test_pole_index_raises(self, p):
        # at k = p-1 every unit contributes 1, so the sum is -1 mod p
        assert sum(pow(j, p - 1, p * p) for j in range(1, p)) % p == p - 1
        with pytest.raises(PowerSumError):
            power_sum_residue(p - 1, p)

    @pytest.mark.parametrize("p", [5, 7, 11, 13] + random.Random(20261018).sample(
        [q for q in range(401, 2001) if is_prime(q)], 2))
    def test_paired_sum_is_the_plain_sum(self, p):
        # pairing j with p - j halves the powers; the sum mod p**2 is unchanged
        # for every even k <= p - 1, and at k = p - 1 it is refused, quoting it.
        # The plain sums climb j**k by j**2, with no modular pow
        q = p * p
        squares = [j * j % q for j in range(1, p)]
        powers = [1] * (p - 1)
        for k in range(2, p, 2):
            powers = [a * b % q for a, b in zip(powers, squares)]
            plain = sum(powers) % q
            if k <= p - 3:
                assert plain % p == 0 and power_sum_residue(k, p) == plain // p, (p, k)
            else:
                with pytest.raises(PowerSumError, match=f" = {plain} mod p"):
                    power_sum_residue(k, p)

    @pytest.mark.parametrize("p, ks", [(3, (2, 4, 6)), (10007, (2, 4, 10000, 10004))])
    def test_sieve_ends_against_the_plain_sum(self, p, ks):
        # the powers j**(k-1), j < p/2, come from a sieve of smallest prime factors:
        # at p = 3 it holds j = 1 alone and every sum is refused; at p = 10007 it
        # runs to j = 5003, a prime, past the composite 5002 = 2 * 41 * 61
        q = p * p
        for k in ks:
            plain = sum(pow(j, k, q) for j in range(1, p)) % q
            if p == 3:
                with pytest.raises(PowerSumError, match=f" = {plain} mod p"):
                    power_sum_residue(k, p)
            else:
                assert plain % p == 0 and power_sum_residue(k, p) == plain // p, (p, k)

    def test_no_term_at_two(self):
        # j < (p + 1)/2 leaves no j at p = 2, so the paired sum is 0. The pairing
        # needs an odd p (j = 1 is its own partner), and bernoulli_mod_p never asks
        # p = 2: p - 1 = 1 divides every index
        assert [power_sum_residue(k, 2) for k in (2, 4, 6)] == [0, 0, 0]
        with pytest.raises(PoleError):
            bernoulli_mod_p(2, 2)

    @pytest.mark.parametrize("k", [1, 3, 9, 11])
    def test_odd_index_refused(self, k):
        # (p - j)**k == j**k - k*p*j**(k-1) needs k even
        with pytest.raises(ValueError, match="even index"):
            power_sum_residue(k, 13)

    def test_table_left_the_hot_path(self):
        # the O(p**2) recurrence table is a test oracle (oracles.mod_p_table),
        # and the package carries no copy of it to build
        assert not hasattr(bernoulli, "mod_p_table")
        M = PrimePowerModulus(4001, 1)
        assert bernoulli_mod_p(4, 4001) == rational_to_residue(Fraction(-1, 30), M)


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


# two primes from each of 10**3..10**4, 10**4..10**5 and 10**5..10**6
_SAMPLED = [_next_prime(random.Random(20261021 + i).randrange(10 ** (3 + i // 2), 10 ** (4 + i // 2)))
            for i in range(6)]


class TestOrbitWalk:
    def test_agrees_with_table_for_every_prime_below_500(self):
        checked = 0
        for p in range(5, 500):
            if not is_prime(p):
                continue
            table = mod_p_table(p)
            for k in range(2, p - 2, 2):
                assert bernoulli_mod_p(k, p) == table[k], (p, k)
                checked += 1
        assert checked == 10626

    @pytest.mark.parametrize("p", _SAMPLED)
    def test_agrees_with_the_power_sum_at_sampled_primes(self, p):
        # the catalog's indices p - 3 and p - 7, and one drawn from the whole range
        k = random.Random(p).randrange(2, p - 2, 2)
        for k in (p - 3, p - 7, k):
            assert bernoulli_mod_p(k, p) == power_sum_residue(k, p), (p, k)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_short_blocks_against_the_table(self, monkeypatch, block):
        # the walk's (p - 1)/2 steps cut into blocks of every length, the last one short or whole
        monkeypatch.setattr(bernoulli, "_BLOCK", block)
        for p in (5, 7, 13, 29, 61, 101):
            table = mod_p_table(p)
            assert [bernoulli_mod_p(k, p) for k in range(2, p - 2, 2)] == list(table[2 : p - 2 : 2]), p

    def test_the_least_primitive_root(self):
        for p in range(3, 400):
            if is_prime(p):
                g = bernoulli._primitive_root(p)
                assert len({pow(g, i, p) for i in range(p - 1)}) == p - 1, p
                assert all(len({pow(c, i, p) for i in range(p - 1)}) < p - 1 for c in range(2, g)), p

    def test_where_base_two_fails(self):
        # at c = 2 the factor c - c**(1-k) vanishes where 2**k == 1 (mod p); among
        # k = p - d, odd d <= 11, p < 2*10**5 that is (17, 8) and (31, 20) alone. The
        # walk's base is the primitive root, whose k-th power is never 1 at k <= p - 3
        sieve = bytearray([1]) * (2 * 10**5)
        sieve[:2] = b"\0\0"
        for i in range(2, 448):
            if sieve[i]:
                sieve[i * i :: i] = bytes(len(range(i * i, len(sieve), i)))
        vanishing = [(p, p - d) for p in range(13, len(sieve)) if sieve[p]
                     for d in range(3, 12, 2) if pow(2, p - d, p) == 1]
        assert vanishing == [(17, 8), (31, 20)]
        assert bernoulli_mod_p(8, 17) == 13  # the catalog's cache row bernoulli,17,1,k=8,13
        for p, k in vanishing:
            assert bernoulli_mod_p(k, p) == rational_to_residue(bernoulli_exact(k), PrimePowerModulus(p, 1))
