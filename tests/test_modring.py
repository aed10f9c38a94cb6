import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from supercong import modring
from supercong.bernoulli import bernoulli_mod_p
from supercong.compsum import (
    CompSumSpec,
    comp_sum,
    comp_sum_kronecker,
    r_spec,
    s_spec,
)
from supercong.mhs import mhs, mhs_restricted, unordered_sum
from supercong.modring import (
    NonUnitError,
    PrimePowerModulus,
    ScaleGuardError,
    figure,
    guard_table,
    is_prime,
    rational_to_residue,
    unit_inverses,
)

from oracles import comp_sum_bruteforce, unordered_sum_bruteforce


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestPrimality:
    def test_matches_trial_division_below_2000(self):
        for n in range(2000):
            assert is_prime(n) == _trial_division(n), n

    def test_carmichael_and_strong_pseudoprimes_rejected(self):
        for n in (561, 1105, 1729, 25326001, 3215031751):
            assert not is_prime(n)

    def test_large_known_prime(self):
        assert is_prime(2**61 - 1)

    def test_beyond_word_range_refused(self):
        with pytest.raises(ValueError):
            is_prime(2**64 + 13)


class TestModulus:
    def test_modulus_value(self):
        assert PrimePowerModulus(7, 2).modulus == 49
        assert PrimePowerModulus(2, 10).modulus == 1024

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            PrimePowerModulus(10, 1)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            PrimePowerModulus(7, 0)

    def test_value_equality(self):
        assert PrimePowerModulus(5, 2) == PrimePowerModulus(5, 2)
        assert PrimePowerModulus(5, 2) != PrimePowerModulus(5, 3)


class TestInverse:
    """Inverses mod p**r are the images of the rationals 1/u."""

    def test_identity(self):
        for M in (PrimePowerModulus(2, 1), PrimePowerModulus(11, 3)):
            assert rational_to_residue(Fraction(1, 1), M) == 1

    def test_spec_example(self):
        assert rational_to_residue(Fraction(1, 3), PrimePowerModulus(5, 2)) == 17

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            rational_to_residue(Fraction(1, 5), PrimePowerModulus(5, 2))

    @pytest.mark.parametrize("p,r", [(2, 3), (3, 4), (5, 4), (7, 3), (11, 3), (97, 2)])
    def test_exhaustive_small_moduli(self, p, r):
        # every unit times its inverse is 1, for all p**r <= 10**4
        M = PrimePowerModulus(p, r)
        for u in range(1, M.modulus):
            if u % p:
                assert rational_to_residue(Fraction(1, u), M) * u % M.modulus == 1


class TestUnitInverses:
    """unit_inverses(p, N, p**e)[j] inverts j's unit part j / p**v_p(j), the same as pow."""

    def test_agrees_with_pow_on_seeded_cases(self):
        rng = random.Random(28)
        cases = [(2, 1, 1), (3, 2, 1), (5, 125, 2)]
        cases += [(rng.choice((2, 3, 5, 7, 11, 13, 101)), rng.randint(1, 600), rng.randint(1, 4)) for _ in range(40)]
        for p, N, e in cases:
            mod = p**e
            table = unit_inverses(p, N, mod)
            assert len(table) == N + 1 and table[0] == 0, (p, N, e)
            for j in range(1, N + 1):
                unit = j
                while unit % p == 0:
                    unit //= p
                assert table[j] == pow(unit, -1, mod), (p, N, e, j)
        # the multiples of p, and of p**2, are read as well as the units
        assert sum(N // p for p, N, _ in cases) > 1000 and sum(N // p**2 for p, N, _ in cases) > 100

    def test_one_pow_per_table(self, monkeypatch):
        calls = []
        monkeypatch.setattr(modring, "pow", lambda *args: calls.append(args) or pow(*args), raising=False)
        unit_inverses(11, 500, 11**3)
        assert len(calls) == 1


class TestGuardTable:
    def test_refuses_only_above_the_limit(self):
        guard_table("a table", modring._MAX_TABLE_PRICE)
        with pytest.raises(ScaleGuardError, match=r"a table is priced 1e\+07 element operations > 1e\+07"):
            guard_table("a table", modring._MAX_TABLE_PRICE + 1)

    def test_the_name_is_formatted_only_on_a_refusal(self):
        class Unformattable:
            def __format__(self, spec):
                raise AssertionError("formatted")

        guard_table("a table at {}", modring._MAX_TABLE_PRICE, Unformattable())
        with pytest.raises(ScaleGuardError, match=r"^a table to N = <4301 digits> at p = 11 is priced <4301 digits> "):
            guard_table("a table to N = {} at p = {}", 10**4300, 10**4300, 11)

    def test_figure_writes_a_huge_int_by_its_digit_count(self):
        assert [figure(x) for x in (0, -7, 10**99 - 1)] == ["0", "-7", "9" * 99]
        assert figure(2260000000, ".3g") == "2.26e+09"
        for digits in (101, 102, 4300, 4301, 10**5):
            least, most = 10 ** (digits - 1), 10**digits - 1
            assert figure(least) == figure(most) == figure(-most) == f"<{digits} digits>"

    def test_the_classes_are_one(self):
        import supercong
        from supercong import compsum

        assert supercong.ScaleGuardError is compsum.ScaleGuardError is ScaleGuardError
        assert issubclass(ScaleGuardError, ValueError)


class TestRationalToResidue:
    def test_spec_examples(self):
        assert rational_to_residue(Fraction(-2), PrimePowerModulus(7, 1)) == 5
        assert rational_to_residue(Fraction(1, 3), PrimePowerModulus(11, 1)) == 4
        assert rational_to_residue(Fraction(-1, 30), PrimePowerModulus(11, 1)) == 4

    def test_accepts_plain_ints(self):
        assert rational_to_residue(-2, PrimePowerModulus(7, 1)) == 5

    def test_pole_rejected(self):
        with pytest.raises(NonUnitError):
            rational_to_residue(Fraction(1, 10), PrimePowerModulus(5, 2))

    def test_unreduced_fraction_with_removable_p(self):
        # 5/10 reduces to 1/2, whose denominator is a unit mod 5
        assert rational_to_residue(Fraction(5, 10), PrimePowerModulus(5, 2)) == 13

    @given(
        n1=st.integers(-50, 50),
        d1=st.integers(1, 50),
        n2=st.integers(-50, 50),
        d2=st.integers(1, 50),
    )
    def test_ring_homomorphism(self, n1, d1, n2, d2):
        M = PrimePowerModulus(7, 3)
        if d1 % 7 == 0 or d2 % 7 == 0:
            return
        q1, q2 = Fraction(n1, d1), Fraction(n2, d2)
        if (q1 + q2).denominator % 7 == 0 or (q1 * q2).denominator % 7 == 0:
            return
        f = lambda q: rational_to_residue(q, M)
        assert f(q1 + q2) == (f(q1) + f(q2)) % M.modulus
        assert f(q1 * q2) == f(q1) * f(q2) % M.modulus

    @pytest.mark.parametrize("q", [0.1, 0.5, "1/3"])
    def test_inexact_types_rejected(self, q):
        # 0.1 is the binary fraction 3602879701896397 / 2**55, not 1/10
        with pytest.raises(TypeError):
            rational_to_residue(q, PrimePowerModulus(5, 1))


# Each evaluator returns a canonical int in [0, p**e). The composition sums
# run on a bounded, a free and an explicit-target spec, each at an exponent
# other than the spec's own.
_SPECS = {
    "bounded": (s_spec(3, 2, 5), PrimePowerModulus(5, 2)),
    "free": (r_spec(3, 1, 5, 2), PrimePowerModulus(5, 3)),
    "target": (CompSumSpec(n=2, m=1, p=7, target=12), PrimePowerModulus(7, 2)),
}
_CANONICAL_CASES = [
    pytest.param(fn, args, args[1].modulus, id=f"{fn.__name__}-{label}")
    for fn in (comp_sum, comp_sum_kronecker, comp_sum_bruteforce)
    for label, args in _SPECS.items()
] + [
    pytest.param(fn, args, modulus, id=f"{fn.__name__}-{label}")
    for fn, label, args, modulus in [
        (mhs, "depth2", (10, (1, 2), PrimePowerModulus(11, 2)), 11**2),
        (mhs, "empty", (5, (), PrimePowerModulus(7, 1)), 7),
        (mhs_restricted, "past-p", (24, (1, 1), PrimePowerModulus(5, 3)), 5**3),
        (unordered_sum, "depth3", (2, (1, 1, 2), PrimePowerModulus(11, 3)), 11**3),
        (unordered_sum, "empty", (1, (), PrimePowerModulus(7, 2)), 7**2),
        (unordered_sum_bruteforce, "depth2", (2, (1, 2), PrimePowerModulus(7, 2)), 7**2),
        (bernoulli_mod_p, "k0", (0, 11), 11),
        (bernoulli_mod_p, "k1", (1, 13), 13),
        (bernoulli_mod_p, "k4", (4, 11), 11),
        (bernoulli_mod_p, "odd", (9, 13), 13),
        (rational_to_residue, "fraction", (Fraction(-1, 30), PrimePowerModulus(11, 2)), 11**2),
        (rational_to_residue, "int", (-2, PrimePowerModulus(7, 1)), 7),
    ]
]


@pytest.mark.parametrize("fn,args,modulus", _CANONICAL_CASES)
def test_evaluators_return_canonical_ints(fn, args, modulus):
    v = fn(*args)
    assert type(v) is int
    assert 0 <= v < modulus
