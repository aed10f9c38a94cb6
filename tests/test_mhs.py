import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from supercong.mhs import mhs, mhs_restricted, unordered_sum
from supercong.modring import NonUnitError, PrimePowerModulus, ScaleGuardError, rational_to_residue, unit_inverses
from supercong.verifier import EvalContext

from oracles import unordered_sum_bruteforce

mhs_module = sys.modules["supercong.mhs"]  # the package's `mhs` attribute is the function


def mhs_exact(N: int, parts: tuple[int, ...]) -> Fraction:
    """Independent oracle: exact rationals via the defining recurrence."""
    if not parts:
        return Fraction(1)
    if N < len(parts):
        return Fraction(0)
    return mhs_exact(N - 1, parts) + Fraction(1, N ** parts[0]) * mhs_exact(N - 1, parts[1:])


def unordered_by_rearrangements(b: int, parts: tuple[int, ...], M: PrimePowerModulus) -> int:
    """Independent oracle at production sizes: every unordered set of distinct
    indexes is one descending chain per assignment of the exponents, so U_b is
    the sum of restricted chain sums over the distinct rearrangements, times
    the product of the multiplicity factorials."""
    weight = prod(factorial(c) for c in Counter(parts).values())
    chains = sum(mhs_restricted(b * M.p - 1, chain, M) for chain in set(permutations(parts)))
    return weight * chains % M.modulus


def _rearrangements(parts: tuple[int, ...]) -> int:
    return factorial(len(parts)) // prod(factorial(c) for c in Counter(parts).values())


def _oracle_cases(seed: int, count: int) -> list[tuple[int, tuple[int, ...], PrimePowerModulus]]:
    """Seeded multisets of depth <= 8 and weight <= 16 with b <= 4 and r <= 4.
    Every third case has p = n + 1 and every third a prime near 1,000; the
    oracle's cost (rearrangements * b*p * depth) is capped to keep it quick."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        kind = len(cases) % 3
        n = rng.choice((1, 2, 4, 6)) if kind == 0 else rng.randint(1, 8)
        parts = [1] * n
        for _ in range(rng.randint(0, 16 - n)):
            parts[rng.randrange(n)] += 1
        parts = tuple(parts)
        p = (n + 1, rng.choice((997, 1009)), rng.choice((5, 7, 11, 13, 17, 19, 23, 29, 31, 37)))[kind]
        b = rng.randint(1, 4)
        if p <= n or _rearrangements(parts) * b * p * n > 300_000:
            continue
        cases.append((b, parts, PrimePowerModulus(p, rng.randint(1, 4))))
    return cases


@pytest.mark.parametrize("fn", [mhs, mhs_restricted, unordered_sum, unordered_sum_bruteforce],
                         ids=lambda fn: fn.__name__)
def test_non_positive_part_rejected(fn):
    for parts in [(1, 0), (0,), (2, -1, 1)]:
        with pytest.raises(ValueError, match=r"^composition parts must be >= 1: "):
            fn(1, parts, PrimePowerModulus(7, 2))


class TestMhs:
    def test_empty_range(self):
        assert mhs(0, (1, 2), PrimePowerModulus(7, 1)) == 0

    def test_empty_composition_is_unit(self):
        for N in (0, 5, 7, 8, 50):  # at N >= p too: the empty tuple has no index to divide
            assert mhs(N, (), PrimePowerModulus(7, 1)) == 1

    def test_depth_one_spec_example(self):
        M = PrimePowerModulus(101, 1)
        assert mhs(4, (1,), M) == rational_to_residue(Fraction(25, 12), M)

    def test_depth_two_spec_example(self):
        # H_6(1,1) equals both the exact oracle and (H_6(1)^2 - H_6(2)) / 2
        M = PrimePowerModulus(7, 2)
        exact = mhs_exact(6, (1, 1))
        assert exact == (mhs_exact(6, (1,)) ** 2 - mhs_exact(6, (2,))) / 2
        assert mhs(6, (1, 1), M) == rational_to_residue(exact, M)

    def test_non_unit_index_raises(self):
        # the first multiple of p is named, however far N reaches past it
        for N, parts in [(7, (1,)), (8, (1,)), (40, (2, 1))]:
            with pytest.raises(NonUnitError, match=r"^index 7 is divisible by 7; use the restricted sum$"):
                mhs(N, parts, PrimePowerModulus(7, 2))

    def test_matches_exact_oracle(self):
        M = PrimePowerModulus(13, 2)
        for parts in [(1,), (2,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (3, 2, 1)]:
            for N in (1, 4, 9, 12):
                assert mhs(N, parts, M) == rational_to_residue(mhs_exact(N, parts), M), (parts, N)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            mhs(-1, (1,), PrimePowerModulus(5, 1))

    @given(
        N=st.integers(1, 50),
        a=st.integers(1, 4),
        b=st.integers(1, 4),
        pr=st.sampled_from([(53, 1), (61, 1), (11, 2)]),
    )
    @settings(max_examples=60)
    def test_stuffle_depth_one(self, N, a, b, pr):
        p, r = pr
        if N >= p:
            return
        M = PrimePowerModulus(p, r)
        lhs = mhs(N, (a,), M) * mhs(N, (b,), M) % M.modulus
        rhs = (mhs(N, (a, b), M) + mhs(N, (b, a), M) + mhs(N, (a + b,), M)) % M.modulus
        assert lhs == rhs


class TestRestricted:
    def test_equals_unrestricted_below_p(self):
        M = PrimePowerModulus(7, 2)
        for parts in [(1,), (1, 1), (2, 1)]:
            assert mhs_restricted(6, parts, M) == mhs(6, parts, M)

    def test_empty_range(self):
        assert mhs_restricted(0, (1,), PrimePowerModulus(5, 1)) == 0

    def test_two_blocks_direct_sum(self):
        # N = 2p-1, depth 1, p = 5: eight unit terms
        M = PrimePowerModulus(5, 1)
        expected = sum(pow(k, -1, 5) for k in range(1, 10) if k % 5) % 5
        assert mhs_restricted(9, (1,), M) == expected

    def test_skips_all_multiples(self):
        M = PrimePowerModulus(3, 2)
        exact = sum(Fraction(1, k) for k in range(1, 11) if k % 3)
        assert mhs_restricted(10, (1,), M) == rational_to_residue(exact, M)


class TestUnorderedSum:
    def test_depth_one_is_restricted_power_sum(self):
        M = PrimePowerModulus(5, 1)
        assert unordered_sum(1, (1,), M) == mhs_restricted(4, (1,), M)
        assert unordered_sum(1, (1,), M) == 0  # 25/12 has numerator divisible by 5

    def test_spec_example_depth_two(self):
        assert unordered_sum(1, (1, 1), PrimePowerModulus(7, 2)) == 35

    def test_depth_one_general_b(self):
        M = PrimePowerModulus(7, 2)
        for b, alpha in [(2, 1), (3, 2)]:
            assert unordered_sum(b, (alpha,), M) == mhs_restricted(b * 7 - 1, (alpha,), M)

    def test_equal_exponents_collapse_to_factorial(self):
        M = PrimePowerModulus(11, 2)
        for n, alpha in [(2, 1), (3, 1), (3, 2), (4, 1)]:
            expected = factorial(n) * mhs(10, (alpha,) * n, M) % M.modulus
            assert unordered_sum(1, (alpha,) * n, M) == expected

    def test_permutation_invariance(self):
        M = PrimePowerModulus(11, 2)
        base = (1, 2, 3)
        values = {unordered_sum(1, perm, M) for perm in permutations(base)}
        assert len(values) == 1

    def test_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(25):
            p = rng.choice([5, 7, 11])
            b = rng.randint(1, 3)
            n = rng.randint(1, 3)
            alphas = tuple(rng.randint(1, 3) for _ in range(n))
            M = PrimePowerModulus(p, rng.randint(1, 2))
            assert unordered_sum(b, alphas, M) == unordered_sum_bruteforce(b, alphas, M), (
                p, b, alphas, M,
            )

    def test_matches_rearrangement_oracle_at_production_sizes(self):
        cases = _oracle_cases(seed=11, count=36) + [
            (1, (1,) * 8, PrimePowerModulus(11, 4)),
            (4, (2,) * 8, PrimePowerModulus(1009, 4)),
            (4, (1,) * 7 + (9,), PrimePowerModulus(997, 3)),
            (3, (1, 2, 3, 4, 6), PrimePowerModulus(7, 4)),
        ]
        assert {M.p for _, parts, M in cases if M.p == len(parts) + 1} >= {3, 5, 7}
        assert max(len(parts) for _, parts, _ in cases) == 8
        for b, parts, M in cases:
            assert unordered_sum(b, parts, M) == unordered_by_rearrangements(b, parts, M), (b, parts, M)

    def test_one_power_sum_table_per_key(self, monkeypatch):
        built = []

        def counting(p, N, mod):
            built.append((p, N, mod))
            return unit_inverses(p, N, mod)

        calls = [
            (1, (1, 2), 11, 3), (1, (2, 1), 11, 2), (1, (3,), 11, 2), (1, (1, 1, 1), 11, 2),
            (2, (1, 2), 11, 2), (1, (1, 2), 11, 1), (1, (1, 3), 11, 2),
        ]
        expected = [unordered_by_rearrangements(b, parts, PrimePowerModulus(p, r)) for b, parts, p, r in calls]
        monkeypatch.setattr(mhs_module, "unit_inverses", counting)
        tables: dict = {}
        assert [unordered_sum(b, parts, PrimePowerModulus(p, r), tables) for b, parts, p, r in calls] == expected
        # one table per (b, p, r) in the caller's dict, and one inverse pass per table:
        # (1, 11, 2) grew from weight 3 to 4 without another
        assert sorted(tables) == [(1, 11, 1), (1, 11, 2), (1, 11, 3), (2, 11, 2)]
        assert sorted(built) == [(11, 10, 11), (11, 10, 11**2), (11, 10, 11**3), (11, 21, 11**2)]
        assert len(tables[(1, 11, 2)].sums) == 5
        del built[:]
        assert unordered_sum(1, (2, 2), PrimePowerModulus(11, 2), tables) == unordered_by_rearrangements(
            1, (2, 2), PrimePowerModulus(11, 2))
        assert built == []
        # a call given no tables builds one of its own, and nothing keeps it
        unordered_sum(1, (2, 2), PrimePowerModulus(11, 2))
        unordered_sum(1, (2, 2), PrimePowerModulus(11, 2))
        assert built == [(11, 10, 11**2)] * 2

    def test_a_request_at_another_prime_drops_the_tables(self):
        # the verifier's context for a prime owns that prime's tables: a context at
        # another prime starts with none, and a return to 11 builds its tables afresh
        def tables_of_a_context(p: int, bs: tuple[int, ...]) -> dict:
            terms = [("unordered", p, 2, (b, (1, 2))) for b in bs]
            ctx = EvalContext(terms=terms)
            M = PrimePowerModulus(p, 2)
            assert list(map(ctx.value, terms)) == [unordered_by_rearrangements(b, (1, 2), M) for b in bs]
            return ctx._tables

        first = tables_of_a_context(11, (1, 2))
        assert [(key, t.mod) for key, t in first.items()] == [((1, 11, 2), 11**2), ((2, 11, 2), 11**2)]
        assert [(key, t.mod) for key, t in tables_of_a_context(13, (1,)).items()] == [((1, 13, 2), 13**2)]
        assert tables_of_a_context(11, (1,))[(1, 11, 2)] is not first[(1, 11, 2)]

    def test_values_do_not_depend_on_call_order(self):
        rng = random.Random(3)
        calls = []
        for _ in range(40):
            parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            calls.append((rng.randint(1, 3), parts, rng.choice((5, 7, 11)), rng.randint(1, 3)))
        expected = {call: unordered_by_rearrangements(call[0], call[1], PrimePowerModulus(*call[2:]))
                    for call in calls}
        for _ in range(2):
            tables: dict = {}
            rng.shuffle(calls)
            for b, parts, p, r in calls:
                assert unordered_sum(b, parts, PrimePowerModulus(p, r), tables) == expected[b, parts, p, r]

    def test_tables_are_kept_apart_by_precision(self):
        tables: dict = {}
        for r in (1, 2, 3, 4):
            M = PrimePowerModulus(13, r)
            for b, parts in ((1, (1, 2)), (2, (3,)), (3, (1, 1, 1))):
                expected = unordered_by_rearrangements(b, parts, M)
                assert unordered_sum(b, parts, M, tables) == expected, (b, parts, M)
        assert len(tables) == 12

    def test_depth_eight_runs(self):
        # all-ones depth 8 exercises the multiplicity weight 8!
        M = PrimePowerModulus(11, 2)
        expected = factorial(8) * mhs(10, (1,) * 8, M) % M.modulus
        assert unordered_sum(1, (1,) * 8, M) == expected

    def test_requires_p_above_depth(self):
        with pytest.raises(ValueError):
            unordered_sum(1, (1, 1, 1), PrimePowerModulus(3, 1))

    def test_bruteforce_depth_guard(self):
        with pytest.raises(ValueError):
            unordered_sum_bruteforce(1, (1, 1, 1, 1), PrimePowerModulus(11, 1))

    def test_bad_b(self):
        with pytest.raises(ValueError):
            unordered_sum(0, (1,), PrimePowerModulus(5, 1))


class TestTableRefusal:
    """A chain sweep or an unordered-sum table too large to finish is refused
    before it is built, with an error that names it and its price."""

    def test_an_unordered_table_is_priced_before_it_is_built(self, monkeypatch):
        monkeypatch.setattr(mhs_module, "unit_inverses", None)  # nothing may be built
        tables: dict = {}
        with pytest.raises(ScaleGuardError, match=r"table of U_2 at p = 1000000007 to weight 2 is priced 6e\+09"):
            unordered_sum(2, (2,), PrimePowerModulus(1000000007, 3), tables)
        assert not tables

    def test_a_chain_sweep_is_priced_before_it_starts(self, monkeypatch):
        monkeypatch.setattr(mhs_module, "pow", None, raising=False)  # no index may be inverted
        M = PrimePowerModulus(1000000007, 2)
        with pytest.raises(ScaleGuardError, match=r"chain sweep of depth 1 to N = 1000000006 .* priced 2e\+09"):
            mhs(M.p - 1, (1,), M)
        with pytest.raises(ScaleGuardError, match="depth 3"):
            mhs_restricted(10**7, (1, 1, 1), M)
