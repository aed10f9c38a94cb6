import gc
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, perm

import pytest

from supercong import compsum, modring
from supercong.compsum import (
    CompSumSpec,
    Plan,
    PrecisionError,
    ScaleGuardError,
    comp_sum,
    comp_sum_kronecker,
    count_solutions_exact,
    r_spec,
    s_spec,
)
from supercong.modring import PrimePowerModulus, is_prime, rational_to_residue
from supercong.verifier import CLAIMS, EvalContext, sweep

from oracles import BRUTEFORCE_TARGET_CAP, comp_sum_bruteforce, gamma_n


class TestSpecValidation:
    def test_target_defaults_to_m_p_r(self):
        assert s_spec(7, 2, 11, 2).target == 2 * 121
        assert r_spec(3, 1, 5).target == 5

    def test_bound_is_p_to_r(self):
        assert s_spec(7, 1, 11, 2).upper_bound == 121
        assert r_spec(7, 1, 11, 2).upper_bound is None
        with pytest.raises(ValueError):
            CompSumSpec(n=2, m=1, p=5, r=1, upper_bound=7)

    def test_explicit_target(self):
        assert CompSumSpec(n=2, m=1, p=3, target=4).target == 4

    def test_bad_fields(self):
        with pytest.raises(ValueError):
            CompSumSpec(n=0, m=1, p=5)
        with pytest.raises(ValueError):
            CompSumSpec(n=1, m=0, p=5)
        with pytest.raises(ValueError):
            CompSumSpec(n=1, m=1, p=5, r=0)


class TestCompSum:
    def test_single_part_is_empty(self):
        # the lone part would be m * p**r, which is not a unit
        for m, p, r in [(1, 5, 1), (2, 7, 2), (3, 11, 1)]:
            assert comp_sum(r_spec(1, m, p, r)) == 0

    def test_small_target_empty(self):
        assert comp_sum(CompSumSpec(n=5, m=1, p=7, target=3)) == 0

    def test_base_spec_example(self):
        assert comp_sum(r_spec(3, 1, 5)) == 3

    def test_seven_part_spec_example(self):
        assert comp_sum(r_spec(7, 1, 11)) == 2

    def test_bounded_family_empty_at_m_equal_n(self):
        # n parts below p**r cannot reach n * p**r
        assert comp_sum(s_spec(3, 3, 5)) == 0

    def test_explicit_modulus(self):
        spec = r_spec(3, 1, 5)
        assert comp_sum(spec, PrimePowerModulus(5, 3)) % 5 == comp_sum(spec)

    def test_modulus_prime_mismatch(self):
        with pytest.raises(ValueError):
            comp_sum(r_spec(3, 1, 5), PrimePowerModulus(7, 1))

    def test_large_modulus_matches_bruteforce(self):
        spec = r_spec(3, 1, 13)
        M = PrimePowerModulus(13, 9)
        assert comp_sum(spec, M) == comp_sum_bruteforce(spec, M)

    def test_large_modulus_reduces_to_small_modulus(self):
        spec = s_spec(5, 2, 11)
        small = comp_sum(spec, PrimePowerModulus(11, 2))
        large = comp_sum(spec, PrimePowerModulus(11, 12))
        assert large % 11**2 == small


def _fresh(spec, M):
    """comp_sum on a ladder of its own, sized to this one request."""
    return comp_sum(spec, M)


def _climbed(spec, e):
    """[x**N] f**n mod p**e on the spec's own series (f, or f_b with parts below
    its bound), climbed to the exact target N with no weights and no shifts."""
    wanted = {(spec.n, spec.target): None}
    compsum._Ladder(spec.p, spec.upper_bound, e, (spec.n + 1) // 2, spec.target).fill(wanted)
    return wanted[(spec.n, spec.target)]


class TestLadder:
    def test_randomized_against_kronecker_oracle(self):
        rng = random.Random(20261018)
        for trial in range(24):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            r = rng.randint(1, 3)
            bound = p**r if rng.random() < 0.5 else None
            n = rng.randint(1, 10)
            # log-uniform targets, and every fourth one near 10**4
            top = rng.randint(5000, 10000) if trial % 4 == 0 else int(10 ** rng.uniform(1, 4))
            if trial % 3 == 0:
                target = top + 1 if top % p == 0 else top
                spec = CompSumSpec(n=n, m=1, p=p, r=r, upper_bound=bound, target=target)
            else:
                m = max(1, top // p**r)
                spec = CompSumSpec(n=n, m=m, p=p, r=r, upper_bound=bound)
            M = PrimePowerModulus(p, rng.randint(1, 12))
            want = comp_sum_kronecker(spec, M)
            # and the ladder itself climbed to the exact target, which a deep request no longer reaches
            assert _fresh(spec, M) == _climbed(spec, M.r) == want, (spec, M)
        # e = 1 requests read g**n off the unit pass, mod p, and the ladder climbs
        # f mod p to the exact target: bounds below N, N below p and at a multiple
        # of p, p in {2, 3} over many periods, up to 10 parts
        cases = [(5, 1, 37, 4), (3, 2, 40, 6), (7, 1, 50, 10), (2, 3, 301, 7),  # bound < N
                 (13, None, 10, 3), (11, 1, 9, 2), (13, 2, 12, 5),  # N < p
                 (7, None, 49, 5), (13, 1, 39, 9), (11, 2, 242, 8),  # p | N
                 (2, None, 301, 10), (3, None, 400, 9), (2, 2, 256, 10), (3, 3, 300, 8)]
        for _ in range(16):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            cases.append((p, rng.choice([None, 1, 2, 3]), rng.randint(1, 60 * p), rng.randint(1, 10)))
        for p, r, N, n in cases:
            spec = CompSumSpec(n=n, m=1, p=p, r=r or 1, upper_bound=r and p**r, target=N)
            M = PrimePowerModulus(p, 1)
            key, _ = compsum._reading(spec, 1)
            assert key == (p, None, 1)
            want = comp_sum_kronecker(spec, M)
            assert _fresh(spec, M) == _climbed(spec, 1) == want, (spec, M)

    def test_kronecker_oracle_against_bruteforce(self):
        rng = random.Random(7)
        for _ in range(30):
            p = rng.choice([3, 5, 7])
            spec = CompSumSpec(n=rng.randint(1, 6), m=1, p=p, r=1,
                               upper_bound=p if rng.random() < 0.5 else None,
                               target=rng.randint(1, BRUTEFORCE_TARGET_CAP))
            M = PrimePowerModulus(p, rng.randint(1, 4))
            assert comp_sum_kronecker(spec, M) == comp_sum_bruteforce(spec, M), spec

    def test_request_order_does_not_matter(self):
        M11, M13 = PrimePowerModulus(11, 2), PrimePowerModulus(13, 2)
        # targets grow under a fixed part count, then part counts grow, then both shrink
        requests = [(s_spec(n, m, 11, 2), M11) for n, m in [(9, 1), (3, 2), (9, 5), (5, 3), (4, 8)]]
        requests += [(r_spec(n, m, 11, 2), M11) for n, m in [(3, 1), (8, 9), (4, 2), (8, 10)]]
        requests += [(s_spec(n, m, 11, 2), M11) for n, m in [(10, 6), (2, 1)]]
        requests += [(CompSumSpec(n=6, m=1, p=11, target=1500), M11)]  # crosses 11**3
        requests += [(s_spec(7, 3, 13, 2), M13), (r_spec(5, 2, 13, 1), M13)]
        requests += [(s_spec(n, m, 11, 2), M11) for n, m in [(6, 4), (3, 2), (10, 7)]]
        expected = [_fresh(spec, M) for spec, M in requests]
        plan = compsum.Plan((spec, M.r) for spec, M in requests)
        assert [comp_sum(spec, M, plan) for spec, M in requests] == expected
        shuffled = list(zip(requests, expected))
        random.Random(3).shuffle(shuffled)
        plan = compsum.Plan((spec, M.r) for (spec, M), _ in shuffled)
        assert [comp_sum(spec, M, plan) for (spec, M), _ in shuffled] == [want for _, want in shuffled]

    def test_ladders_kept_for_one_prime_only(self):
        # a sweep makes one context per prime, each holding only its own plan and values
        first = EvalContext(terms=[(r_spec(3, 2, 11), 2), (s_spec(3, 2, 11), 2)])
        first.comp_sum(r_spec(3, 2, 11), 2)
        first.comp_sum(s_spec(3, 2, 11), 2)
        ctx = EvalContext(terms=[(r_spec(3, 1, 13), 1)])
        ctx.comp_sum(r_spec(3, 1, 13), 1)
        assert {key[0] for key in ctx._plan.wanted} == {13}
        assert (first.ladder_builds, ctx.ladder_builds) == (2, 1)

    def test_short_precision_raises(self):
        # built for one part to target 300: rows 3 and 11**3 are beyond it
        ladder = compsum._Ladder(11, None, 1, 1, 300)
        with pytest.raises(PrecisionError):
            ladder.fill({(3, 300): None})
        with pytest.raises(PrecisionError):
            ladder.fill({(1, 11**3): None})

    def test_failed_exact_division_raises(self):
        ladder = compsum._Ladder(11, None, 1, 3, 300)
        rows = ladder.rows()
        _, row = next(rows)
        row[1] += 1  # a wrong row: 11 no longer divides row 2's numerator at 11
        with pytest.raises(PrecisionError):
            next(rows)

    @pytest.mark.parametrize("p, bound, N", [
        (11, None, 300),  # unbounded, N not a multiple of p
        (11, 121, 300),  # bounded, bound below N
        (11, 121, 100),  # bounded, bound above N
        (7, 49, 49),  # bounded, bound at N, a multiple of p
        (5, None, 5),  # N = p: one multiple of p
    ])
    def test_first_row_is_the_series_itself(self, p, bound, N):
        # row 1 is f, not climbed: 1/j mod the ladder's modulus at the units
        # below the bound, 0 at the multiples of p and from the bound on
        for e, K in ((1, 1), (2, 3), (3, 5)):
            ladder = compsum._Ladder(p, bound, e, K, N)
            k, row = next(ladder.rows())
            want = [pow(j, -1, ladder.mod) if j % p and (bound is None or j < bound) else 0
                    for j in range(N + 1)]
            assert k == 1 and row == want, (p, bound, N, e, K)

    def test_editing_the_first_row_leaves_the_inverses(self):
        ladder = compsum._Ladder(11, 121, 2, 3, 300)
        inverses = list(ladder.inverses)
        _, row = next(ladder.rows())
        row[1] += 1
        row[11] = row[200] = 5
        assert ladder.inverses == inverses and row is not ladder.inverses

    def test_climb_holds_at_most_two_rows(self):
        # rows are streamed: at each step only the new row and the one it came
        # from may be alive, not every row below it
        N = 11**4
        ladder = compsum._Ladder(11, None, 1, 9, N)

        def alive_rows():
            return sum(1 for obj in gc.get_objects()
                       if type(obj) is list and len(obj) == N + 1 and obj is not ladder.inverses)

        counts = [alive_rows() for _, row in ladder.rows()]
        assert len(counts) == 9 and max(counts) <= 2, counts

    def test_plan_builds_one_ladder_per_key(self, monkeypatch):
        builds = []
        build = compsum._Ladder.__init__

        def counting(self, *args):
            builds.append(args)
            build(self, *args)

        monkeypatch.setattr(compsum._Ladder, "__init__", counting)
        M2, M3 = PrimePowerModulus(11, 2), PrimePowerModulus(11, 3)
        requests = [(s_spec(3, 1, 11, 2), M2), (s_spec(9, 5, 11, 2), M2), (r_spec(4, 2, 11), M2),
                    (s_spec(5, 1, 11, 2), M3), (s_spec(3, 1, 11, 2), M2)]
        expected = [_fresh(spec, M) for spec, M in requests]
        assert len(builds) == 5  # unplanned: one ladder per request
        del builds[:]
        plan = compsum.Plan((spec, M.r) for spec, M in requests)
        assert [comp_sum(spec, M, plan) for spec, M in requests] == expected
        assert plan.ladders_built == 2
        # one ladder per (p, bound, e), each climbed to half its largest part count and
        # sized to its largest target. The first two requests are reduced: they read f**n
        # below n*11*2 on the unbounded ladder mod 11**2, up to 187 for n = 9, from rows
        # up to ceil(9/2) = 5. The fourth keeps its bound, 121 < 11**3, and reads 5 parts
        # as rows 2 and 3
        assert sorted(builds, key=repr) == sorted([(11, None, 2, 5, 187), (11, 121, 3, 3, 121)], key=repr)

    def test_split_read_agrees_with_kronecker_at_production_sizes(self):
        # p in 401..900 as in the prime scale-up; per e one plan, so each of its
        # ladders reads odd and even part counts, from equal and unequal halves. At
        # e = 1 both families read the one period key, at e >= 2 a ladder each
        rng = random.Random(20261021)
        primes = [q for q in range(401, 901) if is_prime(q)]
        for e in (1, 2, 3):
            p = rng.choice(primes)
            M = PrimePowerModulus(p, e)
            # every bounded request has N = m*p >= its bound p
            requests = [family(n, rng.randint(1, 3), p) for n in (1, 2, 3, 7, 8, 10) for family in (s_spec, r_spec)]
            plan = compsum.Plan((spec, e) for spec in requests)
            got = [comp_sum(spec, M, plan) for spec in requests]
            assert plan.ladders_built == (1 if e == 1 else 2)
            assert got == [comp_sum_kronecker(spec, M) for spec in requests], (p, e)
            assert any(got)

    def test_split_read_below_the_part_count_is_zero(self):
        # t < n: no n units sum to t, and the halves' rows vanish below their part counts
        p, N = 409, 40
        ladder = compsum._Ladder(p, None, 2, 5, N)
        wanted = {(n, t): None for n in (2, 7, 10) for t in (1, n - 1, n, N)}
        ladder.fill(wanted)
        for (n, t), value in wanted.items():
            assert value == comp_sum_kronecker(CompSumSpec(n=n, m=1, p=p, target=t), PrimePowerModulus(p, 2))
            assert (value == 0) == (t < n), (n, t)

    def test_fill_keeps_two_rows_per_part_count(self):
        # the halves n//2 and n - n//2 differ by at most one, so fill reads every
        # part count from the new row and the one below it: those two are all that
        # is alive, fewer than two rows per distinct part count plus the two climbed
        N = 11**4
        ladder = compsum._Ladder(11, None, 1, 5, N)
        climb, counts = ladder.rows, []

        def alive_rows():
            return sum(1 for obj in gc.get_objects()
                       if type(obj) is list and len(obj) == N + 1 and obj is not ladder.inverses)

        def counted():
            for k, row in climb():
                counts.append(alive_rows())
                yield k, row

        ladder.rows = counted
        wanted = {(n, t): None for n in (1, 3, 4, 7, 9, 10) for t in (N - 1, N)}
        ladder.fill(wanted)
        assert None not in wanted.values()
        assert len(counts) == 5 and max(counts) <= 2, counts

    def test_importing_the_cli_does_not_import_numpy(self):
        code = "import sys, supercong.cli; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_importing_the_cli_does_not_import_the_process_pool(self):
        # the pool is imported only when --jobs asks for more than one process
        code = ("import sys, supercong.cli; "
                "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestUnitRoute:
    """Every e = 1 sum is read off the unit pass; the ladder, climbed mod p on
    the request's own series to its exact target, shares none of its code."""

    def test_unit_route_against_kronecker(self):
        # every e = 1 sum comes off one unit pass per prime: both families,
        # targets on and off multiples of p, parts below p**2 at e = 1, and more
        # parts than p at p in {2, 3}
        rng = random.Random(20261019)
        cases = {887: [family(n, m, 887) for family in (s_spec, r_spec) for n, m in [(3, 1), (7, 3), (8, 2), (10, 4)]]
                 + [CompSumSpec(n=n, m=1, p=887, upper_bound=bound, target=t)
                    for n, bound, t in [(7, None, 2 * 887 + 5), (6, 887, 887 - 3), (9, 887, 3 * 887 + 1), (4, None, 5)]]}
        for p in (5, 7, 11):
            cases[p] = [s_spec(n, m, p, 2) for n, m in [(3, 1), (5, 2), (8, 5), (8, 7)]]
            cases[p] += [CompSumSpec(n=rng.randint(2, 8), m=1, p=p, r=2, upper_bound=p * p,
                                     target=rng.randint(p, 8 * p * p)) for _ in range(6)]
        for p in (2, 3):
            cases[p] = [CompSumSpec(n=n, m=1, p=p, r=r, upper_bound=bound and p**r, target=t)
                        for n, r, bound, t in [(p, 1, None, 40), (p + 1, 1, 1, p * (p + 1)), (7, 2, 1, 40),
                                               (10, 1, None, 3 * p + 1), (9, 3, 1, 27), (10, 2, None, 20)]]
        for p, requests in cases.items():
            M = PrimePowerModulus(p, 1)
            plan = compsum.Plan((spec, 1) for spec in requests)
            assert {key for key, _ in plan.readings.values()} == {(p, None, 1)}
            got = [comp_sum(spec, M, plan) for spec in requests]
            assert plan.ladders_built == 1
            assert got == [comp_sum_kronecker(spec, M) for spec in requests], p
            assert any(got)

    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    def test_unit_pass_reads_every_coefficient_of_a_power_of_g(self, p):
        # g**k by schoolbook products of g = sum_{0<a<p} x**a / a mod p, against the
        # unit pass at every index 0..k*p, residues 0..p-1 and part counts 1..6 at once
        g = [pow(a, -1, p) if a else 0 for a in range(p)]
        wanted = {(k, t): None for k in range(1, 7) for t in range(k * p + 1)}
        compsum._unit_pass(p, 6, wanted)
        power = [1]
        for k in range(1, 7):
            power = [sum(power[i] * g[j - i] for i in range(len(power)) if 0 <= j - i < p) % p
                     for j in range(len(power) + p - 1)]
            assert [wanted[(k, t)] for t in range(k * p + 1)] == power + [0] * (k * p + 1 - len(power)), k

    def test_unit_pass_refuses_what_it_cannot_read(self, monkeypatch):
        # sized for 3 parts: 4 parts need p**5, beyond its modulus p**4
        with pytest.raises(PrecisionError, match="beyond the unit pass's 3 parts"):
            compsum._unit_pass(11, 3, {(4, 44): None})
        # a wrong unit product breaks the exact division by p**n
        units = compsum._unit_factorials
        monkeypatch.setattr(compsum, "_unit_factorials", lambda p, K, residues, mod: {
            x: 2 * u if x == 22 else u for x, u in units(p, K, residues, mod).items()})
        with pytest.raises(PrecisionError, match=r"p\*\*3 does not divide the sum of \[x\*\*22\] g\*\*3 mod p\*\*4"):
            compsum._unit_pass(11, 3, {(3, 22): None})

    def test_agrees_with_the_ladder_on_a_seeded_sample(self):
        rng = random.Random(20261020)
        small = [q for q in range(2, 50) if is_prime(q)]
        large = [q for q in range(8 * 10**4, 10**5) if is_prime(q)]
        seen = set()
        for trial in range(60):
            # every sixth prime near 10**5, each fifth case at p = 2, the rest below 50
            p = 2 if trial % 5 == 0 else rng.choice(large if trial % 6 == 1 else small)
            n, m, bounded = rng.randint(1, 10), rng.randint(1, 5 if p < 50 else 1), trial % 2 == 0
            target = m * p if trial % 3 else m * p + rng.randint(1, p - 1) if p > 2 else 2 * m + 1
            spec = CompSumSpec(n=n, m=m, p=p, r=1, upper_bound=p if bounded else None, target=target)
            assert comp_sum(spec, PrimePowerModulus(p, 1)) == _climbed(spec, 1), spec
            seen.add((p == 2, p <= n, target % p > 0, bounded))
        assert {(False, True, True, True), (True, True, True, True), (False, False, False, False)} <= seen
        assert len(seen) >= 10

    def test_agrees_with_the_ladder_on_every_e1_catalog_term(self, monkeypatch):
        from supercong import verifier

        terms = []
        evaluate = verifier.comp_sum
        monkeypatch.setattr(verifier, "comp_sum",
                            lambda spec, M, plan=None: terms.append((spec, M.r)) or evaluate(spec, M, plan=plan))
        verifier.sweep(list(verifier.CLAIMS))
        ones = [spec for spec, e in terms if e == 1]
        assert len(ones) == 277
        for spec in ones:
            assert comp_sum(spec, PrimePowerModulus(spec.p, 1)) == _climbed(spec, 1), spec


class TestReducedRoute:
    """Deep requests are reduced by the digit expansion to coefficients below n*p*e."""

    def test_agrees_with_the_cross_route(self):
        # a bounded sum read mod p**e <= p**(r+1) equals the same sum read mod p**(r+1)
        # on its own ladder (p, p**r, r+1), reduced; a free sum equals its own series
        # climbed to the exact target
        rng = random.Random(20261019)
        reduced = 0
        for _ in range(120):
            p = rng.choice([2, 3, 5, 7, 11, 13])
            r = rng.randint(1, 4 if p <= 3 else 3)
            e = max(1, rng.choice([r - 1, r, r + 1]))
            n = rng.randint(1, 8)
            spec = (s_spec if rng.random() < 0.5 else r_spec)(n, rng.randint(1, n + 1), p, r)
            if spec.target > 6000:
                continue
            if spec.upper_bound is None:
                other = _climbed(spec, e)
            else:
                assert compsum._reading(spec, r + 1)[0] == (p, p**r, r + 1)
                other = comp_sum(spec, PrimePowerModulus(p, r + 1)) % p**e
            assert comp_sum(spec, PrimePowerModulus(p, e)) == other, (spec, e)
            weights = compsum._reading(spec, e)[1]
            reduced += spec.target >= n * p * e > max(weights, default=0)
        assert reduced >= 40

    def test_agrees_with_bruteforce_where_it_reduces(self):
        # p = 3, n = 3, e = 2: targets from L = 3*3*2 = 18 reduce, the bounded
        # family (parts below 9 = 3**2, R = e) through its shifted copies of f
        M = PrimePowerModulus(3, 2)
        for N in range(27, 55):
            for bound, r in ((None, 1), (9, 2)):
                spec = CompSumSpec(n=3, m=1, p=3, r=r, upper_bound=bound, target=N)
                key, weights = compsum._reading(spec, 2)
                assert key == (3, None, 2) and max(weights) < 18
                assert comp_sum(spec, M) == comp_sum_bruteforce(spec, M), spec

    def test_digit_weights_are_the_binomial_sums(self):
        # w_t = sum_c (-1)**c C(d, c) C(d - 1 + q - c, d - 1) over q - c >= lo, d = n*e,
        # q = (N - t)/p: the stepped binomials give exactly these, down to lo = 1
        rng = random.Random(41)
        for trial in range(30):
            p, n, e = rng.choice([2, 3, 13, 887]), rng.randint(1, 8), rng.randint(2, 12 if trial else 41)
            d, L = n * e, n * p * e
            N = rng.choice([L, L + 1, L + p - 1, rng.randint(L, 40 * L)])
            lo = -((L - 1 - N) // p)
            want = {}
            for t in range(n + (N - n) % p, L, p):
                q = (N - t) // p
                want[t] = sum((-1) ** c * comb(d, c) * comb(d - 1 + q - c, d - 1)
                              for c in range(d) if q - c >= lo) % p**e
            assert compsum._digit_weights(n, p, e, N) == want, (n, p, e, N)

    def test_a_plan_computes_each_digit_weight_once(self, monkeypatch):
        calls = []
        weights = compsum._digit_weights

        def counting(*args):
            calls.append(args)
            return weights(*args)

        monkeypatch.setattr(compsum, "_digit_weights", counting)
        # S(7, 3, 11**2) reads f**7 at 363, as R(7, 3, 11**2) does, and at its shift
        # 242, as R(7, 2, 11**2) does (both at or past 7*11*2 = 154, so by digit
        # weights): one computation per distinct (n, p, e, N) in one plan
        requests = [(s_spec(7, 3, 11, 2), 2), (r_spec(7, 3, 11, 2), 2), (r_spec(7, 2, 11, 2), 2)]
        plan = Plan(requests)
        assert sorted(calls) == [(7, 11, 2, 242), (7, 11, 2, 363)]
        calls.clear()
        Plan(requests[:2])  # a second plan computes its own
        assert sorted(calls) == [(7, 11, 2, 242), (7, 11, 2, 363)]
        assert [plan.value(*request) for request in requests] == [
            comp_sum(spec, PrimePowerModulus(11, e)) for spec, e in requests]
        # the catalog: 164 computations of 57 distinct weights before they were kept per plan
        calls.clear()
        sweep(list(CLAIMS))
        assert len(calls) == len(set(calls)) == 57

    def test_routes(self):
        # the ladder at the exact target for N < n*p*e and for parts below p**R with
        # R < e; everything else is reduced, or at e = 1 read as coefficients of g**n
        assert compsum._reading(r_spec(7, 1, 11, 1), 1) == ((11, None, 1), {11: 1})  # 11 < 77
        key, weights = compsum._reading(r_spec(7, 2, 11, 2), 2)  # 242 >= 154
        assert key == (11, None, 2) and max(weights) < 154
        key, weights = compsum._reading(s_spec(7, 2, 11, 2), 2)  # R = e: the shifts of f, reduced
        assert key == (11, None, 2) and max(weights) < 154
        key, weights = compsum._reading(s_spec(7, 1, 11, 3), 3)
        assert key == (11, None, 3) and max(weights) < 231
        assert compsum._reading(s_spec(7, 1, 11, 2), 3) == ((11, 121, 3), {121: 1})  # R = 2 < e = 3

    def test_without_the_full_request_a_plan_reduces(self, builds):
        plain = r_spec(7, 2, 11, 2)
        M = PrimePowerModulus(11, 2)
        plan = compsum.Plan([(plain, 2)])
        assert max(plan.readings[(plain, 2)][1]) < 7 * 11 * 2
        assert comp_sum(plain, M, plan) == comp_sum_kronecker(plain, M)
        assert len(builds) == 1 and builds[0][:3] == (11, None, 2) and builds[0][4] < 7 * 11 * 2

    def test_a_request_outside_the_plan_is_refused(self, builds):
        cross = s_spec(7, 2, 11, 2)
        plan = compsum.Plan([(cross, 3)])
        wanted = {key: dict(coefficients) for key, coefficients in plan.wanted.items()}
        # the plain sum is not in the plan: refused by name, and nothing is climbed
        plain, M = r_spec(7, 2, 11, 2), PrimePowerModulus(11, 2)
        with pytest.raises(KeyError, match=r"^\(CompSumSpec\(n=7, m=2, p=11, r=2, upper_bound=None, target=242\), 2\)"):
            comp_sum(plain, M, plan)
        with pytest.raises(KeyError):
            comp_sum(cross, M, plan)  # planned mod 11**3, not mod 11**2
        assert builds == [] and plan.wanted == wanted and plan.ladders_built == 0
        # made without a plan, the request is a plan of its own, and reduced
        assert comp_sum(plain, M) == comp_sum_kronecker(plain, M)
        assert len(builds) == 1 and builds[0][4] < 7 * 11 * 2

    @pytest.mark.parametrize("r", [6, 8])
    def test_deep_closed_forms(self, r):
        # THM-1.1-ii and PROP-4.1 have closed right-hand sides with a Bernoulli
        # residue, so at depths far beyond any climb to the exact target they are real checks
        from supercong.verifier import GridSpec, sweep

        reports = sweep(["THM-1.1-ii", "PROP-4.1"], GridSpec(rs=(r,)))
        assert len(reports) == 6 and all(rep.status == "pass" for rep in reports), reports


class TestOneReadingRule:
    """A part bound p**R gets a ladder of its own only below the precision
    (R < e); every other request is read through the shifts of the unbounded
    series, at e = 1 by the unit pass."""

    def test_bounded_sums_read_through_the_unbounded_series_at_production_sizes(self):
        rng = random.Random(20261020)
        large = [q for q in range(401, 901) if is_prime(q)]
        shifted = set()
        for trial in range(72):
            p = rng.choice(large) if trial % 3 == 0 else rng.choice((11, 13))
            R = 1 if p > 13 else rng.randint(1, 3)
            n, e, bounded = rng.choice((2, 3, 7, 8, 10)), rng.randint(1, 3), rng.random() < 0.75
            N = n * p * e + rng.choice((-1, 1)) * rng.randint(1, p)
            if (min(N, p**R) if bounded else N) * e > 12000:
                continue  # keeps each Kronecker product under about 0.1 s
            spec = CompSumSpec(n=n, m=1, p=p, r=R, upper_bound=p**R if bounded else None, target=N)
            M = PrimePowerModulus(p, e)
            want = comp_sum_kronecker(spec, M)
            key, weights = compsum._reading(spec, e)
            if bounded and R < e:
                assert (key, weights) == ((p, p**R, e), {N: 1}), (spec, e)
            else:
                assert key == (p, None, e)
            # and a second climb for reference: the spec's own series read directly at the target
            assert _fresh(spec, M) == _climbed(spec, e) == want, (spec, e)
            if bounded and R >= e:
                shifted.add((p > 13, e, N >= n * p * e))
        assert shifted == {(large, e, above) for large in (False, True) for e in (1, 2, 3) for above in (False, True)
                           if e == 1 or not large}


class TestKroneckerGuard:
    def test_a_wide_operand_is_refused(self):
        # R(7,3,11**5) mod 11**5: 483,154 slots of 7 bytes
        with pytest.raises(ScaleGuardError, match="27056624 bits at target 483153"):
            comp_sum_kronecker(r_spec(7, 3, 11, 5), PrimePowerModulus(11, 5))

    def test_the_bound_is_on_the_packed_operand(self, monkeypatch):
        # target 5 mod 5: 6 slots of (6 * 4**2).bit_length() // 8 + 1 = 1 byte, 48 bits
        spec, M = r_spec(3, 1, 5), PrimePowerModulus(5, 1)
        monkeypatch.setattr(compsum, "_KRONECKER_BITS", 48)
        assert comp_sum_kronecker(spec, M) == comp_sum(spec, M) == 3
        monkeypatch.setattr(compsum, "_KRONECKER_BITS", 47)
        with pytest.raises(ScaleGuardError, match="48 bits"):
            comp_sum_kronecker(spec, M)


class TestLadderPriceGuard:
    """A plan prices each key by its work, before any is done: a ladder at its
    rows K times top target N times its working digits, and a unit pass at its
    units below n*p, and at the modulus's n + 1 digits one reduction per 64
    units and n*n binomials, whatever its top target."""

    def test_ladders_are_priced_without_a_climb(self, builds):
        # LEM-2.3-ii at r = 5: parts below 11**5 mod 11**6 climb their own ladder to
        # the bounded target 6*11**5 = 966306, kept to 6 + 3*5 digits (11**5 <= N < 11**6)
        plan = compsum.Plan([(s_spec(7, a, 11, 5), 6) for a in range(1, 7)] + [(s_spec(7, 3, 11, 6), 6)])
        assert plan.sizes[(11, 11**5, 6)] == (7, 966306)
        assert plan._price((11, 11**5, 6)) == 4 * 966306 * 21 < compsum._MAX_LADDER_PRICE
        # R(7,3,10007) mod 10007 off one unit pass: targets 10007, 20014, 30021, and the
        # 70049 units below 7*10007 mod 10007**8
        plan = compsum.Plan([(r_spec(7, 3, 10007), 1)])
        assert plan.sizes == {(10007, None, 1): (7, 30021)}
        assert plan._price((10007, None, 1)) == 70049 + (70049 // 64 + 49) * 8
        assert builds == []

    @pytest.mark.parametrize("p", [2, 3, 11, 887])
    def test_a_unit_pass_multiplies_each_unit_once(self, p, monkeypatch):
        # every unit below n*p goes into one perm of at most 64 units, each perm
        # followed by one reduction; the offsets c and p - c of the target's
        # residue c cut each block's run of units at most twice more
        calls = []
        monkeypatch.setattr(compsum, "perm", lambda top, k: calls.append(k) or perm(top, k))
        key = (p, None, 1)
        for n in range(1, 12):
            del calls[:]
            spec = CompSumSpec(n=n, m=1, p=p, target=n * (p - 1))  # the top of g**n, its weight 1
            plan = compsum.Plan([(spec, 1)])
            assert plan.sizes[key][0] == n
            assert comp_sum(spec, plan=plan) == _climbed(spec, 1)
            assert sum(calls) == n * (p - 1) and len(calls) <= n * (-(-(p - 1) // 64) + 2), n
            assert plan._price(key) == n * p + (n * p // 64 + n * n) * (n + 1)

    def test_a_unit_pass_price_does_not_depend_on_its_top_target(self):
        # R(7,1,887) reads targets up to 887 and R(7,3,887) up to 2661; both pass the units below 7*887
        key = (887, None, 1)
        low, high = (compsum.Plan([(r_spec(7, m, 887), 1)]) for m in (1, 3))
        assert low.sizes[key] == (7, 887) and high.sizes[key] == (7, 2661)
        assert low._price(key) == high._price(key) == 6209 + (6209 // 64 + 49) * 8

    def test_a_unit_pass_that_cannot_finish_is_refused(self, builds):
        # EQ-5.1 at p = 100003 with 4001 parts: target p, but 400,112,003 units mod p**4002
        units = 4001 * 100003
        price = units + (units // 64 + 4001**2) * 4002
        refusal = rf"n=4001, .* needs a unit pass over the {units} units below 4001\*100003, priced {price:.3g}"
        with pytest.raises(ScaleGuardError, match=refusal.replace("+", r"\+")):
            compsum.Plan([(s_spec(4001, 1, 100003), 1)])
        assert builds == []

    def test_a_ladder_that_cannot_finish_is_refused_before_any_climb(self, builds):
        # EQ-1.3's lower sum at p = 11, r = 7, read mod 11**8 on its own ladder to its
        # target 11**7, with 8 + 3*7 digits
        spec, M = s_spec(7, 1, 11, 7), PrimePowerModulus(11, 8)
        refusal = r"CompSumSpec\(n=7, m=1, p=11, r=7, .*\) mod 11\*\*8 needs a ladder of 4 rows to target 19487171"
        for refused in (lambda: compsum.Plan([(spec, 8), (s_spec(7, 1, 11, 8), 8)]), lambda: comp_sum(spec, M),
                        lambda: EvalContext(terms=[(spec, 8)])):
            with pytest.raises(ScaleGuardError, match=refusal + r", priced 2.26e\+09 > 2e\+08"):
                refused()
        assert builds == []

    def test_the_costliest_ladder_is_named(self, monkeypatch):
        terms = [(s_spec(7, 1, 11, 2), 3), (s_spec(7, 1, 11, 3), 4)]
        monkeypatch.setattr(compsum, "_MAX_LADDER_PRICE", 100)
        with pytest.raises(ScaleGuardError, match=r"r=3, .* mod 11\*\*4 needs a ladder of 4 rows to target 1331"):
            compsum.Plan(terms)


class TestRefusalsBeforeWork:
    """The digit and period weights and the solution count are priced before
    their first binomial, and a refusal never writes a huge integer whole."""

    @pytest.fixture
    def combs(self, monkeypatch):
        calls = []
        monkeypatch.setattr(compsum, "comb", lambda *args: calls.append(args) or comb(*args))
        return calls

    def test_digit_weights_are_refused_before_the_first_binomial(self, combs, monkeypatch):
        refusal = r"the digit weights of f\*\*7 mod 11\*\*2000 at target <2083 digits> is priced 1.96e\+08 "
        with pytest.raises(ScaleGuardError, match=refusal):
            compsum._digit_weights(7, 11, 2000, 11**2000)
        assert combs == []
        # priced at (n*e)**2: 7 parts mod 11**2 at 196, refused one below
        monkeypatch.setattr(modring, "_MAX_TABLE_PRICE", 196)
        assert compsum._digit_weights(7, 11, 2, 11**3) and combs
        monkeypatch.setattr(modring, "_MAX_TABLE_PRICE", 195)
        with pytest.raises(ScaleGuardError, match=r"f\*\*7 mod 11\*\*2 at target 1331 is priced 196 "):
            compsum._digit_weights(7, 11, 2, 11**3)

    def test_period_weights_are_refused_before_the_first_binomial(self, combs, monkeypatch):
        # R(100000, 100000, 11) mod 11: 81,819 targets of g**100000, each weight a binomial of 100000 terms
        refusal = r"the weights of g\*\*100000 mod 11 at target 1100000 is priced 8.18e\+09 "
        with pytest.raises(ScaleGuardError, match=refusal):
            compsum._reading(r_spec(100000, 100000, 11), 1)
        assert combs == []
        # priced at targets times n: 7 parts at 3*11 read the targets 11, 22 and 33, at 21
        monkeypatch.setattr(modring, "_MAX_TABLE_PRICE", 21)
        assert compsum._reading(r_spec(7, 3, 11), 1) == ((11, None, 1), {11: comb(8, 6) % 11, 22: 7, 33: 1})
        monkeypatch.setattr(modring, "_MAX_TABLE_PRICE", 20)
        with pytest.raises(ScaleGuardError, match=r"g\*\*7 mod 11 at target 33 is priced 21 "):
            compsum._reading(r_spec(7, 3, 11), 1)

    def test_a_bounded_requests_shifts_are_priced_together(self, combs, monkeypatch):
        # S(3000, 2999, 11) mod 11: 2,727 shifts, each priced under 10**7 alone
        refusal = r"the weights of g\*\*3000 mod 11 at target 32989 is priced 1.1e\+10 "
        with pytest.raises(ScaleGuardError, match=refusal):
            compsum._reading(s_spec(3000, 2999, 11), 1)
        assert combs == []
        # S(7, 3, 11) reads the shifts 33, 22 and 11, at 3, 2 and 1 targets: 42 in all
        monkeypatch.setattr(modring, "_MAX_TABLE_PRICE", 42)
        assert compsum._reading(s_spec(7, 3, 11), 1)[0] == (11, None, 1)
        monkeypatch.setattr(modring, "_MAX_TABLE_PRICE", 41)
        with pytest.raises(ScaleGuardError, match=r"g\*\*7 mod 11 at target 33 is priced 42 "):
            compsum._reading(s_spec(7, 3, 11), 1)

    def test_a_plan_is_refused_before_any_ladder(self, builds):
        # THM-1.1-ii at p = 11, r = 5000: the spec's own fields pass 4,300 digits
        spec = r_spec(7, 1, 11, 5000)
        with pytest.raises(ScaleGuardError, match="at target <5207 digits>"):
            comp_sum(spec, PrimePowerModulus(11, 5000))
        assert builds == [] and "target=<5207 digits>" in repr(spec) and len(repr(spec)) < 100
        # parts below 11**5000 mod 11**5001 on a ladder of their own, refused by its price
        refusal = r"upper_bound=<5207 digits>, target=<5207 digits>\) mod 11\*\*5001 .* to target <5207 digits>"
        with pytest.raises(ScaleGuardError, match=refusal):
            comp_sum(s_spec(7, 1, 11, 5000), PrimePowerModulus(11, 5001))
        assert builds == []

    def test_a_count_is_refused_before_the_first_binomial(self, combs, monkeypatch):
        refusal = r"solution count of 10000 coordinates below 11 summing to 109999 is priced 1e\+08 "
        with pytest.raises(ScaleGuardError, match=refusal):
            count_solutions_exact(1, 10000, 10000, 11)
        assert combs == []
        # priced at (min(n, target // p) + 1) * n: 7 coordinates to 4*11 - 1 at 4 * 7
        want = count_solutions_exact(1, 4, 7, 11)
        monkeypatch.setattr(modring, "_MAX_TABLE_PRICE", 28)
        assert count_solutions_exact(1, 4, 7, 11) == want
        monkeypatch.setattr(modring, "_MAX_TABLE_PRICE", 27)
        with pytest.raises(ScaleGuardError, match="priced 28 "):
            count_solutions_exact(1, 4, 7, 11)


class TestBruteforce:
    def test_spec_examples(self):
        assert comp_sum_bruteforce(CompSumSpec(n=2, m=1, p=3, target=4)) == 1
        assert comp_sum_bruteforce(CompSumSpec(n=2, m=1, p=5, target=2)) == 1
        assert comp_sum_bruteforce(r_spec(3, 1, 5)) == 3

    def test_scale_guard(self):
        with pytest.raises(ValueError, match="capped at target 60, got 61"):
            comp_sum_bruteforce(r_spec(7, 1, 61))
        assert BRUTEFORCE_TARGET_CAP == 60

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(20240817)
        for _ in range(60):
            p = rng.choice([5, 7, 11, 13])
            n = rng.randint(1, 7)
            r = rng.choice([1, 1, 2]) if p**2 <= BRUTEFORCE_TARGET_CAP else 1
            bounded = rng.random() < 0.5
            m = rng.randint(1, BRUTEFORCE_TARGET_CAP // p**r)
            spec = (s_spec if bounded else r_spec)(n, m, p, r)
            e = rng.randint(1, 3)
            M = PrimePowerModulus(p, e)
            assert comp_sum(spec, M) == comp_sum_bruteforce(spec, M), spec


class TestCountSolutions:
    def test_spec_example_with_gamma(self):
        M = PrimePowerModulus(5, 2)
        assert count_solutions_exact(1, 1, 3, 5) % M.modulus == 15
        assert rational_to_residue(gamma_n(1, 3), M) * 5 % M.modulus == 15

    def test_out_of_range_corner(self):
        assert count_solutions_exact(0, 2, 2, 3) == 0

    def test_negative_target_empty(self):
        assert count_solutions_exact(8, 1, 3, 5) == 0

    def test_depends_only_on_target(self):
        # (m, a) pairs with equal m*p - a count the same solutions
        assert count_solutions_exact(1, 2, 4, 7) == count_solutions_exact(8, 3, 4, 7)

    def test_full_mass_and_coefficients_against_expansion(self):
        def m_a_for(t, p):
            # any (m, a) with m*p - a == t
            if t % p:
                return t // p + 1, p - t % p
            return t // p, 0

        for p in (2, 3, 5, 7):
            for n in (1, 2, 3, 5):
                # direct expansion of (1 + x + ... + x^(p-1))**n
                coeffs = [1]
                for _ in range(n):
                    out = [0] * (len(coeffs) + p - 1)
                    for i, c in enumerate(coeffs):
                        for j in range(p):
                            out[i + j] += c
                    coeffs = out
                assert sum(coeffs) == p**n
                mass = 0
                for t, expected in enumerate(coeffs):
                    m, a = m_a_for(t, p)
                    got = count_solutions_exact(a, m, n, p)
                    assert got == expected, (p, n, t)
                    mass += got
                assert mass == p**n


class TestGammaBeta:
    def test_gamma_spec_examples(self):
        assert gamma_n(1, 7) == Fraction(1, 6)
        assert gamma_n(6, 7) == Fraction(-1, 6)
        assert gamma_n(1, 2) == Fraction(1)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            gamma_n(0, 7)
        with pytest.raises(ValueError):
            gamma_n(7, 7)

    def test_beta_congruent_b_gamma_p(self):
        # beta_n(a) = C(b*p - a + n - 1, n - 1) == b * gamma_n(a) * p (mod p**2)
        p, n, M = 11, 7, PrimePowerModulus(11, 2)
        for a in range(1, n):
            for b in (1, 2, 3):
                beta = comb(b * p - a + n - 1, n - 1) % M.modulus
                assert beta == rational_to_residue(b * gamma_n(a, n), M) * p % M.modulus, (a, b)
