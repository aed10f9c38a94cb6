import concurrent.futures
import os
import random
import sys
from fractions import Fraction
from math import factorial

import pytest

from supercong import compsum, modring, verifier
from supercong.bernoulli import bernoulli_mod_p
from supercong.compsum import comp_sum, r_spec, s_spec
from supercong.modring import NonUnitError, PrimePowerModulus, rational_to_residue
from supercong.verifier import (
    CLAIMS,
    Claim,
    ClaimInstance,
    ClaimReport,
    EvalContext,
    GridSpec,
    instance_from_params,
    primes_between,
    sweep,
    verify,
    verify_instances,
    _triple_bernoulli,
    _U_COMPS,
)

mhs_module = sys.modules["supercong.mhs"]  # the package's `mhs` attribute is the function


class TestRegistry:
    def test_every_claim_has_anchor_and_grid(self):
        assert len(CLAIMS) == 23
        for cid, claim in CLAIMS.items():
            assert claim.claim_id == cid
            assert claim.anchor
            instances = list(claim.grid(GridSpec()))
            assert instances, cid
            assert all(inst.claim_id == cid for inst in instances)

    def test_conjecture_flags(self):
        conjectures = {cid for cid, c in CLAIMS.items() if c.conjecture}
        assert conjectures == {"CONJ-5.1-w8", "CONJ-5.1-w9", "CONJ-5.1-w10"}


class TestVerify:
    def test_eq11_spec_example(self):
        report = verify(ClaimInstance("EQ-1.1", 5))
        assert report.status == "pass"
        assert report.lhs == report.rhs == 3
        assert report.modulus == 5
        assert report.anchor.startswith("sum_")

    def test_thm11i_spec_example(self):
        report = verify(ClaimInstance("THM-1.1-i", 11, m=1))
        assert report.status == "pass"
        assert report.lhs == report.rhs == 2

    @pytest.mark.parametrize("instance,name,why", [
        # checked at r = 3, params() would replay it at r = 2 with m = 1 as its extra
        (ClaimInstance("THM-1.1-ii", 11, r=3, m=1, extra=(("r", 2),)), "r", "names a field"),
        # checked at a = 1, params() would report a = 2
        (ClaimInstance("LEM-2.1", 11, n=5, m=2, extra=(("a", 1), ("a", 2))), "a", "is given twice"),
    ], ids=["extra-field", "extra-twice"])
    def test_a_parameter_given_twice_is_an_error(self, instance, name, why):
        # only the Python API builds these: the CLI refuses a repeated name, and
        # it and the grids send p, r, m and n to the fields
        report = verify(instance)
        assert (report.status, report.note) == ("error", f"bad parameters: extra parameter {name!r} {why}")
        single = instance._replace(extra=instance.extra[:1] if name == "a" else ())
        assert verify(single).status == "pass"

    def test_thm11i_hypothesis_gate(self):
        report = verify(ClaimInstance("THM-1.1-i", 7, m=1))
        assert report.status == "skip"
        assert "p > 7" in report.note
        assert report.lhs is None

    def test_non_prime_p_skips(self):
        report = verify(ClaimInstance("EQ-1.1", 9))
        assert report.status == "skip"
        assert "not prime" in report.note

    def test_unknown_claim(self):
        with pytest.raises(KeyError):
            verify(ClaimInstance("NOPE", 5))

    def test_malformed_extra_gives_error_report(self):
        report = verify(ClaimInstance("LEM-3.1", 11, extra=(("alphas", 2), ("b", 1))))
        assert report.status == "error"

    def test_missing_extra_gives_error_report(self):
        report = verify(ClaimInstance("LEM-3.1", 11))
        assert report.status == "error"
        assert "alphas" in report.note

    def test_weight_gate_skips(self):
        report = verify(
            ClaimInstance("LEM-3.1", 11, n=9, extra=(("alphas", (1,) * 9), ("b", 1)))
        )
        assert report.status == "skip"
        assert "p-3" in report.note

    def test_branch_selected_by_parity_not_flag(self):
        odd = verify(ClaimInstance("LEM-3.3", 13, n=3))
        even = verify(ClaimInstance("LEM-3.3", 13, n=4))
        assert odd.status == even.status == "pass"
        assert odd.modulus == 13
        assert even.modulus == 169

    def test_conjecture_mismatch_is_finding(self):
        report = verify(ClaimInstance("CONJ-5.1-w10", 11, m=1))
        assert report.status == "finding"
        assert "conjecture mismatch" in report.note
        assert report.lhs is not None and report.rhs is not None


# One instance per hypothesis, failing exactly that hypothesis, with the exact
# note it reports; then malformed instances, which are errors, never skips.
# The default catalog has no skips, so the golden reports do not cover these.
HYPOTHESIS_NOTES = [
    ("EQ-1.1", {"p": 9}, "skip", "9 is not prime"),
    ("EQ-1.1", {"p": 2}, "skip", "requires p >= 3"),
    ("THM-1.1-i", {"p": 7, "m": 1}, "skip", "requires p > 7"),
    ("THM-1.1-i", {"p": 11}, "skip", "requires a multiplier m >= 1"),
    ("THM-1.1-i", {"p": 11, "m": 0}, "skip", "requires a multiplier m >= 1"),
    ("THM-1.1-i", {"p": 11, "m": 11}, "skip", "requires p not dividing m"),
    ("THM-1.1-ii", {"p": 7, "r": 2, "m": 1}, "skip", "requires p > 7"),
    ("THM-1.1-ii", {"p": 11, "r": 1, "m": 1}, "skip", "requires r >= 2"),
    ("THM-1.1-ii", {"p": 11, "r": 2, "m": 0}, "skip", "requires a multiplier m >= 1"),
    ("THM-1.1-ii", {"p": 11, "r": 2, "m": 22}, "skip", "requires p not dividing m"),
    ("EQ-1.3", {"p": 7, "r": 2}, "skip", "requires p > 7"),
    ("EQ-1.3", {"p": 11}, "skip", "requires r >= 2"),
    ("LEM-2.1", {"p": 11, "n": 1, "m": 1, "a": 1}, "skip", "requires n >= 2"),
    ("LEM-2.1", {"p": 7, "n": 7, "m": 1, "a": 1}, "skip", "requires p > n"),
    ("LEM-2.1", {"p": 11, "n": 3, "m": 0, "a": 1}, "skip", "requires m >= 1"),
    ("LEM-2.1", {"p": 11, "n": 3, "m": 1, "a": 3}, "skip", "requires 1 <= a <= n-1"),
    ("COR-2.2", {"p": 7, "m": 2, "n": 7, "a": 1}, "skip", "requires p > 7"),
    ("COR-2.2", {"p": 11, "m": 1, "n": 7, "a": 1}, "skip", "tabulated only for m in {2,3}, a in {1,2,3}"),
    ("LEM-2.3-i", {"p": 11, "r": 1, "n": 1, "m": 1}, "skip", "requires n >= 2"),
    ("LEM-2.3-i", {"p": 5, "r": 1, "n": 5, "m": 1}, "skip", "requires p > n"),
    ("LEM-2.3-i", {"p": 11, "r": 1, "n": 3, "m": 3}, "skip", "requires 1 <= k <= n-1"),
    ("LEM-2.3-i", {"p": 11, "r": 0, "n": 3, "m": 1}, "skip", "requires r >= 1"),
    ("LEM-2.3-ii", {"p": 11, "r": 1, "n": 1, "m": 1}, "skip", "requires n >= 2"),
    ("LEM-2.3-ii", {"p": 5, "r": 1, "n": 7, "m": 1}, "skip", "requires p > n"),
    ("LEM-2.3-ii", {"p": 11, "r": 1, "n": 7, "m": 7}, "skip", "requires 1 <= m <= n-1"),
    ("LEM-2.3-ii", {"p": 11, "n": 7, "m": 1}, "skip", "requires r >= 1"),
    ("LEM-3.1", {"p": 11, "alphas": (1, 1), "b": 1, "n": 3}, "skip", "requires n = number of exponents"),
    ("LEM-3.1", {"p": 11, "alphas": (1, 1), "b": 1, "n": 2}, "pass", "even-weight branch"),
    ("LEM-3.1", {"p": 11, "alphas": (1, 1), "b": 0}, "skip", "requires b >= 1"),
    ("LEM-3.1", {"p": 11, "alphas": (1, 1), "b": 2}, "skip", "fixed at b = 1 (the scaled family is LEM-3.4)"),
    ("LEM-3.1", {"p": 11, "alphas": (0, 1), "b": 1}, "skip", "requires positive exponents"),
    ("LEM-3.1", {"p": 11, "alphas": (), "b": 1}, "skip", "requires positive exponents"),
    ("LEM-3.1", {"p": 11, "alphas": (1,) * 9, "b": 1}, "skip", "requires weight 9 <= p-3"),
    ("LEM-3.1", {"p": 11, "alphas": (1, 1)}, "pass", "even-weight branch"),  # b defaults to 1
    ("LEM-3.4", {"p": 11, "alphas": (1, 1), "b": 1, "n": 5}, "skip", "requires n = number of exponents"),
    ("LEM-3.4", {"p": 11, "alphas": (1, 1), "b": 0}, "skip", "requires b >= 1"),
    ("LEM-3.4", {"p": 11, "alphas": (1, -1), "b": 2}, "skip", "requires positive exponents"),
    ("LEM-3.4", {"p": 13, "alphas": (3, 3, 5), "b": 3}, "skip", "requires weight 11 <= p-3"),
    ("COR-3.2", {"p": 11, "n": 1, "alpha": 0}, "skip", "requires alpha >= 1 and n >= 1"),
    ("COR-3.2", {"p": 11, "n": 0, "alpha": 1}, "skip", "requires alpha >= 1 and n >= 1"),
    ("COR-3.2", {"p": 11, "alpha": 1}, "skip", "requires alpha >= 1 and n >= 1"),
    ("COR-3.2", {"p": 11, "n": 3, "alpha": 3}, "skip", "requires weight 9 <= p-3"),
    ("LEM-3.3", {"p": 11, "n": 1}, "skip", "requires n > 1"),
    ("LEM-3.3", {"p": 11}, "skip", "requires n > 1"),
    ("LEM-3.3", {"p": 11, "n": 10}, "skip", "requires p > n+1"),
    ("LEM-3.5", {"p": 11, "n": 4}, "skip", "requires odd n >= 3"),
    ("LEM-3.5", {"p": 11, "n": 1}, "skip", "requires odd n >= 3"),
    ("LEM-3.5", {"p": 11, "n": 11}, "skip", "requires p > n+1 (added hypothesis)"),
    ("COR-3.6", {"p": 11, "n": 3}, "skip", "requires odd n >= 5"),
    ("COR-3.6", {"p": 11, "n": 11}, "skip", "requires p > n"),
    ("LEM-3.7", {"p": 11, "n": 2}, "skip", "requires odd n >= 3"),
    ("LEM-3.7", {"p": 11, "n": 13}, "skip", "requires p >= max(n, 5)"),
    ("LEM-3.7", {"p": 3, "n": 3}, "skip", "requires p >= max(n, 5)"),
    ("COR-3.8", {"p": 11}, "skip", "requires odd n >= 3"),
    ("COR-3.8", {"p": 11, "n": 13}, "skip", "requires p >= max(n, 5)"),
    ("PROP-4.1", {"p": 7, "r": 1}, "skip", "requires p > 7"),
    ("PROP-4.1", {"p": 11, "r": 0}, "skip", "requires r >= 1"),
    ("EQ-4.1", {"p": 7, "r": 1, "m": 1}, "skip", "requires p > 7"),
    ("EQ-4.1", {"p": 11, "r": 0, "m": 1}, "skip", "requires r >= 1"),
    ("EQ-4.1", {"p": 11, "r": 1}, "skip", "requires m >= 1"),
    ("EQ-5.1", {"p": 11, "n": 4, "m": 1}, "skip", "requires odd d >= 3"),
    ("EQ-5.1", {"p": 11, "n": 11, "m": 1}, "skip", "requires p > d"),
    ("EQ-5.1", {"p": 11, "n": 3, "m": 3}, "skip", "constants tabulated for m in {1,2} only"),
    ("EQ-5.2", {"p": 11, "m": 1}, "skip", "requires odd d >= 3"),
    ("EQ-5.2", {"p": 7, "n": 7, "m": 2}, "skip", "requires p > d"),
    ("EQ-5.2", {"p": 11, "n": 3}, "skip", "constants tabulated for m in {1,2} only"),
    *[
        (cid, params, "skip", note)
        for cid in ("CONJ-5.1-w8", "CONJ-5.1-w9", "CONJ-5.1-w10")
        for params, note in (
            ({"p": 7, "m": 1}, "requires p >= 11"),
            ({"p": 11}, "requires m >= 1"),
            ({"p": 11, "m": 0}, "requires m >= 1"),
            ({"p": 11, "m": 11}, "requires p not dividing m"),
        )
    ],
    ("LEM-2.1", {"p": 11, "n": 3, "m": 1}, "error",
     "bad parameters: \"instance ClaimInstance(claim_id='LEM-2.1', p=11, r=None, m=1, n=3, "
     "extra=()) has no extra parameter 'a'\""),
    ("LEM-2.1", {"p": 11, "n": 1, "m": 1}, "error",  # missing, even where n also fails
     "bad parameters: \"instance ClaimInstance(claim_id='LEM-2.1', p=11, r=None, m=1, n=1, "
     "extra=()) has no extra parameter 'a'\""),
    ("COR-2.2", {"p": 11, "m": 2, "n": 7}, "error",
     "bad parameters: \"instance ClaimInstance(claim_id='COR-2.2', p=11, r=None, m=2, n=7, "
     "extra=()) has no extra parameter 'a'\""),
    ("COR-3.2", {"p": 11, "n": 3}, "error",
     "bad parameters: \"instance ClaimInstance(claim_id='COR-3.2', p=11, r=None, m=None, n=3, "
     "extra=()) has no extra parameter 'alpha'\""),
    ("LEM-3.1", {"p": 11, "b": 1}, "error",
     "bad parameters: \"instance ClaimInstance(claim_id='LEM-3.1', p=11, r=None, m=None, n=None, "
     "extra=(('b', 1),)) has no extra parameter 'alphas'\""),
    ("LEM-3.1", {"p": 11, "b": 0}, "error",  # missing, even where b also fails
     "bad parameters: \"instance ClaimInstance(claim_id='LEM-3.1', p=11, r=None, m=None, n=None, "
     "extra=(('b', 0),)) has no extra parameter 'alphas'\""),
    ("THM-1.1-i", {"p": 11, "m": (1, 2)}, "error",
     "bad parameters: '<' not supported between instances of 'tuple' and 'int'"),
    ("EQ-1.3", {"p": 11, "r": (2,)}, "error",
     "bad parameters: '<' not supported between instances of 'tuple' and 'int'"),
    ("LEM-2.1", {"p": 11, "n": 3, "m": 1, "a": (1, 2)}, "error",
     "bad parameters: '<=' not supported between instances of 'int' and 'tuple'"),
    ("LEM-3.1", {"p": 11, "alphas": 2, "b": 1}, "error", "bad parameters: 'int' object is not iterable"),
]


class TestHypothesisNotes:
    @pytest.mark.parametrize(
        "claim_id,params,status,note", HYPOTHESIS_NOTES,
        ids=[f"{c}:{','.join(f'{k}={v}' for k, v in p.items())}".replace(" ", "")
             for c, p, _, _ in HYPOTHESIS_NOTES],
    )
    def test_note(self, claim_id, params, status, note):
        report = verify(instance_from_params(claim_id, params))
        assert (report.status, report.note) == (status, note)
        if status != "pass":
            assert report.lhs is report.rhs is report.modulus is None

    def test_every_claim_is_covered(self):
        assert {c for c, _, status, _ in HYPOTHESIS_NOTES if status == "skip"} == set(CLAIMS)


class TestSweep:
    def test_eq11_full_range(self):
        reports = sweep(["EQ-1.1"], GridSpec(primes=primes_between(5, 97)))
        assert len(reports) == 23
        assert all(r.status == "pass" for r in reports)

    def test_prime_override_drops_non_primes(self):
        reports = sweep(["EQ-1.1", "LEM-3.5"], GridSpec(primes=(9, 10, 11)))
        assert {r.instance.p for r in reports} == {11} and len(reports) == 5

    def test_empty_grid(self):
        assert sweep(["EQ-1.1"], GridSpec(primes=())) == []

    def test_thm11ii_grid_size(self):
        reports = sweep(["THM-1.1-ii"], GridSpec(primes=(11, 13), rs=(2, 3), ms=(1, 2)))
        assert len(reports) == 8
        assert all(r.status == "pass" for r in reports)

    def test_reports_sorted(self):
        reports = sweep(["LEM-3.3", "EQ-1.1"], GridSpec(primes=(13, 11)))
        keys = [r.instance.sort_key() for r in reports]
        assert keys == sorted(keys)

    def test_skips_do_not_fail(self):
        # r=1 violates the THM-1.1-ii hypothesis -> skip rows only
        reports = sweep(["THM-1.1-ii"], GridSpec(primes=(11,), rs=(1,), ms=(1,)))
        assert {r.status for r in reports} == {"skip"}

    def test_prime_scale_cross_check(self):
        # lhs from the ladder, rhs from the Bernoulli power sum: two independent
        # layers agree at p ~ 10**4, where the O(p**2) table would take seconds
        reports = sweep(["EQ-1.1", "THM-1.1-i"], GridSpec(primes=(4999, 9973)))
        assert len(reports) == 8
        assert [r.status for r in reports] == ["pass"] * 8

    def test_evaluation_by_prime_shares_ladders(self, monkeypatch):
        # three claims over the same free-part ladder at each prime: evaluated
        # claim by claim they would rebuild it per claim, by prime once per prime
        builds = []
        build = compsum._Ladder.__init__

        def counting(self, *args):
            builds.append(args)
            build(self, *args)

        monkeypatch.setattr(compsum._Ladder, "__init__", counting)
        claims = ["CONJ-5.1-w10", "LEM-3.5", "LEM-3.7"]
        reports = sweep(claims, GridSpec(primes=(13, 11)))
        # every sum is read mod p off the period key: rows up to ceil(10/2), targets up to 4p
        assert builds == [(11, compsum._PERIOD, 1, 5, 44), (13, compsum._PERIOD, 1, 5, 52)]
        keys = [r.instance.sort_key() for r in reports]
        assert keys == sorted(keys) and len(keys) == 24
        by_claim = [r for cid in claims for r in sweep([cid], GridSpec(primes=(11, 13)))]
        assert [(r.instance, r.status, r.lhs, r.rhs) for r in reports] == [
            (r.instance, r.status, r.lhs, r.rhs) for r in by_claim
        ]

    def test_parallel_matches_sequential(self):
        grid = GridSpec(primes=(11, 13))
        seq = sweep(["EQ-1.1", "LEM-3.5"], grid)
        par = sweep(["EQ-1.1", "LEM-3.5"], grid, jobs=2)
        assert [(r.instance, r.status, r.lhs, r.rhs) for r in seq] == [
            (r.instance, r.status, r.lhs, r.rhs) for r in par
        ]

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # a huge --jobs over many primes must not ask for that many processes;
        # the stand-in pool records its size and maps in process, so none start
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        claims, grid = ["EQ-1.1", "LEM-3.5"], GridSpec(primes=(11, 13, 17))
        seq_ctx, par_ctx = EvalContext(), EvalContext()
        seq = sweep(claims, grid, ctx=seq_ctx, jobs=1)
        assert sizes == []
        par = sweep(claims, grid, ctx=par_ctx, jobs=10**6)
        assert sizes == [2]
        assert par == seq
        assert (par_ctx.comp_sum_evals, par_ctx.new_rows) == (seq_ctx.comp_sum_evals, seq_ctx.new_rows)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker, so no pool
        assert sweep(claims, grid, jobs=10**6) == seq and sizes == [2]

    @staticmethod
    def _mixed_batch() -> list[ClaimInstance]:
        """Duplicates, primes interleaved 13, 11, 13, an error row with a tuple p, an unknown extra."""
        return [ClaimInstance("EQ-1.1", 13), ClaimInstance("LEM-3.5", 11, n=5), ClaimInstance("EQ-1.1", 13),
                ClaimInstance("EQ-1.1", (11, 13)), ClaimInstance("EQ-1.1", 11, extra=(("zzz", 1),)),
                ClaimInstance("LEM-3.5", 13, n=7), ClaimInstance("EQ-1.1", 11)]

    def test_parent_builds_every_report_from_its_own_instance(self, monkeypatch):
        # the pool returns plain outcomes, so at two workers each report holds the
        # caller's instance object itself, not a copy unpickled from a worker
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cached = EvalContext()
        verify(ClaimInstance("EQ-1.1", 11), cached)
        runs = {}
        for jobs in (1, 2):
            instances, ctx = self._mixed_batch(), EvalContext(cache_rows=cached.new_rows)
            reports = verify_instances(instances, ctx, jobs=jobs)
            assert sorted(id(r.instance) for r in reports) == sorted(map(id, instances))
            counters = (ctx.comp_sum_evals, ctx.cache_hits, ctx.ladder_builds)
            runs[jobs] = reports, counters, list(ctx.new_rows.items())
        assert runs[2] == runs[1]
        reports, counters, new_rows = runs[1]
        assert [r.status for r in reports] == ["pass", "error", "pass", "pass", "error", "pass", "pass"]
        assert counters[:2] == (3, 1) and len(new_rows) == 3  # R(3,1,13) once; R(3,1,11) from the cache

    def test_a_prime_task_returns_only_plain_data(self):
        cached = EvalContext()
        verify(ClaimInstance("EQ-1.1", 11), cached)
        batch = [inst for inst in self._mixed_batch() if inst.p == 11]
        result = verifier._verify_prime((batch, cached.new_rows))

        def plain(value) -> bool:
            if type(value) in (tuple, list):
                return all(map(plain, value))
            return type(value) in (int, str, type(None))

        outcomes, counters, new_rows = result
        assert type(result) is tuple and type(outcomes) is list and type(new_rows) is dict
        assert len(outcomes) == len(batch) and all(type(o) is tuple and len(o) == 6 for o in outcomes)
        assert plain(outcomes) and plain(counters) and plain(list(new_rows.items()))
        assert [ClaimReport(inst, *o) for inst, o in zip(batch, outcomes)] == [verify(inst) for inst in batch]

    def test_claim_that_yields_twice_raises(self, monkeypatch):
        def twice(inst):
            [first] = yield [(r_spec(3, 1, inst.p), 1)]
            [second] = yield [(r_spec(3, 2, inst.p), 1)]
            return first, second, inst.p, ""

        monkeypatch.setitem(CLAIMS, "TEST-TWICE", Claim("TEST-TWICE", "n/a", (("p", (5,)),), (), twice))
        with pytest.raises(RuntimeError, match="TEST-TWICE yielded a second time"):
            sweep(["TEST-TWICE"])

    def test_custom_registry_with_false_claim(self, monkeypatch):
        false_claim = Claim(
            "TEST-FALSE", "0 == 1 (mod p)", (("p", (5,)),), (), lambda inst: (0, 1, inst.p, "")
        )
        monkeypatch.setitem(CLAIMS, "TEST-FALSE", false_claim)
        reports = sweep(["TEST-FALSE"])
        assert len(reports) == 1 and reports[0].status == "fail"
        assert "congruence fails" in reports[0].note


def _random_instance(rng: random.Random) -> tuple[ClaimInstance, bool]:
    """A random instance of a random claim, carrying the claim's parameters,
    and whether it was made malformed: a tuple where an int belongs (p
    included), an int for alphas, a missing parameter, or an unknown name.
    Values stay small (p <= 31, r <= 3, m <= 4, n <= 9, and
    p**(r+1) <= 13**4), so that no instance runs long."""
    claim = CLAIMS[rng.choice(sorted(CLAIMS))]
    p = rng.choice((5, 7, 9, 11, 13, 17, 19, 23, 29, 31))
    draws = {"p": p, "r": rng.randint(1, 3 if p <= 13 else 2), "m": rng.randint(1, 4), "n": rng.randint(2, 9),
             "a": rng.randint(1, 8), "b": rng.randint(1, 3), "alphas": rng.choice(_U_COMPS),
             "alpha": rng.randint(1, 4)}
    params = {name: draws[name] for name, _ in claim.dims}
    malformed = rng.random() < 0.5
    if malformed:
        others = [name for name in params if name != "p"]
        key = rng.choice([*params, "unknown"] + (["missing"] if others else []))
        if key == "alphas":
            params[key] = rng.randint(1, 3)
        elif key == "missing":
            del params[rng.choice(others)]
        elif key == "unknown":
            params["zzz"] = rng.randint(1, 3)
        else:
            params[key] = (params[key], rng.randint(1, 3))
    return instance_from_params(claim.claim_id, params), malformed


class TestMixedBatch:
    def test_batch_never_raises_and_matches_single_runs(self):
        rng = random.Random(20210121)
        drawn = [_random_instance(rng) for _ in range(240)]
        instances = [inst for inst, _ in drawn]
        reports = verify_instances(instances)
        assert [r.instance for r in reports] == sorted(instances, key=ClaimInstance.sort_key)
        outcome = {inst: verify(inst) for inst in instances}
        for report in reports:
            alone = outcome[report.instance]
            assert (report.status, report.note, report.lhs, report.rhs, report.modulus) == (
                alone.status, alone.note, alone.lhs, alone.rhs, alone.modulus)
        statuses = {r.status for r in reports}
        assert statuses <= {"pass", "skip", "error", "finding"} and {"pass", "error"} <= statuses
        for inst, malformed in drawn:
            if isinstance(inst.p, tuple):
                assert outcome[inst].status == "error" and outcome[inst].note.startswith("bad parameters: ")
            if inst.get("zzz", None) is not None:
                assert (outcome[inst].status, outcome[inst].note) == (
                    "error", f"bad parameters: {inst.claim_id} does not take zzz")
            if not malformed:
                assert outcome[inst].status != "error"

    def test_the_flat_sort_key_orders_as_the_nested_one(self):
        def ordered(value):
            return isinstance(value, tuple), value

        def nested_key(inst):
            """The key before it was flattened: each value paired with whether it is a tuple."""
            return (inst.claim_id, ordered(inst.p), *(ordered(0 if v is None else v) for v in inst[2:5]),
                    tuple((key, ordered(value)) for key, value in inst.extra))

        rng = random.Random(1818)
        instances = [_random_instance(rng)[0] for _ in range(400)]
        instances += [inst for claim in CLAIMS.values() for inst in claim.grid()]
        rng.shuffle(instances)
        assert sorted(instances, key=ClaimInstance.sort_key) == sorted(instances, key=nested_key)

    def test_sort_key_puts_an_int_before_a_tuple(self):
        one, pair = ClaimInstance("EQ-1.1", 11, m=1), ClaimInstance("EQ-1.1", 11, m=(1, 2))
        assert sorted([pair, one], key=ClaimInstance.sort_key) == [one, pair]
        b2, b_pair = (ClaimInstance("LEM-3.4", 11, extra=(("b", b),)) for b in (2, (1, 2)))
        assert sorted([b_pair, b2], key=ClaimInstance.sort_key) == [b2, b_pair]


# The (p, part bound, e, K, N) of every ladder the default catalog builds, in
# order. At e = 1 a prime's sums share one period key (part bound
# compsum._PERIOD), and a full target climbs f: EQ-4.1's free sum and
# LEM-2.3-i's larger-index side share (11, None, 1), and (13, None, 1) holds
# LEM-2.3-i's, all at r = 1. Only LEM-2.3-ii's lower sums, with parts below
# p**r < p**e, climb a bounded series: (11, 11, 2) and (11, 121, 3).
_PERIOD = compsum._PERIOD
_CATALOG_LADDERS = [
    (5, _PERIOD, 1, 2, 5), (7, _PERIOD, 1, 2, 7),
    (11, _PERIOD, 1, 5, 44), (11, None, 1, 4, 77), (11, None, 2, 4, 363), (11, None, 3, 4, 220),
    (11, 11, 2, 4, 66), (11, 121, 3, 4, 726),
    (13, _PERIOD, 1, 5, 52), (13, None, 2, 4, 195), (13, None, 3, 4, 260), (13, None, 1, 4, 91),
    (17, _PERIOD, 1, 5, 68), (17, None, 2, 4, 17), (19, _PERIOD, 1, 5, 76), (19, None, 2, 4, 19),
    (23, _PERIOD, 1, 5, 92), (23, None, 2, 4, 23), (29, _PERIOD, 1, 5, 116), (29, None, 2, 4, 29),
    (31, _PERIOD, 1, 5, 124), (31, None, 2, 4, 31),
    (37, _PERIOD, 1, 4, 111), (41, _PERIOD, 1, 4, 123), (43, _PERIOD, 1, 4, 129), (47, _PERIOD, 1, 4, 141),
    *((p, _PERIOD, 1, 2, p) for p in (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)),
]


@pytest.fixture
def evaluated(monkeypatch):
    """The (spec, e) of every evaluation a context hands to compsum."""
    calls = []
    evaluate = verifier.comp_sum

    def recording(spec, modulus, plan=None):
        calls.append((spec, modulus.r))
        return evaluate(spec, modulus, plan=plan)

    monkeypatch.setattr(verifier, "comp_sum", recording)
    return calls


class TestPlan:
    """A sweep plans each prime before evaluating it, so that each ladder is built once."""

    def test_each_unordered_table_is_built_once(self, monkeypatch):
        # LEM-3.1 and LEM-3.4 read both weight branches off one table per (b, p),
        # built at p**3; an even weight is reduced mod p**2
        built = []
        at = mhs_module._UnorderedTable.at

        def counting(self, r):
            if r > self.r:
                built.append((self.b, self.p, r))
            return at(self, r)

        mhs_module._inverse_power_sums.cache_clear()
        monkeypatch.setattr(mhs_module._UnorderedTable, "at", counting)
        reports = sweep(["LEM-3.1", "LEM-3.4"])
        assert {rep.status for rep in reports} == {"pass"}
        assert len(built) == len({(b, p) for b, p, _ in built}) == 21
        assert {r for *_, r in built} == {3}

    def test_a_sweep_holds_only_its_last_primes_tables(self):
        mhs_module._inverse_power_sums.cache_clear()
        reports = sweep(["LEM-3.4"], GridSpec(primes=(11, 13, 17)))
        assert {rep.status for rep in reports} == {"pass"}
        held = mhs_module._inverse_power_sums
        assert held.p == 17 and held
        assert {table.p for table in held.values()} == {17}
        assert sorted(held) == sorted({inst.get("b", 1) for inst in CLAIMS["LEM-3.4"].grid(GridSpec(primes=(17,)))})

    def test_interleaved_primes_match_a_fresh_run(self):
        instances = [inst for p in (11, 13, 11) for inst in CLAIMS["LEM-3.4"].grid(GridSpec(primes=(p,)))]
        fresh = []
        for inst in instances:
            mhs_module._inverse_power_sums.cache_clear()
            fresh.append(verify(inst))
        mhs_module._inverse_power_sums.cache_clear()
        assert [verify(inst) for inst in instances] == fresh
        assert {rep.status for rep in fresh} == {"pass"}

    def test_catalog_builds_one_ladder_per_key(self, builds, monkeypatch):
        routed = set()
        evaluate = verifier.comp_sum

        def recording(spec, modulus, plan=None):
            routed.add(plan.readings[(spec, modulus.r)][0])
            return evaluate(spec, modulus, plan=plan)

        monkeypatch.setattr(verifier, "comp_sum", recording)
        ctx = EvalContext()
        sweep(list(CLAIMS), ctx=ctx)
        assert builds == _CATALOG_LADDERS and ctx.ladder_builds == 36
        keys = [args[:3] for args in builds]
        assert len(keys) == len(set(keys))
        # the (p, part bound, e) ladder key of every evaluation, as its plan routes it:
        # THM-1.1-i's R(7,m,11) at e = 1 is EQ-4.1's free sum, read at its full target
        assert set(keys) == routed
        ctx = EvalContext(cache_rows=ctx.new_rows)
        sweep(list(CLAIMS), ctx=ctx)  # a filled cache: nothing left to plan
        assert (len(builds), ctx.ladder_builds, ctx.comp_sum_evals, ctx.cache_hits) == (36, 0, 0, 407)

    def test_catalog_ladders_at_two_jobs(self):
        ctx = EvalContext()
        sweep(list(CLAIMS), ctx=ctx, jobs=2)
        assert (ctx.ladder_builds, ctx.comp_sum_evals) == (36, 407)

    def test_a_part_bound_gets_a_ladder_only_below_the_precision(self, builds):
        # the catalog, and CI's depth and cross-route grids: every ladder key is
        # (p, None, e), the period key (p, _PERIOD, 1), or (p, p**R, e) with R < e
        primes = tuple(q for q in range(11, 98) if modring.is_prime(q))
        for claim_ids, grid in [(list(CLAIMS), GridSpec()),
                                (["THM-1.1-ii", "PROP-4.1"], GridSpec(rs=tuple(range(2, 9)))),
                                (["LEM-2.3-ii"], GridSpec(rs=(3,))),
                                (["EQ-1.3", "EQ-4.1", "THM-1.1-ii"], GridSpec(primes=(11, 13), rs=(2, 3))),
                                (["EQ-4.1", "LEM-2.3-i", "LEM-2.3-ii"], GridSpec(primes=primes, rs=(1,)))]:
            assert "fail" not in {rep.status for rep in sweep(claim_ids, grid)}
        keys = {args[:3] for args in builds}
        bounded = {(p, bound, e) for p, bound, e in keys if bound not in (None, _PERIOD)}
        assert all(bound != _PERIOD or e == 1 for _, bound, e in keys)
        assert all(bound in {p**R for R in range(1, e)} for p, bound, e in bounded), bounded
        # LEM-2.3-ii's lower sums, with parts below p**r and read mod p**(r + 1)
        assert bounded == {(11, 11, 2), (11, 121, 3), (11, 1331, 4), *((p, p, 2) for p in primes)}

    def test_memoized_terms_are_not_planned(self, builds):
        first = EvalContext()
        sweep(["PROP-4.1"], GridSpec(primes=(11,), rs=(1, 2)), ctx=first)
        del builds[:]
        ctx = EvalContext(cache_rows=first.new_rows)
        sweep(["EQ-1.3", "PROP-4.1"], GridSpec(primes=(11,), rs=(2, 3)), ctx=ctx)
        # EQ-1.3 at r = 2 reads PROP-4.1's sums at r = 1, 2 from the cache, and so
        # does EQ-1.3's lower sum at r = 3: the cache holds one value per cache key,
        # whatever its route. EQ-1.3's upper sum and PROP-4.1 at r = 3 share the
        # one new ladder and one evaluation: S(7,1,11**4), reduced below 7*11*4 on
        # the unbounded ladder mod 11**4
        assert builds == [(11, None, 4, 4, 297)] and 297 < 7 * 11 * 4
        assert (ctx.comp_sum_evals, ctx.cache_hits) == (1, 2)

    def test_warm_catalog_builds_each_modulus_once(self, monkeypatch):
        cold = EvalContext()
        sweep(list(CLAIMS), ctx=cold)
        counts = {"moduli": 0, "is_prime": 0}
        new, is_prime = modring.PrimePowerModulus.__new__, modring.is_prime

        def counted_new(cls, p, r):
            counts["moduli"] += 1
            return new(cls, p, r)

        def counted_is_prime(n):
            counts["is_prime"] += 1
            return is_prime(n)

        monkeypatch.setattr(modring.PrimePowerModulus, "__new__", counted_new)
        for module in (modring, verifier):
            monkeypatch.setattr(module, "is_prime", counted_is_prime)
        modring.prime_power.cache_clear()
        reports = sweep(list(CLAIMS), ctx=EvalContext(cache_rows=cold.new_rows))
        # one modulus per distinct (p, e), each checking its prime once, and
        # one primality check per distinct prime of the sweep
        assert len(reports) == 1935 and len({rep.instance.p for rep in reports}) == 23
        assert counts == {"moduli": 37, "is_prime": 23 + 37}


class TestEvalContext:
    def test_memo_avoids_reevaluation(self):
        ctx = EvalContext()
        spec = s_spec(7, 1, 11, 2)
        v1 = ctx.comp_sum(spec, 2)
        evals = ctx.comp_sum_evals
        v2 = ctx.comp_sum(spec, 2)
        assert v1 == v2 and ctx.comp_sum_evals == evals == 1

    def test_cache_rows_short_circuit(self):
        spec = s_spec(7, 1, 11, 2)
        key = EvalContext.cache_key(spec, 2)
        true_value = comp_sum(spec, PrimePowerModulus(11, 2))
        ctx = EvalContext(cache_rows={key: true_value})
        assert ctx.comp_sum(spec, 2) == true_value
        assert ctx.comp_sum_evals == 0 and ctx.cache_hits == 1
        assert ctx.new_rows == {}

    def test_new_rows_collected(self):
        ctx = EvalContext()
        spec = s_spec(3, 1, 5, 1)
        value = ctx.comp_sum(spec, 1)
        assert ctx.new_rows == {EvalContext.cache_key(spec, 1): value}

    def test_a_reduced_value_does_not_stand_in_for_a_full_target_one(self, evaluated):
        ctx = EvalContext()
        plain, full = r_spec(7, 2, 11, 2), r_spec(7, 2, 11, 2, full_target=True)
        assert ctx.comp_sum(plain, 2) == ctx.comp_sum(full, 2)
        assert evaluated == [(plain, 2), (full, 2)] and ctx.comp_sum_evals == 2
        # one cache row per cache key, whatever the route
        assert list(ctx.new_rows) == [EvalContext.cache_key(plain, 2)]

    def test_a_plan_evaluates_a_cross_checked_sum_once(self, evaluated, builds):
        # within a plan, every term of a sum that some term cross-checks takes the full target
        ctx = EvalContext()
        terms = [(r_spec(7, 2, 11, 2), 2), (r_spec(7, 2, 11, 2, full_target=True), 2)]
        ctx.plan(terms)
        assert len({ctx.comp_sum(*term) for term in terms}) == 1
        assert len(evaluated) == 1 and ctx.comp_sum_evals == 1
        # the one ladder reaches the full target 2 * 11**2
        assert builds == [(11, None, 2, 4, 242)]

    def test_a_planned_term_is_routed_once(self, monkeypatch):
        read = []
        reading = compsum._reading

        def counting(spec, e):
            read.append((spec, e))
            return reading(spec, e)

        monkeypatch.setattr(compsum, "_reading", counting)
        ctx = EvalContext()
        terms = [(r_spec(7, 2, 11, 2), 2), (r_spec(7, 2, 11, 2, full_target=True), 2), (r_spec(7, 2, 11, 2), 2)]
        ctx.plan(terms)
        for term in terms:
            ctx.comp_sum(*term)
        # once per distinct request, the plain one read at the full target
        assert read == [(terms[1][0], 2)] * 2
        ctx.comp_sum(s_spec(3, 1, 11), 1)  # outside the plan: read on the spot
        assert read[2:] == [(s_spec(3, 1, 11), 1)]

    def test_cached_values_serve_both_routes(self, evaluated):
        spec = r_spec(7, 2, 11, 2)
        key = EvalContext.cache_key(spec, 2)
        ctx = EvalContext(cache_rows={key: comp_sum(spec, PrimePowerModulus(11, 2))})
        ctx.plan([(spec, 2), (r_spec(7, 2, 11, 2, full_target=True), 2)])
        ctx.comp_sum(spec, 2)
        ctx.comp_sum(r_spec(7, 2, 11, 2, full_target=True), 2)
        assert evaluated == [] and ctx.cache_hits == 1

    def test_shared_context_across_claims(self):
        # PROP-4.1 at r in {1,2} computes the bounded sums at p^2 and p^3,
        # which is exactly what EQ-1.3 at r=2 compares
        first = EvalContext()
        sweep(["PROP-4.1"], GridSpec(primes=(11,), rs=(1, 2)), ctx=first)
        ctx = EvalContext(cache_rows=first.new_rows)
        sweep(["EQ-1.3"], GridSpec(primes=(11,), rs=(2,)), ctx=ctx)
        assert (ctx.comp_sum_evals, ctx.cache_hits, ctx.ladder_builds) == (0, 2, 0)  # both sums cached


class TestOnePath:
    """verify is verify_instances of one instance, and every entry point
    plans each prime once, before it reads any term."""

    def test_verify_is_verify_instances_of_one(self):
        catalog = {rep.instance: rep for rep in sweep(list(CLAIMS))}
        mix = random.Random(2424).sample(sorted(catalog, key=ClaimInstance.sort_key), 40)
        mix += [ClaimInstance("EQ-1.1", 11), ClaimInstance("THM-1.1-i", 7, m=1),
                ClaimInstance("EQ-1.1", (11, 13)), ClaimInstance("EQ-1.1", 11, extra=(("zzz", 1),))]
        warm = EvalContext()
        verify(ClaimInstance("EQ-1.1", 11), warm)  # one cache row, so that a read hits it
        alone, batch = EvalContext(cache_rows=warm.new_rows), EvalContext(cache_rows=warm.new_rows)
        reports = []
        for inst in mix:
            reports.append(verify(inst, alone))
            assert reports[-1] == verify_instances([inst], batch)[0]
            assert reports[-1] == catalog.get(inst, reports[-1])
            for ctx in (alone, batch):
                # the caller's context only lends its cache rows and collects counters and rows
                assert ctx._keys == ctx._values == ctx._plan.wanted == {}
        assert {rep.status for rep in reports} >= {"pass", "skip", "error"}
        assert alone.cache_hits >= 1 and alone.comp_sum_evals > 0
        assert (alone.comp_sum_evals, alone.cache_hits, alone.ladder_builds) == (
            batch.comp_sum_evals, batch.cache_hits, batch.ladder_builds)
        assert list(alone.new_rows.items()) == list(batch.new_rows.items())

    def test_a_list_p_raises_from_both_entry_points(self):
        inst = ClaimInstance("EQ-1.1", [11, 13])
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            verify(inst)
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            verify_instances([inst])

    def test_a_sweep_plans_each_prime_once(self, monkeypatch):
        plans = []  # the primes of each plan's terms, and whether a read made the plan
        reading = []
        plan, read = EvalContext.plan, EvalContext.comp_sum

        def recorded_plan(self, terms):
            terms = list(terms)
            plans.append(({spec.p for spec, _ in terms}, bool(reading)))
            plan(self, terms)

        def recorded_read(self, spec, mod_exp):
            reading.append(spec)
            try:
                return read(self, spec, mod_exp)
            finally:
                reading.pop()

        monkeypatch.setattr(EvalContext, "plan", recorded_plan)
        monkeypatch.setattr(EvalContext, "comp_sum", recorded_read)
        primes = sorted({rep.instance.p for rep in sweep(list(CLAIMS))})
        # the caller's context and each prime's make an empty plan on creation
        assert len(plans) == 1 + 2 * len(primes) == 47
        assert not any(made_by_read for _, made_by_read in plans)
        planned = [plan_primes for plan_primes, _ in plans if plan_primes]
        assert all(len(plan_primes) == 1 for plan_primes in planned)
        assert sorted(min(plan_primes) for plan_primes in planned) == primes


class TestCrossChecks:
    """Structural consistency between claim families."""

    def test_depth3_and_depth5_lift_constants(self):
        # bounded sums at p^2 reproduce the depth-3 and depth-5 constants
        # (-2 and -5!/6) that also govern the base congruence family
        for p in (11, 13, 17):
            b3 = bernoulli_mod_p(p - 3, p)
            v3 = comp_sum(s_spec(3, 1, p, 2), PrimePowerModulus(p, 2))
            assert v3 == rational_to_residue(Fraction(-2), PrimePowerModulus(p, 1)) * b3 % p * p % p**2
            b5 = bernoulli_mod_p(p - 5, p)
            v5 = comp_sum(s_spec(5, 1, p, 2), PrimePowerModulus(p, 2))
            expected = rational_to_residue(Fraction(-factorial(5), 6), PrimePowerModulus(p, 1))
            assert v5 == expected * b5 % p * p % p**2

    def test_triple_term_empty_for_n7(self):
        for p in (11, 13):
            assert _triple_bernoulli(p, 7) == 0

    def test_s7_m3_feeds_the_seven_factorial_tenth_constant(self):
        # S(7,3,p) == -5 * 6! * B(p-7), the degenerate triple-free case
        for p in (11, 13):
            lhs = comp_sum(s_spec(7, 3, p), PrimePowerModulus(p, 1))
            rhs = rational_to_residue(-5 * factorial(6), PrimePowerModulus(p, 1))
            rhs = rhs * bernoulli_mod_p(p - 7, p) % p
            assert lhs == rhs

    def test_triple_term_nonzero_for_n9(self):
        assert any(_triple_bernoulli(p, 9) != 0 for p in (11, 13, 17))


class TestRationalCofactors:
    def test_a_numerator_and_denominator_read_as_their_fraction(self):
        # residues and NonUnitError notes as the Fraction route gives them, on
        # unreduced pairs and negative denominators too
        rng = random.Random(418)
        for _ in range(3000):
            p = rng.choice((5, 7, 11, 13))
            num, den = rng.randint(-300, 300), rng.choice((-1, 1)) * rng.randint(1, 300)
            try:
                expected = rational_to_residue(Fraction(num, den), PrimePowerModulus(p, 1))
            except NonUnitError as exc:
                with pytest.raises(NonUnitError) as raised:
                    verifier._rat(num, den, p)
                assert str(raised.value) == str(exc)
            else:
                assert verifier._rat(num, den, p) == expected


class TestInstanceFromParams:
    def test_round_trip(self):
        inst = instance_from_params(
            "LEM-3.4", {"p": 11, "b": 2, "alphas": (1, 1, 2), "n": 3}
        )
        assert inst == ClaimInstance(
            "LEM-3.4", 11, n=3, extra=(("alphas", (1, 1, 2)), ("b", 2))
        )
        assert verify(inst).status == "pass"

    def test_requires_p(self):
        with pytest.raises(ValueError):
            instance_from_params("EQ-1.1", {"r": 2})
