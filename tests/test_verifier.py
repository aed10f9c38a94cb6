import concurrent.futures
import hashlib
import os
import random
import sys
import tracemalloc
import weakref
from fractions import Fraction
from functools import partial
from math import factorial

import pytest

from supercong import compsum, modring, verifier
from supercong.bernoulli import PoleError, bernoulli_mod_p
from supercong.cache import ResidueCache
from supercong.compsum import CompSumSpec, comp_sum, r_spec, s_spec
from supercong.modring import NonUnitError, PrimePowerModulus, rational_to_residue
from supercong.reports import render
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
    _triple,
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

    def test_evaluation_by_prime_shares_ladders(self, builds):
        # three claims over the same free-part sums at each prime: evaluated
        # claim by claim they would rebuild the evaluator per claim, by prime once per prime
        claims = ["CONJ-5.1-w10", "LEM-3.5", "LEM-3.7"]
        reports = sweep(claims, GridSpec(primes=(13, 11)))
        # every sum is read mod p off one unit pass per prime, sized to 10 parts
        assert builds == [(11, 10), (13, 10)]
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

    @staticmethod
    def _large_batch() -> list[ClaimInstance]:
        """LEM-2.1 and LEM-3.4 at p = 17 and 19, whose residues and moduli
        (p**2 = 289, 361, p**3) lie above the small ints CPython caches."""
        return ([ClaimInstance("LEM-2.1", p, m=m, n=n, extra=(("a", a),))
                 for p in (19, 17) for n, m, a in ((8, 4, 3), (8, 4, 5), (6, 1, 2))]
                + [ClaimInstance("LEM-3.4", p, n=len(alphas), extra=(("alphas", alphas), ("b", b)))
                   for p in (17, 19) for alphas, b in (((1, 1, 1), 2), ((2, 2), 1))])

    def test_parent_builds_every_report_from_its_own_instance(self, monkeypatch):
        # the pool returns plain verdicts, so at two workers each report holds the
        # caller's instance object itself, not a copy unpickled from a worker, and
        # the caller shares the values a worker's pickle copies apart
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cached = EvalContext()
        verify(ClaimInstance("EQ-1.1", 11), cached)
        runs = {}
        for jobs in (1, 2):
            instances, ctx = self._mixed_batch() + self._large_batch(), EvalContext(cache_rows=cached.new_rows)
            reports = verify_instances(instances, ctx, jobs=jobs)
            assert sorted(id(r.instance) for r in reports) == sorted(map(id, instances))
            assert all(r.lhs is r.rhs for r in reports if r.status == "pass")
            assert len({id(r.modulus) for r in reports}) == len({r.modulus for r in reports})
            counters = (ctx.comp_sum_evals, ctx.cache_hits, ctx.ladder_builds)
            runs[jobs] = reports, counters, list(ctx.new_rows.items())
        assert runs[2] == runs[1]
        reports, counters, new_rows = runs[1]
        assert [r.status for r in reports] == ["pass", "error", "pass", "pass", "error"] + ["pass"] * 12
        large = [r for r in reports if r.instance.claim_id in ("LEM-2.1", "LEM-3.4")]
        assert len(large) == 10 and max(r.lhs for r in large) > 256 < min(r.modulus for r in large)
        # R(3,1,13) once and R(3,1,11) from the cache, with B_8 mod 11; new rows: three
        # composition sums, five Bernoulli residues and LEM-3.4's four unordered sums
        assert counters[:2] == (3, 1) and len(new_rows) == 12
        assert sorted(key[0] for key, _ in new_rows) == ["bernoulli"] * 5 + ["comp_sum"] * 3 + ["unordered"] * 4

    def test_a_prime_task_returns_only_plain_data(self):
        cached = EvalContext()
        verify(ClaimInstance("EQ-1.1", 11), cached)
        batch = [inst for inst in self._mixed_batch() if inst.p == 11]
        result = verifier._verify_prime((batch, cached.new_rows))

        def plain(value) -> bool:
            if type(value) in (tuple, list):
                return all(map(plain, value))
            return type(value) in (int, str, type(None))

        verdicts, counters, new_rows = result
        assert type(result) is tuple and type(verdicts) is list and type(new_rows) is dict
        # status, lhs, rhs, modulus and note: no anchor, which the caller reads from CLAIMS
        assert len(verdicts) == len(batch) and all(type(v) is tuple and len(v) == 5 for v in verdicts)
        assert plain(verdicts) and plain(counters) and plain(list(new_rows.items()))
        assert [ClaimReport(inst, *v, CLAIMS[inst.claim_id].anchor) for inst, v in zip(batch, verdicts)] == [
            verify(inst) for inst in batch]

    def test_a_sweep_holds_few_bytes_per_row(self):
        # sorted on entry, a sweep builds each prime's reports as its verdicts arrive,
        # a passing row holds one int for both sides, and a grid holds each distinct
        # extra tuple once; sorting the finished reports peaked near 600 bytes a row,
        # and keeping every verdict until the walk near 390 (375 without)
        tracemalloc.start()
        try:
            reports = sweep(["LEM-2.1", "LEM-3.4"], GridSpec(primes=primes_between(11, 100)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 5649 and {rep.status for rep in reports} == {"pass"}
        assert peak / len(reports) < 450
        assert all(rep.lhs is rep.rhs for rep in reports if rep.status == "pass")
        extras = {(rep.instance.claim_id, rep.instance.extra): id(rep.instance.extra) for rep in reports}
        assert len(set(extras.values())) == len(extras)

    def test_claim_that_yields_twice_raises(self, monkeypatch):
        def twice(inst):
            [first] = yield [(r_spec(3, 1, inst.p), 1)]
            [second] = yield [(r_spec(3, 2, inst.p), 1)]
            return first, second, inst.p, ""

        monkeypatch.setitem(CLAIMS, "TEST-TWICE", Claim("TEST-TWICE", "n/a", (("p", (5,)),), (), twice))
        with pytest.raises(RuntimeError, match="TEST-TWICE yielded a second time"):
            sweep(["TEST-TWICE"])

    def test_custom_registry_with_false_claim(self, monkeypatch):
        def false(inst):
            yield []
            return 0, 1, inst.p, ""

        false_claim = Claim("TEST-FALSE", "0 == 1 (mod p)", (("p", (5,)),), (), false)
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

    # sha256 of the json report, of the header and comp_sum rows of the cache file
    # written from a mix, and of the whole file. The reports were recorded at commit
    # 5a5bdcf, which grouped instances in input order and sorted the finished
    # reports. The comp_sum rows were re-recorded when the cross-checked sides
    # moved to their e = r + 1 keys; the whole files when the Bernoulli residues,
    # unordered sums and chain sweeps became cache rows too
    _MIX_DIGESTS = {
        2501: ("7a4e71ef1c142b68f45e10d8b0f77428a8e060fa3f706262b6fc2b79f87b3c9e",
               "69ef1e0dfd924777cd84130056bfde74a03d06d98a378ec891fbdd6c6d6680fc",
               "5229b456386f101587277c8c59eebcf0f30054e5db60a47ebcaecac0097a682e"),
        2502: ("6beac6f2c91c82e5137263216112ba1b96a2f64c79cd8390750f49c2168c777b",
               "19288739e158d294c92e78afa1f26cdce448e6cb7cae77ef387e7e436bc40a9b",
               "d732ab64d6b7b2e80ea037d94a0f2d817d8fd3544eae0c9f71e9a869bfef540a"),
    }

    @pytest.mark.parametrize("seed", sorted(_MIX_DIGESTS))
    def test_a_shuffled_mix_reports_and_caches_as_before(self, seed, tmp_path, monkeypatch):
        # catalog instances with duplicates, skip rows and tuple-p error rows, shuffled:
        # sorted once on entry, they give the same bytes at one and two workers
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rng = random.Random(seed)
        mix = rng.sample([inst for claim in CLAIMS.values() for inst in claim.grid()], 150)
        mix += rng.sample(mix, 20)
        mix += [ClaimInstance("THM-1.1-i", 7, m=1), ClaimInstance("EQ-1.1", 9), ClaimInstance("EQ-1.1", (11, 13)),
                ClaimInstance("LEM-3.5", (13,), n=5), ClaimInstance("EQ-1.1", 13)]
        rng.shuffle(mix)
        for jobs in (1, 2):
            ctx = EvalContext()
            reports = verify_instances(mix, ctx, jobs)
            assert {"pass", "skip", "error"} <= {rep.status for rep in reports}
            cache = ResidueCache(tmp_path / f"cache{jobs}.csv")
            cache.append(ctx.new_rows)
            lines = cache.path.read_bytes().splitlines(keepends=True)
            comp_sum_rows = [line for line in lines if not line.startswith((b"bernoulli,", b"mhs,", b"unordered,"))]
            digests = (hashlib.sha256(render(reports, "json").encode()).hexdigest(),
                       hashlib.sha256(b"".join(comp_sum_rows)).hexdigest(), hashlib.sha256(b"".join(lines)).hexdigest())
            assert digests == self._MIX_DIGESTS[seed], jobs

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


# In order, the (p, n) of every unit pass and the (p, part bound, e, K, N) of
# every ladder the default catalog builds: primes ascending, and within a prime
# each key as first planned by the prime's instances in ClaimInstance.sort_key
# order. At e = 1 a prime's sums share one unit pass, sized to their largest
# part count n, under the key (p, None, 1), and no ladder (p, None, 1) is
# built. The cross-checked sides, with parts below p**r read mod p**(r+1),
# climb a bounded series: EQ-1.3's lower sum, EQ-4.1's and LEM-2.3-ii's lower
# sums in (11, 11, 2) and (11, 121, 3), and LEM-2.3-i's larger-index side at
# r = 1 in (11, 11, 2) and (13, 13, 2).
_CATALOG_BUILDS = [
    (5, 3), (7, 3),
    (11, 10), (11, None, 3, 4, 220), (11, 121, 3, 4, 726), (11, 11, 2, 4, 77), (11, None, 2, 4, 165),
    (13, 10), (13, 13, 2, 4, 91), (13, None, 2, 4, 195), (13, None, 3, 4, 260),
    (17, 10), (17, None, 2, 4, 17), (19, 10), (19, None, 2, 4, 19),
    (23, 10), (23, None, 2, 4, 23), (29, 10), (29, None, 2, 4, 29),
    (31, 10), (31, None, 2, 4, 31),
    (37, 7), (41, 7), (43, 7), (47, 7),
    *((p, 3) for p in (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)),
]


def _key(build: tuple) -> tuple:
    """The plan key a build serves: (p, None, 1) for a unit pass (p, n)."""
    return build[:3] if len(build) == 5 else (build[0], None, 1)


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
        table = mhs_module._UnorderedTable

        def counting(b, p, r):
            built.append((b, p, r))
            return table(b, p, r)

        monkeypatch.setattr(mhs_module, "_UnorderedTable", counting)
        reports = sweep(["LEM-3.1", "LEM-3.4"])
        assert {rep.status for rep in reports} == {"pass"}
        assert len(built) == len({(b, p) for b, p, _ in built}) == 21
        assert {r for *_, r in built} == {3}

    def test_a_sweep_holds_only_its_last_primes_tables(self, monkeypatch):
        # each prime's context owns that prime's tables: when a table is built, every
        # table still alive is at the same prime, and none outlives the sweep
        alive = []  # a weak reference to each table built, and its prime
        table = mhs_module._UnorderedTable

        def tracked(b, p, r):
            assert {q for ref, q in alive if ref() is not None} <= {p}
            made = table(b, p, r)
            alive.append((weakref.ref(made), p))
            return made

        monkeypatch.setattr(mhs_module, "_UnorderedTable", tracked)
        reports = sweep(["LEM-3.4"], GridSpec(primes=(11, 13, 17)))
        assert {rep.status for rep in reports} == {"pass"}
        assert sorted(q for _, q in alive) == [11] * 3 + [13] * 3 + [17] * 3  # one table per b = 1, 2, 3
        assert all(ref() is None for ref, _ in alive)

    def test_a_sweep_holds_only_its_last_primes_bernoulli_residues(self, monkeypatch):
        # each B_k mod p is a term of its prime's context: a sweep computes it once, for
        # every instance that reads it, and keeps none, so a second sweep computes them again
        asked = []
        residue = verifier.bernoulli_mod_p
        monkeypatch.setattr(verifier, "bernoulli_mod_p", lambda k, p: asked.append((k, p)) or residue(k, p))
        for _ in range(2):
            reports = sweep(["EQ-1.1", "THM-1.1-i"], GridSpec(primes=primes_between(5, 97)))
            assert "pass" in {rep.status for rep in reports}
        half = len(asked) // 2
        assert asked[:half] == asked[half:] and len(set(asked)) == half and len({p for _, p in asked}) > 20

    def test_interleaved_primes_match_a_fresh_run(self):
        instances = [inst for p in (11, 13, 11) for inst in CLAIMS["LEM-3.4"].grid(GridSpec(primes=(p,)))]
        fresh = [verify(inst) for inst in instances]
        assert verify_instances(instances) == sorted(fresh, key=lambda rep: rep.instance.sort_key())
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
        assert builds == _CATALOG_BUILDS and ctx.ladder_builds == 35
        keys = [_key(args) for args in builds]
        assert len(keys) == len(set(keys))
        # the (p, part bound, e) ladder key of every evaluation, as its plan routes it
        assert set(keys) == routed
        ctx = EvalContext(cache_rows=ctx.new_rows)
        sweep(list(CLAIMS), ctx=ctx)  # a filled cache: nothing left to plan
        assert (len(builds), ctx.ladder_builds, ctx.comp_sum_evals, ctx.cache_hits) == (35, 0, 0, 414)

    def test_a_claims_route_does_not_depend_on_its_sweep_mates(self, builds, monkeypatch):
        routed = {}
        evaluate = verifier.comp_sum

        def recording(spec, modulus, plan=None):
            routed[(spec, modulus.r)] = plan.readings[(spec, modulus.r)][0]
            return evaluate(spec, modulus, plan=plan)

        monkeypatch.setattr(verifier, "comp_sum", recording)
        sweep(list(CLAIMS))
        assert [args for args in builds if len(args) == 5 and args[2] == 1] == []
        # every term of the catalog is routed as in a plan of its own
        assert all(key == compsum.Plan([term]).readings[term][0] for term, key in routed.items())
        # with EQ-4.1 and LEM-2.3-i, which cross-check them, in the same sweep
        thm = {(r_spec(7, inst.m, 11), 1) for inst in CLAIMS["THM-1.1-i"].grid(GridSpec(primes=(11,)))}
        eq51 = {(s_spec(3, 2, inst.p), 1) for inst in CLAIMS["EQ-5.1"].grid() if (inst.n, inst.m) == (3, 2)}
        assert thm and eq51
        assert all(routed[term] == (term[0].p, None, 1) for term in thm | eq51)

    def test_catalog_ladders_at_two_jobs(self):
        ctx = EvalContext()
        sweep(list(CLAIMS), ctx=ctx, jobs=2)
        assert (ctx.ladder_builds, ctx.comp_sum_evals) == (35, 414)

    def test_a_part_bound_gets_a_ladder_only_below_the_precision(self, builds):
        # the catalog, and CI's depth and cross-route grids: every key is (p, None, e),
        # at e = 1 read by a unit pass, or a ladder (p, p**R, e) with R < e
        primes = tuple(q for q in range(11, 98) if modring.is_prime(q))
        for claim_ids, grid in [(list(CLAIMS), GridSpec()),
                                (["THM-1.1-ii", "PROP-4.1"], GridSpec(rs=tuple(range(2, 9)))),
                                (["LEM-2.3-ii"], GridSpec(rs=(3,))),
                                (["EQ-1.3", "EQ-4.1", "THM-1.1-ii"], GridSpec(primes=(11, 13), rs=(2, 3))),
                                (["EQ-4.1", "LEM-2.3-i", "LEM-2.3-ii"], GridSpec(primes=primes, rs=(1,)))]:
            assert "fail" not in {rep.status for rep in sweep(claim_ids, grid)}
        keys = {_key(args) for args in builds}
        bounded = {(p, bound, e) for p, bound, e in keys if bound is not None}
        assert all(len(args) == 2 or args[2] > 1 for args in builds)
        assert all(bound in {p**R for R in range(1, e)} for p, bound, e in bounded), bounded
        # the cross-checked sides, with parts below p**r and read mod p**(r + 1)
        assert bounded == {(11, 11, 2), (11, 121, 3), (11, 1331, 4), (13, 169, 3), (13, 2197, 4),
                           *((p, p, 2) for p in primes)}

    def test_memoized_terms_are_not_planned(self, builds):
        first = EvalContext()
        sweep(["EQ-1.3", "PROP-4.1"], GridSpec(primes=(11,), rs=(2,)), ctx=first)
        del builds[:]
        ctx = EvalContext(cache_rows=first.new_rows)
        sweep(["EQ-1.3", "PROP-4.1"], GridSpec(primes=(11,), rs=(2, 3)), ctx=ctx)
        # both sums of r = 2 come from the cache, so EQ-1.3's lower sum there, which
        # would climb (11, 121, 3), is not planned. EQ-1.3's upper sum and PROP-4.1
        # at r = 3 share one evaluation: S(7,1,11**4), reduced below 7*11*4 on the
        # unbounded ladder mod 11**4; EQ-1.3's lower sum S(7,1,11**3) climbs its own
        assert builds == [(11, None, 4, 4, 297), (11, 1331, 4, 4, 1331)] and 297 < 7 * 11 * 4
        assert (ctx.comp_sum_evals, ctx.cache_hits) == (2, 2)

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
        # every term is read from the cache, so no modulus is built, and one
        # primality check serves each distinct prime of the sweep
        assert len(reports) == 1935 and len({rep.instance.p for rep in reports}) == 23
        assert counts == {"moduli": 0, "is_prime": 23}
        # cold, one modulus per distinct (p, e), each checking its prime once
        counts.update(moduli=0, is_prime=0)
        modring.prime_power.cache_clear()
        sweep(list(CLAIMS))
        assert counts == {"moduli": 37, "is_prime": 23 + 37}


class TestEvalContext:
    def test_memo_avoids_reevaluation(self):
        spec = s_spec(7, 1, 11, 2)
        ctx = EvalContext(terms=[(spec, 2)])
        v1 = ctx.comp_sum(spec, 2)
        evals = ctx.comp_sum_evals
        v2 = ctx.comp_sum(spec, 2)
        assert v1 == v2 and ctx.comp_sum_evals == evals == 1

    def test_cache_rows_short_circuit(self):
        spec = s_spec(7, 1, 11, 2)
        key = EvalContext.cache_key(spec, 2)
        true_value = comp_sum(spec, PrimePowerModulus(11, 2))
        ctx = EvalContext(cache_rows={key: true_value}, terms=[(spec, 2)])
        assert ctx.comp_sum(spec, 2) == true_value
        assert ctx.comp_sum_evals == 0 and ctx.cache_hits == 1
        assert ctx.new_rows == {}

    def test_a_term_that_raises_is_not_kept(self, monkeypatch):
        # THM-1.1-i's three instances at p = 11 share B_4: each read computes it again,
        # and each instance gets the error row
        calls = []

        def refused(k, p):
            calls.append((k, p))
            raise PoleError(f"no B_{k} mod {p} here")

        monkeypatch.setattr(verifier, "bernoulli_mod_p", refused)
        ctx = EvalContext()
        reports = sweep(["THM-1.1-i"], GridSpec(primes=(11,)), ctx=ctx)
        assert [(rep.status, rep.note) for rep in reports] == [("error", "PoleError: no B_4 mod 11 here")] * 3
        assert calls == [(4, 11)] * 3 and [key[0] for key in ctx.new_rows] == ["comp_sum"] * 3

    @pytest.mark.parametrize("term, key", [
        ((s_spec(7, 2, 11, 2), 3), ("comp_sum", 11, 2, "kind=S;n=7;m=2;e=3")),
        ((r_spec(7, 1, 11), 1), ("comp_sum", 11, 1, "kind=R;n=7;m=1;e=1")),
        ((CompSumSpec(3, 1, 5, target=7), 1), ("comp_sum", 5, 1, "kind=R;n=3;m=1;e=1;target=7")),
        (("bernoulli", 7, 1, (4,)), ("bernoulli", 7, 1, "k=4")),
        (("unordered", 11, 3, (1, (1, 1))), ("unordered", 11, 3, "b=1;alphas=1+1")),
        (("mhs", 11, 2, (10, (1, 1))), ("mhs", 11, 2, "N=10;s=1+1")),
    ], ids=["S", "R", "target", "bernoulli", "unordered", "mhs"])
    def test_cache_keys(self, term, key):
        # the cache file's params column is written from these keys: each kind's text is pinned
        assert EvalContext.cache_key(*term) == key

    def test_new_rows_collected(self):
        spec = s_spec(3, 1, 5, 1)
        ctx = EvalContext(terms=[(spec, 1)])
        value = ctx.comp_sum(spec, 1)
        assert ctx.new_rows == {EvalContext.cache_key(spec, 1): value}

    def test_a_planned_term_is_routed_once(self, monkeypatch):
        read = []
        reading = compsum._reading

        def counting(spec, e, digit_weights):
            read.append((spec, e))
            return reading(spec, e, digit_weights)

        monkeypatch.setattr(compsum, "_reading", counting)
        terms = [(s_spec(7, 2, 11, 2), 2), (s_spec(7, 2, 11, 2), 3), (s_spec(7, 2, 11, 2), 2)]
        ctx = EvalContext(terms=terms)
        for term in terms:
            ctx.comp_sum(*term)
        # once per distinct request, each by its own route
        assert read == terms[:2]
        with pytest.raises(KeyError):
            ctx.comp_sum(s_spec(3, 1, 11), 1)  # outside the plan: refused, not routed
        assert len(read) == 2

    def test_cached_values_serve_both_routes(self, evaluated):
        # S(7,2,11) mod 11 comes off the unit pass, mod 11**2 off its own ladder (11, 11, 2)
        spec = s_spec(7, 2, 11)
        rows = {EvalContext.cache_key(spec, e): comp_sum(spec, PrimePowerModulus(11, e)) for e in (1, 2)}
        ctx = EvalContext(cache_rows=rows, terms=[(spec, 1), (spec, 2)])
        assert ctx.comp_sum(spec, 2) % 11 == ctx.comp_sum(spec, 1)
        assert evaluated == [] and ctx.cache_hits == 2

    def test_a_term_outside_the_plan_raises(self, evaluated):
        spec = s_spec(7, 1, 11, 2)
        for ctx in (EvalContext(), EvalContext(terms=[(spec, 3)]), EvalContext({EvalContext.cache_key(spec, 2): 1})):
            with pytest.raises(KeyError, match=r"\(CompSumSpec\(n=7, m=1, p=11, r=2, .*\), 2\) is not in the context's plan"):
                ctx.comp_sum(spec, 2)
            assert (ctx.comp_sum_evals, ctx.cache_hits, ctx.new_rows) == (0, 0, {})
        assert evaluated == []

    def test_shared_context_across_claims(self):
        # PROP-4.1 at r = 2 computes the bounded sum at p^3 mod p^3, and LEM-2.3-ii
        # at r = 2 its lower sums at p^2 mod p^3: EQ-1.3 at r = 2 compares two of them
        first = EvalContext()
        sweep(["PROP-4.1", "LEM-2.3-ii"], GridSpec(primes=(11,), rs=(2,)), ctx=first)
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
        plans = []  # the primes of each context's planned terms, and whether a read made the context
        reading = []
        init, read = EvalContext.__init__, EvalContext.comp_sum

        def recorded_init(self, cache_rows=None, terms=()):
            terms = list(terms)
            plans.append(({EvalContext.cache_key(*term)[1] for term in terms}, bool(reading)))
            init(self, cache_rows, terms)

        def recorded_read(self, spec, mod_exp):
            reading.append(spec)
            try:
                return read(self, spec, mod_exp)
            finally:
                reading.pop()

        monkeypatch.setattr(EvalContext, "__init__", recorded_init)
        monkeypatch.setattr(EvalContext, "comp_sum", recorded_read)
        primes = sorted({rep.instance.p for rep in sweep(list(CLAIMS))})
        # the caller's context plans nothing, and each prime's context is made with its plan
        assert len(plans) == 1 + len(primes) == 24
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
        # a + b + c = (n-3)/2 with a, b, c >= 1 has no solution below n = 9
        assert _triple(5) == _triple(7) == []
        # one monomial per a <= b <= c, times its orderings: (1, 1, 2) three times at n = 11,
        # (1, 1, 3) three times and (1, 2, 2) three times at n = 13
        assert _triple(11) == [(-3 * factorial(11) // 6, 3 * 3 * 5, (3, 3, 5))]
        assert _triple(13) == [(-3 * factorial(13) // 6, 3 * 3 * 7, (3, 3, 7)),
                               (-3 * factorial(13) // 6, 3 * 5 * 5, (3, 5, 5))]
        assert [len(_triple(n)) for n in (15, 17, 19, 21)] == [3, 4, 5, 7]  # the partitions of 6..9 into 3

    def test_s7_m3_feeds_the_seven_factorial_tenth_constant(self):
        # S(7,3,p) == -5 * 6! * B(p-7), the degenerate triple-free case
        for p in (11, 13):
            lhs = comp_sum(s_spec(7, 3, p), PrimePowerModulus(p, 1))
            rhs = rational_to_residue(-5 * factorial(6), PrimePowerModulus(p, 1))
            rhs = rhs * bernoulli_mod_p(p - 7, p) % p
            assert lhs == rhs

    def test_triple_term_nonzero_for_n9(self):
        # -(9!/6) B(p-3)**3 / 27, the one triple a = b = c = 1
        [(num, den, ds)] = _triple(9)
        assert (num, den, ds) == (-factorial(9) // 6, 27, (3, 3, 3))
        value = [rational_to_residue(Fraction(num, den), PrimePowerModulus(p, 1)) * bernoulli_mod_p(p - 3, p) ** 3 % p
                 for p in (11, 13, 17)]
        assert any(value)


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


class TestBernoulliRule:
    """The rule on its own: a synthetic claim patched into CLAIMS, whose sides
    function yields (lhs, j, ds, note), then its monomials."""

    @staticmethod
    def rows(monkeypatch, sides):
        claim = Claim("TEST-RULE", "synthetic", (("p", (11, 13)),), (), partial(verifier._bernoulli_rule, sides))
        monkeypatch.setitem(CLAIMS, "TEST-RULE", claim)
        return [tuple(report)[1:6] for report in sweep(["TEST-RULE"])]

    def test_a_closed_form_left_side_is_reduced_and_no_term_is_read_for_it(self, monkeypatch):
        def sides(inst):
            p = inst.p
            b3, b5 = bernoulli_mod_p(p - 3, p), bernoulli_mod_p(p - 5, p)
            yield (3 * b5 * b3 + b3 * b3) % p * p + 5 * p**2, 1, (5, 3), "closed"
            yield 3, 1, (5, 3)
            yield 1, 1, (3, 3)

        # each B(p-d) in the order of ds, and no term for lhs
        assert next(partial(verifier._bernoulli_rule, sides)(ClaimInstance("TEST-RULE", 11))) == [
            ("bernoulli", 11, 1, (6,)), ("bernoulli", 11, 1, (8,))]
        for p, row in zip((11, 13), self.rows(monkeypatch, sides)):
            b3, b5 = bernoulli_mod_p(p - 3, p), bernoulli_mod_p(p - 5, p)
            rhs = (3 * b5 * b3 + b3 * b3) % p * p
            assert row == ("pass", rhs, rhs, p**2, "closed")

    def test_the_cofactor_is_reduced_mod_p_before_it_is_lifted(self, monkeypatch):
        # at j = 2 a numerator of 3p + 2, and two monomials whose residues sum past p
        def sides(inst):
            p = inst.p
            b3 = bernoulli_mod_p(p - 3, p)
            yield (2 * b3 + p - 1) % p * p**2 + p**3, 2, (3,), ""
            yield 3 * p + 2, 1, (3,)
            yield p - 1, 1, ()

        for p, row in zip((11, 13), self.rows(monkeypatch, sides)):
            rhs = (2 * bernoulli_mod_p(p - 3, p) + p - 1) % p * p**2
            assert row == ("pass", rhs, rhs, p**3, "") and rhs < p**3

    def test_no_monomial_is_a_right_side_of_zero(self, monkeypatch):
        assert self.rows(monkeypatch, lambda inst: iter([(4 * inst.p**2, 1, (), "")])) == [
            ("pass", 0, 0, 11**2, ""), ("pass", 0, 0, 13**2, "")]

    def test_a_denominator_divisible_by_p_is_an_error_row(self, monkeypatch):
        # 6/(-4p) is written reduced, its sign on the numerator
        rows = self.rows(monkeypatch, lambda inst: iter([(0, 0, (3,), ""), (1, 1, (3,)), (6, -4 * inst.p, ())]))
        assert rows == [("error", None, None, None, f"NonUnitError: denominator of -3/{2 * p} is divisible by {p}")
                        for p in (11, 13)]


    def test_the_monomials_are_drawn_after_the_values_arrive(self):
        drawn = []

        def sides(inst):
            yield 0, 0, (3,), ""
            drawn.append(inst.p)
            yield 1, 1, (3,)

        run = partial(verifier._bernoulli_rule, sides)(ClaimInstance("TEST-RULE", 11))
        assert next(run) == [("bernoulli", 11, 1, (8,))] and drawn == []
        with pytest.raises(StopIteration) as stop:
            run.send((5,))
        assert drawn == [11] and stop.value.value == (0, 5, 11, "")


    def test_no_rule_claim_builds_a_numerator_before_its_values_arrive(self, monkeypatch):
        # every factorial, and so every triple sum, is drawn with the monomials
        called = []
        monkeypatch.setattr(verifier, "factorial", lambda n: called.append(n) or 1)
        for claim in CLAIMS.values():
            if isinstance(claim.evaluate, partial) and claim.evaluate.func is verifier._bernoulli_rule:
                for inst in claim.grid():
                    if claim.violated(inst) is None:
                        next(claim.evaluate(inst))
        assert called == []


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
