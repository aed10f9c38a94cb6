"""Self-checks of the benchmark: run with `python -m pytest bench` from the repository root.

The traced counts pinned here are those of the seed engine (numpy binary
powering, one comp_sum per distinct power). A change that alters how many
evaluations the engine makes updates them together with the claim it makes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

EXPECTED_COUNTS = {
    "catalog": {
        "compsum.calls": 407,
        "compsum.distinct_powers": 144,
        "compsum.distinct_ladders": 47,
        "compsum.max_target": 7986,
        "compsum.big_modulus_calls": 0,
        "verifier.instances": 1935,
    },
    "catalog-warm": {"compsum.calls": 0, "cache.hits": 407, "cache.rows_loaded": 407},
    "primes": {"bernoulli.distinct_primes": 16, "compsum.calls": 64, "verifier.memo_hits": 0},
}

pytestmark = pytest.mark.skipif(
    not (run.SRC / "supercong" / "cli.py").is_file(), reason="run from the root of a checkout"
)


@pytest.mark.parametrize("workload", sorted(EXPECTED_COUNTS))
def test_traced_run_matches_untraced_and_counts_repeat(workload, tmp_path):
    with run.Spawner() as spawner:
        bench_run = run.Run(run.WORKLOADS[workload], 0, tmp_path, spawner)
        bench_run.set_up()
        plain = bench_run.program()
        spans = tmp_path / "spans.json"
        traced = bench_run.child([*run.TRACER, str(spans)])
    assert traced.code == 0
    assert traced.out == plain.out, "traced report differs from the untraced one"
    assert bench_run.checker.correct, bench_run.checker.problems
    trace = json.loads(spans.read_text())
    assert trace["module"].startswith(str(run.SRC))
    metrics = run.layer_metrics(trace)
    assert {k: metrics[k] for k in EXPECTED_COUNTS[workload]} == EXPECTED_COUNTS[workload]


def test_child_peak_rss_is_its_own(tmp_path):
    ballast = bytearray(64 * 2**20)  # this process's memory must not show in a child's RSS
    ballast[:: 4096] = b"x" * len(ballast[:: 4096])
    with run.Spawner() as spawner:
        child = spawner.run([sys.executable, "-I", "-S", "-c", "pass"], tmp_path, 30.0)
    assert child.code == 0
    assert child.rss_mb < 40


def test_reference_prints_its_fixed_result(tmp_path):
    with run.Spawner() as spawner:
        ref = spawner.run(run.REFERENCE, tmp_path, 30.0)
    assert (ref.code, ref.out.strip()) == (0, run.REFERENCE_OUTPUT)


def test_golden_catalog_has_the_expected_findings():
    rows = json.loads((run.BENCH / "golden" / "catalog.json").read_text())["rows"]
    statuses = [row[6] for row in rows]
    findings = {row[0] for row in rows if row[6] == "finding"}
    assert (len(rows), statuses.count("pass"), statuses.count("finding")) == (1935, 1914, 21)
    assert findings == {"CONJ-5.1-w10"}


def test_prime_draws_are_seeded_and_spread_over_the_pool():
    pool = run.prime_pool()
    assert len(pool) == 76
    draws = [run.draw_primes(seed) for seed in range(5)]
    assert draws[0] == run.draw_primes(0)
    assert len({tuple(d) for d in draws}) == 5
    for drawn in draws:
        assert len(set(drawn)) == run.PRIME_COUNT
        assert drawn == sorted(drawn) and set(drawn) <= set(pool)


def test_checker_counts_wrong_missing_and_crashed_rows(tmp_path):
    checker = run.Checker(run.WORKLOADS["primes"], 0)
    fields = ("claim_id", "p", "r", "m", "n", "extra", "status", "lhs", "rhs", "modulus")
    reports = [dict(zip(fields, [*key, *value])) for key, value in checker.expected.items()]
    assert len(reports) == 4 * run.PRIME_COUNT
    reports[0]["lhs"] += 1
    del reports[1]
    out = json.dumps({"reports": reports}).encode()
    checker.check(run.Child(1.0, 1.0, 0, out, b""), "edited")
    assert (checker.attempted, checker.failed) == (64, 2)
    checker.check(run.Child(1.0, 1.0, 1, b"", b"boom"), "crashed")
    assert (checker.attempted, checker.failed) == (128, 66)
    assert not checker.correct


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values()
    }
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
