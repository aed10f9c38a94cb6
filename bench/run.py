#!/usr/bin/env python3
"""Benchmark of `supercong verify`, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh `python -m supercong.cli verify ... --format json`
child process importing the checkout's `src/`. Children run one at a time
from this process: a closed loop with one client. Each child's report is
checked row by row against golden rows recorded at the seed commit
(`golden/`), and its bytes against the golden digest and the run's other
children.

--trace 0 times untraced children and reports the end-to-end metrics,
scaled by the speed of `reference.py` children run between them.
--trace 1 alternates an untraced child, a child run under `tracer.py` and a
`--jobs 2` child, and reports the per-layer metrics derived from the spans.

The last line of stdout is the JSON result; a readable summary, with the
sample counts and the machine, goes to stderr. Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# Setup is repeated so that its median is steady; the first repetition in a
# fresh checkout also compiles the package's bytecode. The warm-up child is a
# small verify run that imports every module the workloads use.
SETUP_REPEATS = 5
WARM_UP_ARGS = ["verify", "--claims", "EQ-1.1", "--primes", "11", "--format", "json"]
CHILD_TIMEOUT_S = 60.0
# The traced run makes at least this many rounds (untraced, traced and
# --jobs 2 child), so that its overhead and speed-up medians rest on three pairs.
MIN_TRACED_ROUNDS = 3
# No child starts after this many seconds, so a run ends well within 180 s
# even if every child hits its timeout.
RUN_DEADLINE_S = 100.0

# primes: 16 primes from 401..900. The pool's 76 primes are cut into 16
# consecutive bins and the seed picks one prime per bin, so every seed brings
# unseen primes at nearly the same O(p**2) Bernoulli cost. Children of about
# 2 s give a run enough samples for a steady median on a noisy 2-core host.
PRIME_POOL = (401, 900)
PRIME_COUNT = 16


@dataclass(frozen=True)
class Workload:
    name: str
    golden: str  # file under golden/
    cache: str | None  # None, "fresh" (a new empty cache file) or "warm" (a filled copy)
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("catalog", "catalog", "fresh",
                 "the default sweep users run most: 407 comp_sum evaluations sharing 47 ladders; writes the cache"),
        Workload("catalog-warm", "catalog", "warm",
                 "the same sweep against a filled cache: 0 evaluations, so start-up, mhs and rendering carry the time"),
        Workload("primes", "primes", None,
                 "prime scale-up: 16 seeded primes in 401..900, O(p**2) Bernoulli tables and comp_sum at targets <= 3p"),
    )
}

# name -> (unit, better, bound); the same table is in BENCHMARK.json.
END_TO_END = {
    "scaled_wall_s": ("s", "lower", 0.25),
    "scaled_wall_p75_s": ("s", "lower", 0.25),
    "checks_per_scaled_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

# name -> (unit, better)
PER_LAYER = {
    "bernoulli.calls": ("count", "lower"),
    "bernoulli.self_s": ("s", "lower"),
    "bernoulli.distinct_primes": ("count", "lower"),
    "compsum.calls": ("count", "lower"),
    "compsum.self_s": ("s", "lower"),
    "compsum.distinct_powers": ("count", "lower"),
    "compsum.distinct_ladders": ("count", "lower"),
    "compsum.max_target": ("count", "lower"),
    "compsum.big_modulus_calls": ("count", "lower"),
    "mhs.calls": ("count", "lower"),
    "mhs.self_s": ("s", "lower"),
    "verifier.instances": ("count", "higher"),
    "verifier.self_s": ("s", "lower"),
    "verifier.memo_hits": ("count", "higher"),
    "verifier.jobs2_speedup": ("ratio", "higher"),
    "cache.load_s": ("s", "lower"),
    "cache.rows_loaded": ("count", "higher"),
    "cache.hits": ("count", "higher"),
    "cache.append_s": ("s", "lower"),
    "cache.rows_appended": ("count", "lower"),
    "reports.render_s": ("s", "lower"),
    "reports.bytes": ("bytes", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def prime_pool() -> list[int]:
    lo, hi = PRIME_POOL
    return [q for q in range(lo, hi + 1) if is_prime(q)]


def draw_primes(seed: int) -> list[int]:
    pool = prime_pool()
    rng = random.Random(seed)
    cuts = [round(i * len(pool) / PRIME_COUNT) for i in range(PRIME_COUNT + 1)]
    return [rng.choice(pool[a:b]) for a, b in zip(cuts, cuts[1:])]


def verify_args(workload: Workload, seed: int) -> list[str]:
    """The workload's `verify` arguments, without the cache file."""
    if workload.name == "primes":
        args = ["--claims", "EQ-1.1,THM-1.1-i", "--primes", ",".join(map(str, draw_primes(seed)))]
    else:
        args = ["--claims", "ALL"]
    return ["verify", *args, "--format", "json"]


PROGRAM = [sys.executable, "-s", "-m", "supercong.cli"]
TRACER = [sys.executable, "-s", str(BENCH / "tracer.py")]  # followed by the spans file
REFERENCE = [sys.executable, "-s", str(BENCH / "reference.py")]
REFERENCE_OUTPUT = b"1282"
# Median wall seconds of reference.py on an unloaded host (2 cores, Python
# 3.11.7, numpy 2.4.6). The timed metrics are divided by the run's own
# reference median and multiplied by this, so they read as seconds on
# that host at that speed.
REFERENCE_S = 0.45


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SUPERCONG_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    out: bytes
    err: bytes


class Spawner:
    """Runs children one at a time through spawner.py (see there for why)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: list[str], work: Path, timeout: float) -> Child:
        """Run one child to completion; its wall time covers process start to exit."""
        out, err = work / "stdout", work / "stderr"
        request = {"argv": argv, "out": str(out), "err": str(err), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return Child(reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["code"], out.read_bytes(), err.read_bytes())

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


def load_golden(workload: Workload, seed: int) -> tuple[str | None, dict[tuple, tuple]]:
    doc = json.loads((BENCH / "golden" / f"{workload.golden}.json").read_text())
    rows = {tuple(row[:6]): tuple(row[6:]) for row in doc["rows"]}
    if workload.name == "primes":
        drawn = set(draw_primes(seed))
        rows = {key: value for key, value in rows.items() if key[1] in drawn}
    return doc["sha256"], rows


def row_key(row: dict) -> tuple:
    return (row["claim_id"], row["p"], row["r"], row["m"], row["n"], row["extra"])


def row_value(row: dict) -> tuple:
    return (row["status"], row["lhs"], row["rhs"], row["modulus"])


class Checker:
    """Counts report rows that are missing, failed, errored or differ from golden."""

    def __init__(self, workload: Workload, seed: int):
        self.sha256, self.expected = load_golden(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_digest: str | None = None

    def check(self, child: Child, label: str) -> None:
        self.attempted += len(self.expected)
        if child.code != 0:
            self.failed += len(self.expected)
            tail = child.err.decode(errors="replace").strip().splitlines()[-1:]
            self.problems.append(f"{label}: exit {child.code} {' '.join(tail)}")
            return
        try:
            rows = {row_key(r): row_value(r) for r in json.loads(child.out)["reports"]}
        except (ValueError, KeyError, TypeError) as exc:
            self.failed += len(self.expected)
            self.problems.append(f"{label}: unreadable report ({exc})")
            return
        bad = sum(
            1
            for key, value in self.expected.items()
            if rows.get(key) != value or value[0] in ("fail", "error")
        )
        extra = len(rows.keys() - self.expected.keys())
        self.attempted += extra
        self.failed += bad + extra
        if bad or extra:
            self.problems.append(f"{label}: {bad} rows wrong or missing, {extra} unexpected")
        digest = hashlib.sha256(child.out).hexdigest()
        if self._first_digest is None:
            self._first_digest = digest
        if digest != self._first_digest or self.sha256 not in (None, digest):
            self.problems.append(f"{label}: report bytes differ from golden or from this run's first child")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


class Run:
    """One benchmark run: its workload, scratch directory and correctness tally."""

    def __init__(self, workload: Workload, seed: int, work: Path, spawner: Spawner):
        self.workload = workload
        self.spawner = spawner
        self.args = verify_args(workload, seed)
        self.work = work
        self.checker = Checker(workload, seed)
        self.started = perf_counter()
        self.filled_cache = work / "filled.csv"

    def timeout(self) -> float:
        left = RUN_DEADLINE_S + CHILD_TIMEOUT_S - (perf_counter() - self.started)
        return max(1.0, min(CHILD_TIMEOUT_S, left))

    def past_deadline(self) -> bool:
        return perf_counter() - self.started >= RUN_DEADLINE_S

    def another_round(self, start: float, last_round_s: float | None, seconds: float) -> bool:
        """Whether a round as long as the last one still fits the timed phase."""
        if last_round_s is None:
            return True
        return perf_counter() - start + last_round_s <= seconds and not self.past_deadline()

    def cache_args(self) -> list[str]:
        """Untimed per-child cache preparation."""
        path = self.work / "cache.csv"
        path.unlink(missing_ok=True)
        if self.workload.cache is None:
            return []
        if self.workload.cache == "warm":
            shutil.copyfile(self.filled_cache, path)
        return ["--cache", str(path)]

    def child(self, prefix: list[str], extra: tuple[str, ...] = (), label: str = "child") -> Child:
        argv = [*prefix, *self.args, *self.cache_args(), *extra]
        result = self.spawner.run(argv, self.work, self.timeout())
        self.checker.check(result, label)
        return result

    def program(self, extra: tuple[str, ...] = (), label: str = "child") -> Child:
        return self.child(PROGRAM, extra, label)

    def reference(self) -> float:
        """Wall seconds of one reference.py child (see there)."""
        ref = self.spawner.run(REFERENCE, self.work, self.timeout())
        if ref.code != 0 or ref.out.strip() != REFERENCE_OUTPUT:
            self.checker.problems.append(f"reference: exit {ref.code}, printed {ref.out[:40]!r}")
        return ref.wall_s

    def set_up(self) -> float:
        """Fill the cache (catalog-warm) and run one warm-up child; returns seconds."""
        start = perf_counter()
        if self.workload.cache == "warm":
            self.filled_cache.unlink(missing_ok=True)
            fill = self.spawner.run(
                [*PROGRAM, *self.args, "--cache", str(self.filled_cache)], self.work, self.timeout()
            )
            self.checker.check(fill, "cache fill")
        warm_up = self.spawner.run([*PROGRAM, *WARM_UP_ARGS], self.work, self.timeout())
        if warm_up.code != 0:
            self.checker.problems.append(f"warm-up: exit {warm_up.code}")
        return perf_counter() - start


def measure(run: Run, seconds: float) -> tuple[dict, str]:
    refs, setups = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(run.reference())
        setups.append(run.set_up())
    walls, rss = [], []
    start = perf_counter()
    round_s = None
    while run.another_round(start, round_s, seconds):
        round_start = perf_counter()
        refs.append(run.reference())
        child = run.program(label=f"sample {len(walls) + 1}")
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
        round_s = perf_counter() - round_start
    # Times are scaled to the reference's speed: the host's speed drifts by
    # up to a quarter over minutes, and the reference, run before every
    # set-up and sample, drifts with it.
    scale = REFERENCE_S / statistics.median(refs)
    wall = statistics.median(walls) * scale
    checks = sum(1 for value in run.checker.expected.values() if value[0] != "skip")
    values = {
        "scaled_wall_s": wall,
        # A run takes about 15 to 40 samples, too few to leave ten beyond a
        # high percentile; p90 of so few spread by 16 % across runs.
        "scaled_wall_p75_s": (statistics.quantiles(walls, n=4)[-1] if len(walls) > 1 else walls[0]) * scale,
        "checks_per_scaled_s": checks / wall,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups) * scale,
    }
    note = (
        f"{len(walls)} samples, unscaled median {statistics.median(walls):.4f} s; "
        f"reference median {statistics.median(refs):.4f} s, scale {scale:.4f}; "
        f"scaled_wall_p75_s is the upper quartile; setup_s is the median of {SETUP_REPEATS} set-ups"
    )
    return {name: (value, END_TO_END[name][0]) for name, value in values.items()}, note


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer counts and self times from one traced child's spans."""
    spans = trace["spans"]
    self_s = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start

    def named(prefix: str) -> list[int]:
        return [i for i, span in enumerate(spans) if span[0].startswith(prefix)]

    def total(prefix: str) -> float:
        return sum(self_s[i] for i in named(prefix))

    def attrs(prefix: str) -> list[dict]:
        # a call that raised has no attrs
        return [spans[i][4] for i in named(prefix) if spans[i][4] is not None]

    comp = attrs("compsum.")
    contexts = attrs("verifier.context")
    cache_hits = sum(a["cache_hit"] for a in contexts)
    return {
        "bernoulli.calls": len(named("bernoulli.")),
        "bernoulli.self_s": total("bernoulli."),
        "bernoulli.distinct_primes": len({a["p"] for a in attrs("bernoulli.")}),
        "compsum.calls": len(comp),
        "compsum.self_s": total("compsum."),
        "compsum.distinct_powers": len({(a["kind"], a["n"], a["p"], a["r"], a["e"]) for a in comp}),
        "compsum.distinct_ladders": len({(a["kind"], a["p"], a["r"], a["e"]) for a in comp}),
        "compsum.max_target": max((a["target"] for a in comp), default=0),
        # calls whose int64 convolution guard fails, sending them to exact big integers
        "compsum.big_modulus_calls": sum(
            (a["p"] ** a["e"] - 1) ** 2 * (a["target"] + 1) >= 2**63 for a in comp
        ),
        "mhs.calls": len(named("mhs.")),
        "mhs.self_s": total("mhs."),
        "verifier.instances": sum(a["instances"] for a in attrs("verifier.sweep")),
        # sweep self time, hypothesis checks, right-hand sides and lattice counts
        "verifier.self_s": total("verifier."),
        "verifier.memo_hits": len(contexts) - len(comp) - cache_hits,
        "cache.load_s": total("cache.load"),
        "cache.rows_loaded": sum(a["rows"] for a in attrs("cache.load")),
        "cache.hits": cache_hits,
        "cache.append_s": total("cache.append"),
        "cache.rows_appended": sum(a["rows"] for a in attrs("cache.append")),
        "reports.render_s": total("reports."),
        "reports.bytes": sum(a["bytes"] for a in attrs("reports.")),
        "cli.import_s": trace["import_s"],
        "trace.spans": len(spans),
    }


def measure_traced(run: Run, seconds: float) -> tuple[dict, str]:
    run.set_up()
    spans_path = run.work / "spans.json"
    tracer = [*TRACER, str(spans_path)]
    plain, traced, jobs2, layers = [], [], [], []
    start = perf_counter()
    round_s = None
    while (len(plain) < MIN_TRACED_ROUNDS and not run.past_deadline()) or run.another_round(
        start, round_s, seconds
    ):
        round_start = perf_counter()
        plain.append(run.program(label="untraced").wall_s)
        spans_path.unlink(missing_ok=True)
        traced.append(run.child(tracer, label="traced").wall_s)
        if spans_path.exists():
            trace = json.loads(spans_path.read_text())
            if not trace["module"].startswith(str(SRC)):
                run.checker.problems.append(f"traced child imported {trace['module']}")
            layers.append(layer_metrics(trace))
        jobs2.append(run.program(("--jobs", "2"), label="--jobs 2").wall_s)
        round_s = perf_counter() - round_start
    if not layers:
        raise RuntimeError("no traced child wrote its spans")
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values["verifier.jobs2_speedup"] = statistics.median(plain) / statistics.median(jobs2)
    note = f"{len(layers)} traced, {len(plain)} untraced and {len(jobs2)} --jobs 2 children"
    return {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}, note


def machine() -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, numpy {numpy}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "supercong" / "cli.py").is_file():
        print(f"error: no supercong sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        with Spawner() as spawner:
            run = Run(workload, args.seed, work, spawner)
            metrics, note = (measure_traced if args.trace else measure)(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    checker = run.checker
    print(f"{workload.name} (seed {args.seed}; {machine()}): {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"  failed_share = {checker.failed}/{checker.attempted} rows", file=sys.stderr)
    for problem in checker.problems:
        print(f"  problem: {problem}", file=sys.stderr)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
