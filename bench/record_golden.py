#!/usr/bin/env python3
"""Record the golden reports in golden/ from the checkout in the current directory.

    python3 bench/record_golden.py

Run it from the root of the commit whose reports are the reference (the
files here come from the seed engine). For each golden set it stores the
report's sha256 and one row per report line: the row's identity
(claim_id, p, r, m, n, extra) followed by (status, lhs, rhs, modulus).
`primes` covers every prime of the pool, so any seed's draw is a subset;
its report bytes depend on the draw, so it has no digest.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run

GOLDEN_SETS = sorted({w.golden for w in run.WORKLOADS.values()})


def record(name: str, work: Path, spawner: run.Spawner) -> None:
    args = run.verify_args(run.WORKLOADS[name], 0)
    if name == "primes":
        args[args.index("--primes") + 1] = ",".join(map(str, run.prime_pool()))
    child = spawner.run([*run.PROGRAM, *args], work, 600.0)
    if child.code != 0:
        raise SystemExit(f"{name}: exit {child.code}\n{child.err.decode()}")
    reports = json.loads(child.out)["reports"]
    sha256 = hashlib.sha256(child.out).hexdigest() if name != "primes" else None
    rows = ",\n".join("  " + json.dumps([*run.row_key(r), *run.row_value(r)]) for r in reports)
    path = run.BENCH / "golden" / f"{name}.json"
    # one row per line, so that a re-recording diffs row by row
    path.write_text(
        f'{{"command": {json.dumps("supercong " + " ".join(args))},\n'
        f' "sha256": {json.dumps(sha256)},\n "rows": [\n{rows}\n]}}\n'
    )
    print(f"{path.name}: {len(reports)} rows", file=sys.stderr)


def main() -> int:
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as work, run.Spawner() as spawner:
        for name in GOLDEN_SETS:
            record(name, Path(work), spawner)
    return 0


if __name__ == "__main__":
    sys.exit(main())
