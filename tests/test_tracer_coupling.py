"""The benchmark's tracer patches the engine by name; this pins those patch points.

bench/tracer.py wraps verifier.comp_sum (reading the exponent from the
modulus argument's .r), verifier.bernoulli_mod_p (reading p from the second
positional argument), verifier.unordered_sum and others. If the engine
renames or bypasses any of them, the traced run loses its spans or fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from supercong.cli import main

ROOT = Path(__file__).resolve().parents[1]
# EQ-4.1 reads its bounded sums S(7,a,p^r) one digit deeper, mod p^(r+1), on their own
# ladder (a cross route), and its free sum R(7,m,p^r) reduced
ARGV = ["verify", "--claims", "EQ-1.1,EQ-4.1,LEM-2.3-ii,LEM-3.4", "--primes", "11", "--format", "json"]


def test_traced_cli_matches_untraced_and_sees_every_layer(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SUPERCONG_CACHE", raising=False)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, "-s", str(ROOT / "bench" / "tracer.py"), str(spans_path), *ARGV],
        capture_output=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert traced.returncode == 0, traced.stderr.decode()

    assert main(ARGV) == 0
    assert traced.stdout == capsys.readouterr().out.encode()

    spans = json.loads(spans_path.read_text())["spans"]
    names = {span[0] for span in spans}
    assert {"compsum.comp_sum", "bernoulli.mod_p", "mhs.unordered_sum"} <= names
    compsum_attrs = [span[4] for span in spans if span[0] == "compsum.comp_sum"]
    # LEM-2.3-ii evaluates at r = 1 modulo p**2: e comes from the modulus argument
    assert any(attrs["e"] != attrs["r"] for attrs in compsum_attrs)
    # EQ-4.1's free sum passes the traced name as EQ-4.1 yields it
    assert any(attrs["kind"] == "R" and attrs["n"] == 7 and attrs["r"] == 2 for attrs in compsum_attrs)
    # the Bernoulli wrapper reads p from the second positional argument
    assert all(span[4] == {"p": 11} for span in spans if span[0] == "bernoulli.mod_p")
