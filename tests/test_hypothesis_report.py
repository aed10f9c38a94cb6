"""A failing hypothesis test, run under the repository's pytest settings,
prints its falsifying example. filterwarnings turns every warning into an
error, and one raised inside hypothesis's report hook would end the run in
INTERNALERROR with no example shown."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(x):
    assert x < 10
"""


def test_a_failing_given_prints_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q",
                          "test_failing.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output
