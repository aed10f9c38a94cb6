"""README's python blocks run as written: the library-use example, and the
adding-a-claim example, whose claim passes on its whole default grid."""

import ast
import re
from pathlib import Path

from supercong import verifier
from supercong.verifier import CLAIMS, GridSpec, sweep

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)


def _block(needle: str) -> str:
    (block,) = [block for block in BLOCKS if needle in block]
    return block


def test_readme_has_two_python_blocks():
    assert len(BLOCKS) == 2


def test_the_library_use_example_runs(capsys):
    exec(compile(_block("from supercong import"), "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["66", "88", "5 pass 3 3", "7 pass 1 1", "11 pass 3 3"]


def test_the_adding_a_claim_example_passes_its_default_grid(monkeypatch):
    # the block's statements run in the verifier's namespace, and its last one is the Claim row
    *body, row = ast.parse(_block("Claim("), "README.md").body
    namespace = dict(vars(verifier))
    exec(compile(ast.Module(body, type_ignores=[]), "README.md", "exec"), namespace)
    claim = eval(compile(ast.Expression(row.value), "README.md", "eval"), namespace)
    claim = claim._replace(claim_id="README-EXAMPLE")
    monkeypatch.setitem(CLAIMS, claim.claim_id, claim)
    reports = sweep([claim.claim_id])
    assert len(reports) == len(claim.grid(GridSpec())) == 28
    assert {report.status for report in reports} == {"pass"}
