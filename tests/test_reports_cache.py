import json

import pytest

from supercong.cache import COLUMNS, ResidueCache
from supercong.reports import (
    FIELDS,
    emit_report,
    render_csv,
    render_json,
    render_md,
    replay_command,
    report_row,
)
from supercong.verifier import ClaimInstance, GridSpec, sweep, verify


@pytest.fixture(scope="module")
def passing_reports():
    return sweep(["EQ-1.1"], GridSpec(primes=(5, 7, 11)))


class TestRows:
    def test_schema_fields(self, passing_reports):
        row = report_row(passing_reports[0])
        assert tuple(row) == FIELDS
        assert row["claim_id"] == "EQ-1.1"
        assert row["p"] == 5
        assert row["lhs"] == row["rhs"] == 3
        assert row["modulus"] == 5
        assert row["status"] == "pass"
        assert row["quote_anchor"]
        assert row["replay"].startswith("supercong verify --claims EQ-1.1")

    def test_extra_and_tuple_rendering(self):
        report = verify(
            ClaimInstance("LEM-3.4", 11, n=2, extra=(("alphas", (1, 1)), ("b", 2)))
        )
        row = report_row(report)
        assert row["extra"] == "alphas=1+1;b=2"
        assert "--instance p=11,n=2,alphas=1+1,b=2" in replay_command(report)

    def test_skip_row_has_empty_values(self):
        report = verify(ClaimInstance("THM-1.1-i", 7, m=1))
        row = report_row(report)
        assert row["lhs"] is None and row["rhs"] is None and row["modulus"] is None
        assert row["status"] == "skip"


class TestRenderers:
    def test_json_shape(self, passing_reports):
        doc = json.loads(render_json(passing_reports))
        assert doc["report_fields"] == list(FIELDS)
        assert len(doc["reports"]) == 3

    def test_csv_header_and_rows(self, passing_reports):
        lines = render_csv(passing_reports).splitlines()
        assert lines[0] == ",".join(FIELDS)
        assert len(lines) == 4

    def test_csv_empty_is_header_only(self):
        assert render_csv([]).splitlines() == [",".join(FIELDS)]

    def test_json_empty_is_valid(self):
        assert json.loads(render_json([]))["reports"] == []

    def test_md_one_table_per_claim(self):
        reports = sweep(["EQ-1.1", "LEM-3.3"], GridSpec(primes=(11, 13)))
        text = render_md(reports)
        headings = [line for line in text.splitlines() if line.startswith("## ")]
        assert headings == ["## EQ-1.1", "## LEM-3.3"]

    def test_md_empty(self):
        assert "(no instances)" in render_md([])

    def test_renders_are_deterministic(self, passing_reports):
        for renderer in (render_json, render_csv, render_md):
            assert renderer(passing_reports) == renderer(passing_reports)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")

    def test_emit_writes_file(self, tmp_path, passing_reports):
        out = tmp_path / "rep.json"
        text = emit_report(passing_reports, "json", path=out)
        assert out.read_text() == text


class TestCache:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.csv"
        cache = ResidueCache(path)
        cache.append({("comp_sum", 11, 2, "kind=S;n=7;m=1;e=2"): 88})
        again = ResidueCache(path)
        assert again.rows == {("comp_sum", 11, 2, "kind=S;n=7;m=1;e=2"): 88}
        header = path.read_text().splitlines()[0]
        assert header == ",".join(COLUMNS)

    def test_append_only_dedup(self, tmp_path):
        path = tmp_path / "cache.csv"
        cache = ResidueCache(path)
        assert cache.append({("comp_sum", 5, 1, "kind=R;n=3;m=1;e=1"): 3}) == 1
        assert cache.append({("comp_sum", 5, 1, "kind=R;n=3;m=1;e=1"): 3}) == 0
        assert len(path.read_text().splitlines()) == 2

    def test_rows_sorted_within_append(self, tmp_path):
        path = tmp_path / "cache.csv"
        ResidueCache(path).append(
            {
                ("comp_sum", 13, 1, "kind=R;n=3;m=1;e=1"): 1,
                ("comp_sum", 5, 1, "kind=R;n=3;m=1;e=1"): 2,
            }
        )
        lines = path.read_text().splitlines()
        assert lines[1].startswith("comp_sum,5,") and lines[2].startswith("comp_sum,13,")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            ResidueCache(path)

    def test_out_of_range_residue_refused(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text("quantity,p,r,params,residue\ncomp_sum,11,1,kind=R;n=3;m=1;e=1,999\n")
        with pytest.raises(ValueError, match=r"999.*line 2.*not canonical mod 11\*\*1"):
            ResidueCache(path)

    def test_residue_range_follows_the_e_field(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text("quantity,p,r,params,residue\ncomp_sum,11,1,kind=R;n=3;m=1;e=2,120\n")
        assert ResidueCache(path).rows == {("comp_sum", 11, 1, "kind=R;n=3;m=1;e=2"): 120}
        path.write_text("quantity,p,r,params,residue\ncomp_sum,11,1,kind=R;n=3;m=1;e=2,121\n")
        with pytest.raises(ValueError, match="not canonical"):
            ResidueCache(path)

    def test_malformed_rows_refused(self, tmp_path):
        path = tmp_path / "cache.csv"
        for row in ("comp_sum,11,1,kind=R;n=3;m=1;e=1,-1", "comp_sum,11,x,kind=R;e=1,3",
                    "comp_sum,11,1,kind=R;n=3;m=1;e=0,0", "comp_sum,11,1,kind=R,3,4"):
            path.write_text(f"quantity,p,r,params,residue\n{row}\ncomp_sum,5,1,e=1,3\n")
            with pytest.raises(ValueError, match="line 2"):
                ResidueCache(path)

    def test_torn_final_row_skipped_then_cut(self, tmp_path, capsys):
        path = tmp_path / "cache.csv"
        good = ("comp_sum", 5, 1, "kind=R;n=3;m=1;e=1")
        ResidueCache(path).append({good: 3})
        with path.open("a") as fh:
            fh.write("comp_sum,7,1,kind=R;n=3;m")
        cache = ResidueCache(path)
        err = capsys.readouterr().err
        assert cache.rows == {good: 3}
        assert err.count("\n") == 1 and "torn final row" in err
        fresh = ("comp_sum", 7, 1, "kind=R;n=3;m=1;e=1")
        assert cache.append({fresh: 4}) == 1
        assert path.read_text() == f"{','.join(COLUMNS)}\ncomp_sum,5,1,kind=R;n=3;m=1;e=1,3\n" \
                                   "comp_sum,7,1,kind=R;n=3;m=1;e=1,4\n"
        assert ResidueCache(path).rows == {good: 3, fresh: 4}
        assert capsys.readouterr().err == ""

    def test_torn_header_alone(self, tmp_path, capsys):
        path = tmp_path / "cache.csv"
        path.write_text("quantity,p,r,par")
        cache = ResidueCache(path)
        assert cache.rows == {}
        cache.append({("comp_sum", 5, 1, "kind=R;n=3;m=1;e=1"): 3})
        assert path.read_text().splitlines()[0] == ",".join(COLUMNS)
        assert len(ResidueCache(path).rows) == 1

    def test_torn_row_inside_the_file_still_refused(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text("quantity,p,r,params,residue\ncomp_sum,7,1,kind=R\ncomp_sum,5,1,e=1,3\n")
        with pytest.raises(ValueError, match="malformed"):
            ResidueCache(path)
