import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from supercong.cache import COLUMNS, ResidueCache
from supercong.cli import main as cli_main
from supercong import reports as reports_mod
from supercong.reports import (
    FIELDS,
    FORMATS,
    emit_report,
    render,
    row_values,
)
from supercong.verifier import CLAIMS, ClaimInstance, ClaimReport, GridSpec, instance_from_params, sweep, verify


def row(report) -> dict:
    return dict(zip(FIELDS, row_values(report)))


@pytest.fixture(scope="module")
def passing_reports():
    return sweep(["EQ-1.1"], GridSpec(primes=(5, 7, 11)))


class TestRows:
    def test_schema_fields(self, passing_reports):
        values = row_values(passing_reports[0])
        assert len(values) == len(FIELDS)
        fields = row(passing_reports[0])
        assert fields["claim_id"] == "EQ-1.1"
        assert fields["p"] == 5
        assert fields["lhs"] == fields["rhs"] == 3
        assert fields["modulus"] == 5
        assert fields["status"] == "pass"
        assert fields["quote_anchor"]
        assert fields["replay"].startswith("supercong verify --claims EQ-1.1")

    def test_extra_and_tuple_rendering(self):
        report = verify(
            ClaimInstance("LEM-3.4", 11, n=2, extra=(("alphas", (1, 1)), ("b", 2)))
        )
        assert row(report)["extra"] == "alphas=1+1;b=2"
        assert "--instance p=11,n=2,alphas=1+1,b=2" in row_values(report)[-1]

    def test_equal_params_print_as_given(self):
        # True == 1 and (True, 2) == (1, 2), but in one render each prints as given, in either order
        given = [(("b", True), "b=True"), (("b", 1), "b=1"),
                 (("alphas", (True, 2)), "alphas=True+2"), (("alphas", (1, 2)), "alphas=1+2")]
        for order in (given, given[::-1]):
            reports = [ClaimReport(ClaimInstance("LEM-3.4", 11, n=2, extra=(param,)), "error") for param, _ in order]
            lines = render(reports, "csv").splitlines()[1:]
            assert [line.split(",")[5] for line in lines] == [text for _, text in order]
            assert render(reports, "json") == json_oracle(reports)

    @pytest.mark.parametrize("inst, extra, given", [
        (ClaimInstance("LEM-2.1", 11, n=5, m=2, extra=(("a", 1), ("a", 2))), "a=1;a=2", "p=11,m=2,n=5,a=1,a=2"),
        (ClaimInstance("EQ-1.1", 11, extra=(("p", 5),)), "p=5", "p=11,p=5"),
    ])
    def test_each_given_parameter_is_written_once(self, inst, extra, given, capsys):
        # an extra given twice or named after a field is an error row; its extra field
        # and its replay name every given parameter, none merged or dropped
        report = verify(inst)
        assert report.status == "error"
        replay = f"supercong verify --claims {inst.claim_id} --instance {given} --format json"
        values = row(report)
        assert (values["extra"], values["replay"]) == (extra, replay)
        doc = json.loads(render([report], "json"))["reports"][0]
        assert (doc["extra"], doc["replay"]) == (extra, replay)
        (fields,) = csv.DictReader(io.StringIO(render([report], "csv")))
        assert (fields["extra"], fields["replay"]) == (extra, replay)
        assert render([report], "md").splitlines()[-1].split(" | ")[4] == extra
        # the replay refuses the repeated name rather than checking another point
        assert cli_main(replay.split()[1:]) == 2
        assert "given twice" in capsys.readouterr().err

    def test_skip_row_has_empty_values(self):
        report = verify(ClaimInstance("THM-1.1-i", 7, m=1))
        fields = row(report)
        assert fields["lhs"] is None and fields["rhs"] is None and fields["modulus"] is None
        assert fields["status"] == "skip"


class TestRenderers:
    def test_json_shape(self, passing_reports):
        doc = json.loads(render(passing_reports, "json"))
        assert doc["report_fields"] == list(FIELDS)
        assert len(doc["reports"]) == 3

    def test_csv_header_and_rows(self, passing_reports):
        lines = render(passing_reports, "csv").splitlines()
        assert lines[0] == ",".join(FIELDS)
        assert len(lines) == 4

    def test_csv_empty_is_header_only(self):
        assert render([], "csv").splitlines() == [",".join(FIELDS)]

    def test_json_empty_is_valid(self):
        assert json.loads(render([], "json"))["reports"] == []

    def test_md_one_table_per_claim(self):
        reports = sweep(["EQ-1.1", "LEM-3.3"], GridSpec(primes=(11, 13)))
        text = render(reports, "md")
        headings = [line for line in text.splitlines() if line.startswith("## ")]
        assert headings == ["## EQ-1.1", "## LEM-3.3"]

    def test_md_empty(self):
        assert "(no instances)" in render([], "md")

    def test_md_cells_stay_in_their_columns(self):
        # a | in a name and in the note that quotes it, and a line break in a note
        reports = [verify(instance_from_params("EQ-1.1", {"p": 11, "a|b": 3})),
                   ClaimReport(ClaimInstance("EQ-1.1", 13), "pass", 4, 4, 13, note="two\nlines | one cell")]
        assert reports[0].status == "error" and reports[0].note == "bad parameters: EQ-1.1 does not take a|b"
        text = render(reports, "md")
        assert text == md_oracle(reports)
        rows = [line for line in text.splitlines() if line.startswith("| ")]
        assert len(rows) == 4  # the column names, the rule and two rows: no line break inside a row
        assert all(len(re.split(r"(?<!\\)\|", line)) == 12 for line in rows)  # 10 cells between 11 bars
        assert rows[2].endswith(" | a\\|b=3 |  |  |  | error | bad parameters: EQ-1.1 does not take a\\|b |")
        assert rows[3].endswith(" | pass | two<br>lines \\| one cell |")

    def test_renders_are_deterministic(self, passing_reports):
        for fmt in FORMATS:
            assert render(passing_reports, fmt) == render(passing_reports, fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "yaml")

    def test_emit_writes_file(self, tmp_path, passing_reports):
        out = tmp_path / "rep.json"
        assert emit_report(passing_reports, "json", path=out) == ""
        assert out.read_text() == render(passing_reports, "json")


def report_row(report: ClaimReport) -> dict:
    """One row as a dict of its fields, each written out by name: the oracle of row_values."""
    inst = report.instance
    params = [f"{key}={'+'.join(map(str, value))}" if isinstance(value, tuple) else f"{key}={value}"
              for key, value in inst.params()]
    return {
        "claim_id": inst.claim_id,
        "p": inst.p,
        "r": inst.r,
        "m": inst.m,
        "n": inst.n,
        "extra": ";".join(params[len(params) - len(inst.extra):]),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "modulus": report.modulus,
        "status": report.status,
        "note": report.note,
        "quote_anchor": report.anchor,
        "replay": f"supercong verify --claims {inst.claim_id} --instance {','.join(params)} --format json",
    }


def json_oracle(reports) -> str:
    """The json report as json.dumps writes it: the bytes render(reports, "json") must match."""
    doc = {"report_fields": list(FIELDS), "reports": [report_row(r) for r in reports]}
    return json.dumps(doc, indent=2) + "\n"


def csv_oracle(reports) -> str:
    """The csv report written from report_row's dicts, one field at a time."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIELDS)
    for report in reports:
        fields = report_row(report)
        writer.writerow(["" if fields[f] is None else fields[f] for f in FIELDS])
    return out.getvalue()


def md_cell(value) -> str:
    """A value as an md table cell: None empty, | escaped as \\|, a line break as <br>."""
    return "" if value is None else str(value).replace("|", "\\|").replace("\n", "<br>")


def md_oracle(reports) -> str:
    """The md report written from report_row's dicts, one field at a time."""
    reports = list(reports)
    lines = ["# Congruence verification report", ""]
    if not reports:
        return "\n".join(lines + ["(no instances)", ""])
    cols = ("p", "r", "m", "n", "extra", "lhs", "rhs", "modulus", "status", "note")
    by_claim: dict[str, list[ClaimReport]] = {}
    for report in reports:
        by_claim.setdefault(report.instance.claim_id, []).append(report)
    for claim_id in sorted(by_claim):
        group = by_claim[claim_id]
        lines += [f"## {claim_id}", "", f"`{group[0].anchor}`", "",
                  "| " + " | ".join(cols) + " |", "|" + "|".join(" --- " for _ in cols) + "|"]
        for report in group:
            fields = report_row(report)
            lines.append("| " + " | ".join(md_cell(fields[c]) for c in cols) + " |")
        lines.append("")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def catalog_reports():
    return sweep(list(CLAIMS))


class TestOracles:
    """Every renderer against its oracle over the whole default catalog
    (TestJsonBytes.test_seeded_catalog_mix takes the seeded mix)."""

    def test_catalog_json(self, catalog_reports):
        assert len(catalog_reports) == 1935
        assert render(catalog_reports, "json") == json_oracle(catalog_reports)

    def test_catalog_csv(self, catalog_reports):
        assert render(catalog_reports, "csv") == csv_oracle(catalog_reports)

    def test_catalog_md(self, catalog_reports):
        assert render(catalog_reports, "md") == md_oracle(catalog_reports)

    def test_empty(self):
        for fmt, oracle in (("json", json_oracle), ("csv", csv_oracle), ("md", md_oracle)):
            assert render([], fmt) == oracle([])


class _Sink(io.TextIOBase):
    """A text stream that counts its writes and their characters, keeping none."""

    def __init__(self):
        self.writes = self.size = 0

    def write(self, text):
        self.writes += 1
        self.size += len(text)
        return len(text)


ORACLES = {"json": json_oracle, "csv": csv_oracle, "md": md_oracle}
# the rows a piece holds, read off its text
ROWS_IN = {
    "json": lambda piece: piece.count('\n      "claim_id": '),
    "csv": lambda piece: len(list(csv.reader(io.StringIO(piece)))),  # a quoted line break stays in its row
    # each claim's table opens with two lines of its own: the column names and the rule
    "md": lambda piece: sum(line.startswith("| ") - 2 * line.startswith("## ") for line in piece.splitlines()),
}


class TestStreaming:
    """Every format is made, and written, in pieces of at most _PIECE_ROWS rows."""

    @pytest.fixture(scope="class")
    def mixes(self, catalog_reports):
        mix = sweep(["EQ-1.1", "THM-1.1-i", "LEM-3.4", "CONJ-5.1-w10"], GridSpec(primes=(7, 11, 13)))
        mix += [verify(ClaimInstance("EQ-1.1", (11, 13))), verify(ClaimInstance("LEM-3.3", 5, n=-1)),
                ClaimReport(ClaimInstance("EQ-1.1", 11), "pass", 3, 3, 11, note="caf\u00e9 \u2264 \U0001d53d"),
                verify(instance_from_params("EQ-1.1", {"p": 11, "a|b": 3})),
                ClaimReport(ClaimInstance("EQ-1.1", 13), "pass", 4, 4, 13, note="two\nlines | one cell")]
        # the json writer's templates and their fallback: bools, a str extra that JSON
        # escapes, literal %s, one claim under two anchors and with r, m and n set or
        # not, extras given twice or named after a field, and a text json.dumps writes as a list
        mix += [ClaimReport(ClaimInstance("EQ-1.1", 11), "pass", True, True, 11),
                ClaimReport(ClaimInstance("EQ-1.1", True), "pass", 3, 3, 11),
                ClaimReport(ClaimInstance("EQ-1.1", 11, m=False), "skip"),
                verify(ClaimInstance("LEM-3.4", 11, n=2, extra=(("alphas", (1, True)), ("b", True)))),
                verify(instance_from_params("EQ-1.1", {"p": 11, "name": 'say "caf\u00e9" \\ %d'})),
                ClaimReport(ClaimInstance("EQ-1.1", 11), "pass", 3, 3, 11, note="100% %s", anchor="%d %%"),
                ClaimReport(ClaimInstance("%s", 11), "fail", 1, 2, 11),
                ClaimReport(ClaimInstance("EQ-1.1", 11), "pass", 3, 3, 11, anchor="first anchor"),
                ClaimReport(ClaimInstance("EQ-1.1", 13), "pass", 4, 4, 13, anchor="second anchor"),
                *(ClaimReport(ClaimInstance("EQ-1.1", 11, r, m, n), "pass", 3, 3, 11, anchor="first anchor")
                  for r in (None, 2) for m in (None, 1) for n in (None, 7)),
                ClaimReport(ClaimInstance("EQ-1.1", 11, extra=(("p", 5),)), "error"),
                ClaimReport(ClaimInstance("EQ-1.1", 11, m=1, extra=(("m", 2), ("a", 1))), "error"),
                ClaimReport(ClaimInstance("EQ-1.1", 11, extra=(("a", 1), ("a", 2))), "error"),
                ClaimReport(ClaimInstance("EQ-1.1", 11, extra=(("r", 2),)), "error"),
                ClaimReport(ClaimInstance("EQ-1.1", 11), "error", note=["a", 1])]
        assert {r.status for r in mix} >= {"pass", "skip", "error", "finding", "fail"}
        rng = random.Random(21)
        # more than _PIECE_ROWS rows, each kind of row in several pieces
        return [catalog_reports, [], mix, rng.sample(mix, len(mix)), rng.sample(mix * 6, 6 * len(mix))]

    @pytest.mark.parametrize("fmt", sorted(ORACLES))
    def test_pieces_join_to_the_oracle(self, mixes, fmt):
        limit = reports_mod._PIECE_ROWS
        for reports in mixes:
            pieces = list(reports_mod._pieces(reports, fmt))
            assert "".join(pieces) == ORACLES[fmt](reports) == render(reports, fmt)
            assert len(pieces) <= math.ceil(len(reports) / limit) + 2
            assert max(map(ROWS_IN[fmt], pieces)) <= limit
            assert sum(map(ROWS_IN[fmt], pieces)) == len(reports) + (fmt == "csv")

    @pytest.mark.parametrize("fmt", sorted(ORACLES))
    def test_emit_writes_piece_by_piece(self, catalog_reports, fmt, monkeypatch):
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert emit_report(catalog_reports, fmt) == ""
        assert sink.size == len(render(catalog_reports, fmt))
        assert sink.writes <= math.ceil(len(catalog_reports) / reports_mod._PIECE_ROWS) + 2

    def test_emit_holds_a_piece_not_the_report(self, catalog_reports, monkeypatch):
        size = len(render(catalog_reports, "json"))
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            emit_report(catalog_reports, "json")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sink.size == size
        assert peak < size / 2


class TestJsonBytes:
    def test_empty(self):
        assert render([], "json") == json_oracle([])

    def test_none_sides(self):
        report = verify(ClaimInstance("THM-1.1-i", 7, m=1))
        assert report.lhs is None and report.rhs is None
        assert render([report], "json") == json_oracle([report])

    def test_escaped_note(self):
        note = 'caf\u00e9 \u2264 \U0001d53d "quoted" back\\slash \x00\x1f\x7f\n\t\r end'
        report = ClaimReport(ClaimInstance("EQ-1.1", 11), "pass", 3, 3, 11, note=note, anchor='a "b" \u00b5')
        text = render([report], "json")
        assert text == json_oracle([report])
        assert text.isascii() and json.loads(text)["reports"][0]["note"] == note

    def test_tuple_p_falls_back(self):
        report = verify(ClaimInstance("EQ-1.1", (11, 13)))
        assert report.status == "error"
        reports = [report, verify(ClaimInstance("EQ-1.1", 11))]
        assert render(reports, "json") == json_oracle(reports)

    def test_seeded_catalog_mix(self):
        reports = sweep(["EQ-1.1", "THM-1.1-i", "LEM-3.4", "CONJ-5.1-w10"], GridSpec(primes=(7, 11, 13)))
        reports += [verify(ClaimInstance("EQ-1.1", (11, 13))), verify(ClaimInstance("LEM-3.3", 5, n=-1)),
                    ClaimReport(ClaimInstance("EQ-1.1", 11), "pass", 3, 3, 11, note="caf\u00e9 \u2264 \U0001d53d")]
        assert {r.status for r in reports} >= {"pass", "skip", "error", "finding"}
        rng = random.Random(12)
        for size in (1, 2, 7, len(reports)):
            mix = rng.sample(reports, size)
            assert render(mix, "json") == json_oracle(mix)
            assert render(mix, "csv") == csv_oracle(mix)
            assert render(mix, "md") == md_oracle(mix)


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

    def test_each_append_that_writes_rows_syncs_them_under_its_lock(self, tmp_path, monkeypatch):
        import fcntl

        path, synced = tmp_path / "cache.csv", []

        def fsync(fd):
            # the rows are written and the lock still held: another open file cannot take it
            with open(path, "rb") as other:
                with pytest.raises(BlockingIOError):
                    fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
                synced.append(len(other.read().splitlines()))

        monkeypatch.setattr(os, "fsync", fsync)
        cache = ResidueCache(path)
        assert cache.append({("comp_sum", 5, 1, "kind=R;n=3;m=1;e=1"): 3}) == 1
        assert cache.append({("comp_sum", 5, 1, "kind=R;n=3;m=1;e=1"): 3}) == 0
        assert cache.append({}) == 0
        assert cache.append({("comp_sum", 5, 1, "kind=R;n=3;m=2;e=1"): 1,
                             ("comp_sum", 7, 1, "kind=R;n=3;m=1;e=1"): 2}) == 2
        assert synced == [2, 4]

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

    def test_the_last_e_field_counts(self, tmp_path):
        # as a dict of the params' items reads them: the last e, wherever it stands
        path = tmp_path / "cache.csv"
        for params, accepted, refused in (("kind=R;n=3;m=1;e=1;e=2", 120, 121), ("e=2;kind=R;n=3;m=1", 120, 121),
                                          ("kind=R;n=3;m=1;e=2;e=1", 10, 11), ("e=1;ee=2;e1=2;ke=2", 10, 11),
                                          ("kind=R;n=3;m=1", 10, 11), ("e=2;e;e=1", 10, 11)):
            path.write_text(f"quantity,p,r,params,residue\ncomp_sum,11,1,{params},{accepted}\n")
            assert ResidueCache(path).rows == {("comp_sum", 11, 1, params): accepted}
            path.write_text(f"quantity,p,r,params,residue\ncomp_sum,11,1,{params},{refused}\n")
            with pytest.raises(ValueError, match=f"line 2.*not canonical mod 11\\*\\*"):
                ResidueCache(path)

    @pytest.mark.parametrize("params", ["kind=R;n=3;m=1;e=", "kind=R;n=3;m=1;e", "e;kind=R", "e=1;e",
                                        "e=1=2;kind=R", "kind=R;e=x", "e=;e=1;e="])
    def test_an_e_field_without_a_number_is_malformed(self, tmp_path, params):
        path = tmp_path / "cache.csv"
        path.write_text(f"quantity,p,r,params,residue\ncomp_sum,11,1,{params},3\n")
        with pytest.raises(ValueError, match="malformed cache row.*line 2"):
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

    def test_concurrent_appends_do_not_tear(self, tmp_path, capsys):
        # two processes append 5,000 disjoint rows each, both released at once
        script = (
            "import pathlib, sys, time\n"
            "from supercong.cache import ResidueCache\n"
            "path, work, p = sys.argv[1], pathlib.Path(sys.argv[2]), int(sys.argv[3])\n"
            "rows = {('comp_sum', p, 1, f'kind=R;n={n};m=1;e=1'): n % p for n in range(5000)}\n"
            "cache = ResidueCache(path)\n"
            "(work / f'ready{p}').touch()\n"
            "deadline = time.monotonic() + 60\n"
            "while not (work / 'go').exists() and time.monotonic() < deadline:\n"
            "    time.sleep(0.001)\n"
            "cache.append(rows)\n"
        )
        path = tmp_path / "cache.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        procs = [subprocess.Popen([sys.executable, "-c", script, str(path), str(tmp_path), str(p)], env=env)
                 for p in (5, 7)]
        try:
            deadline = time.monotonic() + 60
            while not all((tmp_path / f"ready{p}").exists() for p in (5, 7)) and time.monotonic() < deadline:
                time.sleep(0.001)
            (tmp_path / "go").touch()
            codes = [proc.wait(timeout=60) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        assert codes == [0, 0]
        rows = ResidueCache(path).rows
        assert capsys.readouterr().err == ""
        assert path.read_text().count("quantity") == 1
        assert len(rows) == 10_000 and {key[1] for key in rows} == {5, 7}

    def test_torn_row_inside_the_file_still_refused(self, tmp_path):
        path = tmp_path / "cache.csv"
        path.write_text("quantity,p,r,params,residue\ncomp_sum,7,1,kind=R\ncomp_sum,5,1,e=1,3\n")
        with pytest.raises(ValueError, match="malformed"):
            ResidueCache(path)
