"""Report serialization: json / csv / md, byte-stable for identical inputs.

Row fields appear in a fixed order and no timestamps or volatile values
are emitted, so two identical runs produce identical bytes.

The API is FIELDS, FORMATS, row_values(report) (one row, its values in
FIELDS order), render(reports, fmt) (a whole report as text) and
emit_report(reports, fmt, path=None), which writes the report to the
file at path, or else to sys.stdout, and returns "". Every format is
made as a sequence of pieces of at most _PIECE_ROWS rows. emit_report
writes each piece as it is made, so a report of any length is written
holding one piece of its text; render joins the pieces.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .verifier import ClaimReport

FIELDS = (
    "claim_id",
    "p",
    "r",
    "m",
    "n",
    "extra",
    "lhs",
    "rhs",
    "modulus",
    "status",
    "note",
    "quote_anchor",
    "replay",
)

FORMATS = ("json", "csv", "md")


def _param(key: str, value) -> str:
    """key=value, with a tuple value joined by '+' (alphas=1+1+2)."""
    if isinstance(value, tuple):
        return f"{key}={'+'.join(map(str, value))}"
    return f"{key}={value}"


def row_values(report: ClaimReport) -> tuple:
    """The report's row, its values in FIELDS order; all three renderers read it."""
    inst = report.instance
    # each parameter formatted once, in replay order: p, r, m, n, then the extras,
    # which are the last len(inst.extra) entries and also fill the extra field
    params = [_param(*item) for item in inst.params().items()]
    return (
        inst.claim_id, inst.p, inst.r, inst.m, inst.n,
        ";".join(params[len(params) - len(inst.extra):]),
        report.lhs, report.rhs, report.modulus, report.status, report.note, report.anchor,
        f"supercong verify --claims {inst.claim_id} --instance {','.join(params)} --format json",
    )


# Every format is made as a sequence of pieces, each holding at most this
# many rows (about 120 KB of json), so that writing a report never holds
# more than one piece of its text.
_PIECE_ROWS = 256


def _row_chunks(reports: Iterable[ClaimReport]) -> Iterator[Iterator[tuple]]:
    """The reports' rows in runs of at most _PIECE_ROWS, each row made as it is read."""
    reports = iter(reports)
    while chunk := list(islice(reports, _PIECE_ROWS)):
        yield map(row_values, chunk)


# json.dumps(doc, indent=2) walks the document in Python (CPython's C
# encoder serves only indent=None), so the json pieces hold the same bytes
# written directly: a fixed head, and one fixed template per row filled
# with each value's JSON text. A row of ints, strs and Nones takes those
# texts from one dict per piece, so a repeated value (a claim id, an
# anchor, a status, a note, a small int) is encoded once a piece; the
# replay, new in every row, is encoded directly. A row holding any other
# type (a bool, a tuple p on an error row) goes through json.dumps.
_JSON_HEAD = '{\n  "report_fields": [\n' + ",\n".join(
    f"    {encode_basestring_ascii(f)}" for f in FIELDS) + "\n  ],\n"
_JSON_ROW = "    {\n" + ",\n".join(
    f"      {encode_basestring_ascii(f)}: %s" for f in FIELDS) + "\n    }"
_JSON_PLAIN = frozenset((int, str, type(None)))


class _JsonTexts(dict):
    """The JSON text of each int, str and None value met, computed on first use."""

    def __missing__(self, value):
        text = self[value] = (encode_basestring_ascii(value) if type(value) is str
                              else "null" if value is None else int.__repr__(value))
        return text


def _json_rows(rows: Iterable[tuple], separator: str) -> str:
    """The rows' JSON texts joined, with separator in front."""
    texts = _JsonTexts().__getitem__
    encode = encode_basestring_ascii
    rows = [_JSON_ROW % (*map(texts, row[:-1]), encode(row[-1])) if _JSON_PLAIN.issuperset(map(type, row))
            else "    " + json.dumps(dict(zip(FIELDS, row)), indent=2).replace("\n", "\n    ")
            for row in rows]
    rows[0] = separator + rows[0]
    return ",\n".join(rows)


def _json_pieces(reports: Iterable[ClaimReport]) -> Iterator[str]:
    """json.dumps({"report_fields": [...], "reports": [...]}, indent=2) + newline, byte for byte."""
    opening = _JSON_HEAD + '  "reports": [\n'
    separator = opening
    for chunk in _row_chunks(reports):
        yield _json_rows(chunk, separator)
        separator = ",\n"
    yield _JSON_HEAD + '  "reports": []\n}\n' if separator is opening else "\n  ]\n}\n"


def _csv_text(rows: Iterable) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _csv_pieces(reports: Iterable[ClaimReport]) -> Iterator[str]:
    yield _csv_text([FIELDS])
    for chunk in _row_chunks(reports):
        yield _csv_text(["" if v is None else v for v in row] for row in chunk)


_MD_COLUMNS = FIELDS[1:11]  # p .. note
_MD_TABLE_HEAD = ("| " + " | ".join(_MD_COLUMNS) + " |\n"
                  + "|" + "|".join(" --- " for _ in _MD_COLUMNS) + "|\n")


def _md_pieces(reports: Iterable[ClaimReport]) -> Iterator[str]:
    """One table per claim, claims in id order, each claim's rows in the
    order given. A sweep's reports already sort by claim id, which makes
    the stable sort here one linear pass."""
    yield "# Congruence verification report\n\n"
    claim_id = None
    for chunk in _row_chunks(sorted(reports, key=lambda report: report.instance.claim_id)):
        lines = []
        for row in chunk:
            if row[0] != claim_id:
                if claim_id is not None:
                    lines.append("\n")  # a blank line closes the previous claim's table
                claim_id = row[0]
                lines.append(f"## {claim_id}\n\n`{row[11]}`\n\n{_MD_TABLE_HEAD}")
            # a | in a cell is written \| and a line break <br>, so that each cell stays in its column
            lines.append("| " + " | ".join(["" if v is None else str(v).replace("|", "\\|").replace("\n", "<br>")
                                            for v in row[1:11]]) + " |\n")
        yield "".join(lines)
    if claim_id is None:
        yield "(no instances)\n"


_PIECES = {"json": _json_pieces, "csv": _csv_pieces, "md": _md_pieces}


def _pieces(reports: Iterable[ClaimReport], fmt: str) -> Iterator[str]:
    """The report's text in fmt, as pieces of at most _PIECE_ROWS rows each."""
    if fmt not in _PIECES:
        raise ValueError(f"unknown format {fmt!r}; choose one of {FORMATS}")
    return _PIECES[fmt](reports)


def render(reports: Iterable[ClaimReport], fmt: str) -> str:
    """The whole report in fmt, one of FORMATS."""
    return "".join(_pieces(reports, fmt))


def emit_report(reports: Iterable[ClaimReport], fmt: str, path=None) -> str:
    """Write the report piece by piece to the file at path, or else to
    sys.stdout, and return "".

    writelines makes one write per piece and drops each piece before it
    asks for the next, so one piece of the text is held at a time."""
    report = _pieces(reports, fmt)
    if path is None:
        sys.stdout.writelines(report)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(report)
    return ""
