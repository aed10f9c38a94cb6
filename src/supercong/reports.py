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

One writer makes the rows of every format, from a % template a piece per
claim id, anchor, status, note, whether extras are given, and types of p,
r, m, n, lhs, rhs and modulus. Each text is written once, into its
template, by its format's cell rule: json as json.dumps writes it; csv
quoted, each " doubled, if it holds , " CR or LF (on every Python); md
with | as \\| and CR or LF as <br>; None is an empty csv or md cell. A row
fills in its numbers and its extras' two texts, made once a piece per
extras tuple. A row no template writes (a non-str text, a bool or tuple
number, an unhashable note) is row_values written by the same cell rule.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .verifier import ClaimReport, param_texts

FIELDS = ("claim_id", "p", "r", "m", "n", "extra", "lhs", "rhs", "modulus", "status", "note",
          "quote_anchor", "replay")

FORMATS = ("json", "csv", "md")


def row_values(report: ClaimReport) -> tuple:
    """The report's row, its values in FIELDS order: the fallback of every format reads it."""
    inst = report.instance
    # each given parameter written once, in replay order: p, the set r, m, n, then
    # the extras, which are the last len(inst.extra) texts and also fill the extra field
    params = param_texts(inst.params())
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


def _chunks(reports: Iterable[ClaimReport]) -> Iterator[list[ClaimReport]]:
    """The reports in runs of at most _PIECE_ROWS."""
    reports = iter(reports)
    while chunk := list(islice(reports, _PIECE_ROWS)):
        yield chunk


# json.dumps(doc, indent=2) walks the document in Python (CPython's C encoder
# serves only indent=None), so the json pieces write its bytes directly
_JSON_HEAD = '{\n  "report_fields": ' + json.dumps(FIELDS, indent=2).replace("\n", "\n  ") + ",\n"
_JSON_ROW = "    {\n" + ",\n".join(f"      {json.dumps(f)}: %s" for f in FIELDS) + "\n    }"
_NUMBERS = frozenset((int, type(None)))
_CSV_QUOTED = frozenset(',"\r\n')


def _json_cell(value) -> str:
    if type(value) is str:  # json.dumps's text of a str, without building an encoder
        return encode_basestring_ascii(value)
    return json.dumps(value, indent=2).replace("\n", "\n      ")  # a list's items indented below its field


def _csv_cell(value) -> str:
    text = "" if value is None else str(value)
    return text if _CSV_QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _md_cell(value) -> str:
    return "" if value is None else str(value).replace("|", "\\|").replace("\r", "<br>").replace("\n", "<br>")


# each format's cell rule, None's cell, row of FIELDS' 13 cells and rule for the replay's quoted extras
_RULES = {
    "json": (_json_cell, "null", lambda cells: _JSON_ROW % cells, lambda tail: _json_cell(tail)[1:-1]),
    "csv": (_csv_cell, "", lambda cells: ",".join(cells) + "\n", lambda tail: tail.replace('"', '""')),
    "md": (_md_cell, "", lambda cells: "| " + " | ".join(cells[1:11]) + " |\n", str),
}


def _template(fmt: str, claim_id, anchor, status, note, extras: bool, *types) -> str | None:
    """fmt's row template for this key, filled by (p, r, m, n, extra, lhs, rhs, modulus, p, r,
    m, n, replay's extras): an unset number is its format's None in its cell, nothing
    (%.0s) in the replay. None unless the texts are strs, p an int and the rest ints or None."""
    if not str == type(claim_id) == type(anchor) == type(status) == type(note) \
            or types[0] is not int or not _NUMBERS.issuperset(types):
        return None
    cell, null, row, _ = _RULES[fmt]
    numbers = ["%d" if t is int else null + "%.0s" for t in types]
    replay = (f"supercong verify --claims {claim_id.replace('%', '%%')} --instance p=%d"
              + "".join(f",{name}=%d" if t is int else "%.0s" for name, t in zip("rmn", types[1:4]))
              + ("," if extras else "") + "%s --format json")
    claim_id, anchor, status, note = (cell(text).replace("%", "%%") for text in (claim_id, anchor, status, note))
    template = row((claim_id, *numbers[:4], "%s", *numbers[4:], status, note, anchor, cell(replay)))
    return template + "%.0s" * 5 if fmt == "md" else template  # md shows no replay: its values write nothing


def _rows(chunk: list[ClaimReport], fmt: str) -> list[str]:
    """Each report's row in fmt: its template filled in, or else row_values by the cell rule."""
    cell, _, row, tail = _RULES[fmt]
    templates, extras, rows = {}, {}, []
    for report in chunk:
        (claim_id, p, r, m, n, extra), status, lhs, rhs, mod, note, anchor = report
        key = (claim_id, anchor, status, note, extra != (), type(p), type(r), type(m), type(n),
               type(lhs), type(rhs), type(mod))
        try:
            template = templates[key]
        except KeyError:
            template = templates[key] = _template(fmt, *key)
        except TypeError:  # an unhashable text, which only row_values writes
            template = None
        try:
            texts = extras[id(extra)]
        except KeyError:  # by id: the chunk holds every extras tuple, so no id is reused
            params = param_texts(extra)
            texts = extras[id(extra)] = cell(";".join(params)), tail(",".join(params))
        rows.append(template % (p, r, m, n, texts[0], lhs, rhs, mod, p, r, m, n, texts[1])
                    if template else row(tuple(map(cell, row_values(report)))))
    return rows


def _json_pieces(reports: Iterable[ClaimReport]) -> Iterator[str]:
    """json.dumps({"report_fields": [...], "reports": [...]}, indent=2) + newline, byte for byte."""
    separator = opening = _JSON_HEAD + '  "reports": [\n'
    for chunk in _chunks(reports):
        yield separator + ",\n".join(_rows(chunk, "json"))
        separator = ",\n"
    yield _JSON_HEAD + '  "reports": []\n}\n' if separator is opening else "\n  ]\n}\n"


def _csv_pieces(reports: Iterable[ClaimReport]) -> Iterator[str]:
    yield ",".join(FIELDS) + "\n"
    for chunk in _chunks(reports):
        yield "".join(_rows(chunk, "csv"))


_MD_COLUMNS = FIELDS[1:11]  # p .. note
_MD_TABLE_HEAD = ("| " + " | ".join(_MD_COLUMNS) + " |\n"
                  + "|" + "|".join(" --- " for _ in _MD_COLUMNS) + "|\n")


def _md_pieces(reports: Iterable[ClaimReport]) -> Iterator[str]:
    """One table per claim, claims in id order, each claim's rows in the
    order given. A sweep's reports already sort by claim id, which makes
    the stable sort here one linear pass."""
    yield "# Congruence verification report\n\n"
    claim_id = None
    for chunk in _chunks(sorted(reports, key=lambda report: report.instance.claim_id)):
        lines = []
        for report, row in zip(chunk, _rows(chunk, "md")):
            if report.instance.claim_id != claim_id:
                if claim_id is not None:
                    lines.append("\n")  # a blank line closes the previous claim's table
                claim_id = report.instance.claim_id
                lines.append(f"## {claim_id}\n\n`{report.anchor}`\n\n{_MD_TABLE_HEAD}")
            lines.append(row)
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
    """Write the report piece by piece to the file at path, or else to sys.stdout,
    and return "". writelines makes one write per piece and drops each piece
    before it asks for the next, so one piece of the text is held at a time."""
    report = _pieces(reports, fmt)
    if path is None:
        sys.stdout.writelines(report)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(report)
    return ""
