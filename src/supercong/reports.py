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

import io
import json
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .verifier import ClaimReport, param_texts

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


def row_values(report: ClaimReport) -> tuple:
    """The report's row, its values in FIELDS order; all three renderers read it."""
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


# json.dumps(doc, indent=2) walks the document in Python (CPython's C
# encoder serves only indent=None), so the json pieces hold the same bytes
# written directly: a fixed head, then each row from a % template made once a
# piece per claim id, anchor, status, note and types of the numbers. It fixes
# those texts, the field names and the replay's prefix; a row fills in its
# numbers and its extras' texts, made once a piece per extras tuple (a grid's
# primes share one). JSON escapes each character alone, so escaped parts join
# into the escaped whole. A row holding another type (a bool, a tuple p, an
# unhashable text) goes through json.dumps.
_JSON_HEAD = '{\n  "report_fields": [\n' + ",\n".join(
    f"    {encode_basestring_ascii(f)}" for f in FIELDS) + "\n  ],\n"
_JSON_ROW = "    {\n" + ",\n".join(
    f"      {encode_basestring_ascii(f)}: %s" for f in FIELDS) + "\n    }"
_NUMBERS = frozenset((int, type(None)))


def _json_template(claim_id, anchor, status, note, *types) -> str | None:
    """The template of a row with these texts and types of p, r, m, n, lhs, rhs
    and modulus, filled by (p, r, m, n, extra, lhs, rhs, modulus, p, r, m, n,
    replay's extras): an unset number is null in its field, nothing (%.0s) in
    the replay. None unless the texts are strs, p an int and the rest ints or None."""
    if not str == type(claim_id) == type(anchor) == type(status) == type(note) \
            or types[0] is not int or not _NUMBERS.issuperset(types):
        return None
    claim_id, anchor, status, note, replay = (encode_basestring_ascii(text).replace("%", "%%") for text in (
        claim_id, anchor, status, note, f"supercong verify --claims {claim_id} --instance "))
    numbers = ["%d" if t is int else "null%.0s" for t in types]
    replay = replay[:-1] + "p=%d" + "".join(f",{name}=%d" if t is int else "%.0s"
                                            for name, t in zip("rmn", types[1:4])) + '%s --format json"'
    return _JSON_ROW % (claim_id, *numbers[:4], "%s", *numbers[4:], status, note, anchor, replay)


def _json_extras(extra: tuple) -> tuple[str, str]:
    """The extra field's JSON text and the replay's escaped ",name=value" tail."""
    texts = param_texts(extra)
    return encode_basestring_ascii(";".join(texts)), encode_basestring_ascii("".join("," + t for t in texts))[1:-1]


def _json_pieces(reports: Iterable[ClaimReport]) -> Iterator[str]:
    """json.dumps({"report_fields": [...], "reports": [...]}, indent=2) + newline, byte for byte."""
    separator = opening = _JSON_HEAD + '  "reports": [\n'
    for chunk in _chunks(reports):
        templates, extras, rows = {}, {}, []
        for report in chunk:
            (claim_id, p, r, m, n, extra), status, lhs, rhs, mod, note, anchor = report
            key = (claim_id, anchor, status, note, type(p), type(r), type(m), type(n), type(lhs), type(rhs), type(mod))
            try:
                template = templates[key]
            except KeyError:
                template = templates[key] = _json_template(*key)
            except TypeError:  # an unhashable text, which only json.dumps writes
                template = None
            try:
                texts = extras[id(extra)]
            except KeyError:  # by id: the chunk holds every extras tuple, so no id is reused
                texts = extras[id(extra)] = _json_extras(extra)
            rows.append(template % (p, r, m, n, texts[0], lhs, rhs, mod, p, r, m, n, texts[1])
                        if template else
                        "    " + json.dumps(dict(zip(FIELDS, row_values(report))), indent=2).replace("\n", "\n    "))
        rows[0] = separator + rows[0]
        yield ",\n".join(rows)
        separator = ",\n"
    yield _JSON_HEAD + '  "reports": []\n}\n' if separator is opening else "\n  ]\n}\n"


def _csv_text(rows: Iterable) -> str:
    import csv  # only a csv report reads it

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _csv_pieces(reports: Iterable[ClaimReport]) -> Iterator[str]:
    yield _csv_text([FIELDS])
    for chunk in _chunks(reports):
        yield _csv_text(map(row_values, chunk))  # csv.writer writes None as an empty field


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
        for row in map(row_values, chunk):
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
