"""Report serialization: json / csv / md, byte-stable for identical inputs.

Row fields appear in a fixed order and no timestamps or volatile values
are emitted, so two identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii
from typing import Iterable

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


def replay_command(report: ClaimReport) -> str:
    return row_values(report)[-1]


def row_values(report: ClaimReport) -> tuple:
    """The report's row, its values in FIELDS order; all three renderers read it."""
    inst = report.instance
    # each parameter formatted once, in replay order: p, r, m, n, then the extras,
    # which are the last len(inst.extra) entries and also fill the extra field
    params = [_param(key, value) for key, value in inst.params().items()]
    return (
        inst.claim_id, inst.p, inst.r, inst.m, inst.n,
        ";".join(params[len(params) - len(inst.extra):]),
        report.lhs, report.rhs, report.modulus, report.status, report.note, report.anchor,
        f"supercong verify --claims {inst.claim_id} --instance {','.join(params)} --format json",
    )


# json.dumps(doc, indent=2) walks the document in Python (CPython's C
# encoder serves only indent=None), so render_json writes the same bytes
# itself: a fixed head, and one fixed template per row filled with each
# value's JSON text. A row of ints, strs and Nones takes those texts from
# one dict per render, so a repeated value (a claim id, an anchor, a
# status, a note, a small int) is encoded once; a row holding any other
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


def render_json(reports: Iterable[ClaimReport]) -> str:
    """json.dumps({"report_fields": [...], "reports": [...]}, indent=2) + newline, byte for byte."""
    texts = _JsonTexts().__getitem__
    rows = [_JSON_ROW % tuple(map(texts, row)) if _JSON_PLAIN.issuperset(map(type, row))
            else "    " + json.dumps(dict(zip(FIELDS, row)), indent=2).replace("\n", "\n    ")
            for row in map(row_values, reports)]
    if not rows:
        return _JSON_HEAD + '  "reports": []\n}\n'
    return _JSON_HEAD + '  "reports": [\n' + ",\n".join(rows) + "\n  ]\n}\n"


def render_csv(reports: Iterable[ClaimReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIELDS)
    writer.writerows(["" if v is None else v for v in row] for row in map(row_values, reports))
    return out.getvalue()


def render_md(reports: Iterable[ClaimReport]) -> str:
    reports = list(reports)
    lines = ["# Congruence verification report", ""]
    if not reports:
        lines.append("(no instances)")
        lines.append("")
        return "\n".join(lines)
    cols = FIELDS[1:11]  # p .. note
    by_claim: dict[str, list[ClaimReport]] = {}
    for report in reports:
        by_claim.setdefault(report.instance.claim_id, []).append(report)
    for claim_id in sorted(by_claim):
        group = by_claim[claim_id]
        lines.append(f"## {claim_id}")
        lines.append("")
        lines.append(f"`{group[0].anchor}`")
        lines.append("")
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "|".join(" --- " for _ in cols) + "|")
        for row in map(row_values, group):
            cells = ["" if v is None else str(v) for v in row[1:11]]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


_RENDERERS = {"json": render_json, "csv": render_csv, "md": render_md}


def render(reports: Iterable[ClaimReport], fmt: str) -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}; choose one of {FORMATS}")
    return _RENDERERS[fmt](reports)


def emit_report(reports: Iterable[ClaimReport], fmt: str, path=None) -> str:
    """Render and optionally write to a file; returns the rendered text."""
    text = render(reports, fmt)
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text
