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
    return report_row(report)["replay"]


def report_row(report: ClaimReport) -> dict:
    inst = report.instance
    # each parameter formatted once, in replay order: p, r, m, n, then the extras,
    # which are the last len(inst.extra) entries and also fill the extra field
    params = [_param(key, value) for key, value in inst.params().items()]
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


# json.dumps(doc, indent=2) walks the document in Python (CPython's C
# encoder serves only indent=None), so render_json writes the same bytes
# itself: a fixed head, and one fixed template per row whose str, int and
# None values the C string encoder and int.__repr__ render as json does.
_JSON_HEAD = '{\n  "report_fields": [\n' + ",\n".join(
    f"    {encode_basestring_ascii(f)}" for f in FIELDS) + "\n  ],\n"
_JSON_ROW = "    {\n" + ",\n".join(
    f"      {encode_basestring_ascii(f)}: %s" for f in FIELDS) + "\n    }"
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null"}


def _json_row(row: dict) -> str:
    """One row at its depth in the document; a value of any other type
    (a bool, a tuple p on an error row) goes through json.dumps."""
    try:
        return _JSON_ROW % tuple([_JSON_SCALARS[type(v)](v) for v in row.values()])
    except KeyError:
        return "    " + json.dumps(row, indent=2).replace("\n", "\n    ")


def render_json(reports: Iterable[ClaimReport]) -> str:
    """json.dumps({"report_fields": [...], "reports": [...]}, indent=2) + newline, byte for byte."""
    rows = [_json_row(report_row(r)) for r in reports]
    if not rows:
        return _JSON_HEAD + '  "reports": []\n}\n'
    return _JSON_HEAD + '  "reports": [\n' + ",\n".join(rows) + "\n  ]\n}\n"


def render_csv(reports: Iterable[ClaimReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIELDS)
    for report in reports:
        row = report_row(report)
        writer.writerow(["" if row[f] is None else row[f] for f in FIELDS])
    return out.getvalue()


def render_md(reports: Iterable[ClaimReport]) -> str:
    reports = list(reports)
    lines = ["# Congruence verification report", ""]
    if not reports:
        lines.append("(no instances)")
        lines.append("")
        return "\n".join(lines)
    cols = ("p", "r", "m", "n", "extra", "lhs", "rhs", "modulus", "status", "note")
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
        for report in group:
            row = report_row(report)
            cells = ["" if row[c] is None else str(row[c]) for c in cols]
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
