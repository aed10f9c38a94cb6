"""Report serialization: json / csv / md, byte-stable for identical inputs.

Row fields appear in a fixed order; no timestamps or volatile values are
emitted unless timings are explicitly requested, so two identical runs
produce identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable

from .verifier import ClaimInstance, ClaimReport

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


def _extra_str(instance: ClaimInstance) -> str:
    return ";".join(_param(key, value) for key, value in instance.extra)


def instance_param_string(instance: ClaimInstance) -> str:
    """CLI-ready parameter string: p=..,r=..,m=..,n=..,<extras sorted>."""
    return ",".join(_param(key, value) for key, value in instance.params().items())


def replay_command(report: ClaimReport) -> str:
    inst = report.instance
    return (
        f"supercong verify --claims {inst.claim_id} "
        f"--instance {instance_param_string(inst)} --format json"
    )


def report_row(report: ClaimReport, timings: bool = False) -> dict:
    inst = report.instance
    row = {
        "claim_id": inst.claim_id,
        "p": inst.p,
        "r": inst.r,
        "m": inst.m,
        "n": inst.n,
        "extra": _extra_str(inst),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "modulus": report.modulus,
        "status": report.status,
        "note": report.note,
        "quote_anchor": report.anchor,
        "replay": replay_command(report),
    }
    if timings:
        row["elapsed_ms"] = round(report.elapsed_ms, 3)
    return row


def render_json(reports: Iterable[ClaimReport], timings: bool = False) -> str:
    doc = {"report_fields": list(FIELDS), "reports": [report_row(r, timings) for r in reports]}
    if timings:
        doc["report_fields"].append("elapsed_ms")
    return json.dumps(doc, indent=2) + "\n"


def render_csv(reports: Iterable[ClaimReport], timings: bool = False) -> str:
    out = io.StringIO()
    fields = FIELDS + (("elapsed_ms",) if timings else ())
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    for report in reports:
        row = report_row(report, timings)
        writer.writerow(["" if row[f] is None else row[f] for f in fields])
    return out.getvalue()


def render_md(reports: Iterable[ClaimReport], timings: bool = False) -> str:
    reports = list(reports)
    lines = ["# Congruence verification report", ""]
    if not reports:
        lines.append("(no instances)")
        lines.append("")
        return "\n".join(lines)
    cols = ("p", "r", "m", "n", "extra", "lhs", "rhs", "modulus", "status", "note")
    if timings:
        cols = cols + ("elapsed_ms",)
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
            row = report_row(report, timings)
            cells = ["" if row[c] is None else str(row[c]) for c in cols]
            lines.append("| " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)


_RENDERERS = {"json": render_json, "csv": render_csv, "md": render_md}


def render(reports: Iterable[ClaimReport], fmt: str, timings: bool = False) -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}; choose one of {FORMATS}")
    return _RENDERERS[fmt](reports, timings)


def emit_report(reports: Iterable[ClaimReport], fmt: str, path=None, timings: bool = False) -> str:
    """Render and optionally write to a file; returns the rendered text."""
    text = render(reports, fmt, timings)
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text
