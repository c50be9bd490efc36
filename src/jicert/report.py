"""Certificate reports: a stable JSON document plus a text rendering.

Reports are deterministic: keys are sorted, there are no timestamps, and
two runs over the same input with the same options produce identical
bytes.  The JSON form round-trips through parse_report.
"""

from __future__ import annotations

import hashlib
import json

from .certifier import BOUNDED, SystemVerdict
from .errors import InputFormatError

REPORT_TAG = "jicert-report/1"
TOOL_NAME = "jicert"
TOOL_VERSION = "0.1.0"


def input_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def make_report(
    verdict: SystemVerdict,
    *,
    digest: str,
    orders: list[int],
    degrees: list[int],
    options: dict,
) -> dict:
    """JSON-ready report dict for a certification verdict.

    options is recorded verbatim (it must be JSON-serializable); orders and
    degrees describe the input stages coarsest first.
    """
    stages = []
    bounded = False
    for sv in verdict.stages:
        checks = {}
        for name, res in sv.checks.items():
            entry: dict = {"status": res.status}
            if res.witness is not None:
                entry["witness"] = res.witness
            if res.note is not None:
                entry["note"] = res.note
            checks[name] = entry
            bounded = bounded or res.status == BOUNDED
        stages.append(
            {
                "index": sv.stage_index,
                "order": sv.order,
                "degree": sv.degree,
                "checks": checks,
            }
        )

    counts = None
    if verdict.class_counts is not None:
        counts = {
            "members": sorted(verdict.class_counts.member_names),
            "counts": list(verdict.class_counts.counts),
            "strictly_increasing": verdict.class_counts.strictly_increasing,
        }

    return {
        "format": REPORT_TAG,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "input": {
            "digest": digest,
            "stages": len(orders),
            "orders": list(orders),
            "degrees": list(degrees),
        },
        "options": dict(options),
        "stages": stages,
        "summary": verdict.summary,
        "limit_claim": verdict.limit_claim,
        "class_factor_counts": counts,
        "completeness": "bounded" if bounded else "complete",
    }


def emit_report(report: dict, format: str = "json") -> bytes:
    """Serialize a report dict to bytes, as stable JSON or as plain text."""
    if format == "json":
        return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    if format == "text":
        return _render_text(report).encode()
    raise ValueError(f"unknown report format {format!r}")


def parse_report(data: bytes) -> dict:
    try:
        doc = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"unreadable report: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != REPORT_TAG:
        raise InputFormatError(
            f"missing or unsupported report format tag (expected {REPORT_TAG!r})"
        )
    return doc


def _render_text(report: dict) -> str:
    lines = [
        f"{report['tool']['name']} {report['tool']['version']} certificate report",
        f"input: {report['input']['digest']} "
        f"({report['input']['stages']} stages)",
    ]
    for st in report["stages"]:
        lines.append(f"stage {st['index']}: order {st['order']}, degree {st['degree']}")
        for name in sorted(st["checks"]):
            entry = st["checks"][name]
            line = f"  {name}: {entry['status']}"
            if entry.get("note"):
                line += f" ({entry['note']})"
            lines.append(line)
            if entry.get("witness") is not None:
                lines.append(
                    "    witness: " + json.dumps(entry["witness"], sort_keys=True)
                )
    counts = report.get("class_factor_counts")
    if counts:
        tag = "strictly increasing" if counts["strictly_increasing"] else "not increasing"
        lines.append(
            "class factors (%s): %s (%s)"
            % (
                ", ".join(counts["members"]),
                ", ".join(map(str, counts["counts"])),
                tag,
            )
        )
    lines.append(f"summary: {report['summary']}")
    lines.append(f"limit claim: {report['limit_claim']}")
    lines.append(f"completeness: {report['completeness']}")
    return "\n".join(lines) + "\n"
