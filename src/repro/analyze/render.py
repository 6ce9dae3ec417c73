"""Text and JSON renderers for :class:`~repro.analyze.AnalysisReport`."""

from __future__ import annotations

import json
from typing import Any

from repro.analyze.diagnostics import AnalysisReport, Severity


def render_text(report: AnalysisReport, *, verbose: bool = False) -> str:
    """Human-readable rendering, worst findings first, ending in a summary.

    ``verbose`` includes info-severity findings; by default only errors and
    warnings are listed (the summary always counts everything).
    """
    lines = []
    for diagnostic in report.sorted():
        if diagnostic.severity is Severity.INFO and not verbose:
            continue
        lines.append(diagnostic.render())
    errors = len(report.errors)
    warnings = len(report.warnings)
    infos = len(report) - errors - warnings
    summary = f"{errors} error(s), {warnings} warning(s)"
    if infos:
        summary += f", {infos} note(s)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable rendering: a stable JSON document."""
    payload: dict[str, Any] = {
        "ok": report.ok,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "diagnostics": [d.to_json() for d in report.sorted()],
    }
    return json.dumps(payload, indent=2)
