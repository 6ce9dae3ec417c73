"""The shared diagnostic model of the ``repro.analyze`` pass stack.

Every analyzer rule reports findings as :class:`Diagnostic` values — a rule
id, a severity, a location inside the artifact, a human message and an
optional fix hint — collected into an :class:`AnalysisReport`.  The report
is what the pipeline gate, the ``repro lint`` CLI command and the tests all
consume, so a bad artifact is rejected with the same structured diagnostic
everywhere instead of a mid-simulation ``ExecutionError``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings describe artifacts that would hang or corrupt real
    silicon (illegal DMA, out-of-bounds SRAM access, malformed graphs) and
    fail the strict pipeline gate.  ``WARNING`` findings are legal but
    almost certainly compiler bugs (dead nodes, duplicate computation).
    ``INFO`` findings are advisory (analysis budget exceeded, coverage
    notes).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalog (documented in docs/static-analysis.md)."""

    id: str
    severity: Severity
    title: str
    description: str


# The rule catalog.  Analyzer modules register their rules at import time;
# ``repro.analyze`` imports them all, so ``RULES`` is complete once the
# package is loaded.
RULES: dict[str, Rule] = {}


def register_rule(id: str, severity: Severity, title: str, description: str) -> Rule:
    """Register one rule in the catalog; returns the :class:`Rule`."""
    if id in RULES:
        raise ValueError(f"duplicate rule id {id!r}")
    rule = Rule(id=id, severity=severity, title=title, description=description)
    RULES[id] = rule
    return rule


@dataclass(frozen=True)
class Location:
    """Where inside an artifact a finding points.

    ``artifact`` names the graph / loadable / program; ``element`` the node,
    tensor, prefetch or instruction inside it; ``index`` an instruction or
    node position when one exists.
    """

    artifact: str = ""
    element: str = ""
    index: int | None = None

    def __str__(self) -> str:
        parts = [part for part in (self.artifact, self.element) if part]
        text = ":".join(parts)
        if self.index is not None:
            text += f"[{self.index}]"
        return text or "<unknown>"


@dataclass(frozen=True)
class Diagnostic:
    """One finding emitted by an analyzer rule."""

    rule: str
    severity: Severity
    location: Location
    message: str
    hint: str = ""

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "artifact": self.location.artifact,
            "element": self.location.element,
            "message": self.message,
        }
        if self.location.index is not None:
            data["index"] = self.location.index
        if self.hint:
            data["hint"] = self.hint
        return data

    def render(self) -> str:
        text = f"{self.severity.value}[{self.rule}] {self.location}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


def diag(
    rule: Rule,
    message: str,
    *,
    artifact: str = "",
    element: str = "",
    index: int | None = None,
    hint: str = "",
    severity: Severity | None = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic` for a registered rule.

    ``severity`` overrides the rule's default (used when one rule downgrades
    in specific contexts).
    """
    return Diagnostic(
        rule=rule.id,
        severity=severity if severity is not None else rule.severity,
        location=Location(artifact=artifact, element=element, index=index),
        message=message,
        hint=hint,
    )


@dataclass
class AnalysisReport:
    """All findings of one analyzer run, with filtering and rendering."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def extend(self, findings: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(findings)

    def merge(self, other: "AnalysisReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def suppress(self, rule_ids: Iterable[str]) -> "AnalysisReport":
        """A copy of this report without findings from the given rules."""
        dropped = set(rule_ids)
        return AnalysisReport(
            [d for d in self.diagnostics if d.rule not in dropped]
        )

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding is present."""
        return not self.errors

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def sorted(self) -> list[Diagnostic]:
        """Diagnostics ordered worst-first, then by location for stability."""
        return sorted(
            self.diagnostics,
            key=lambda d: (-_RANK[d.severity], d.rule, str(d.location)),
        )


class AnalysisError(RuntimeError):
    """Raised by the strict pipeline gate when a report carries errors."""

    def __init__(self, report: AnalysisReport, context: str = "") -> None:
        self.report = report
        self.context = context
        head = f"{context}: " if context else ""
        lines = [d.render() for d in report.sorted() if d.severity is Severity.ERROR]
        summary = f"{head}{len(lines)} error finding(s)"
        super().__init__("\n".join([summary, *lines]))


def enforce(report: AnalysisReport, context: str = "") -> AnalysisReport:
    """The strict gate: raise :class:`AnalysisError` if the report has
    error-severity findings; otherwise return the report unchanged."""
    if not report.ok:
        raise AnalysisError(report, context)
    return report
