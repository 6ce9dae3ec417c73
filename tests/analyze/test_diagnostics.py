"""Tests for the shared diagnostic model of ``repro.analyze``."""

import json

import pytest

from repro.analyze import (
    AnalysisError,
    AnalysisReport,
    RULES,
    Severity,
    enforce,
    render_json,
    render_text,
)
from repro.analyze.diagnostics import Location, diag, register_rule
from tests.helpers import by_rule


def _tmp_rule(id_: str, severity: Severity = Severity.ERROR):
    return register_rule(id_, severity, "temporary test rule", "only for tests")


@pytest.fixture
def rule():
    rule = _tmp_rule("tst.diagnostics")
    yield rule
    del RULES["tst.diagnostics"]


class TestRuleRegistry:
    def test_duplicate_rule_id_rejected(self, rule):
        with pytest.raises(ValueError, match="duplicate rule id"):
            _tmp_rule(rule.id)

    def test_catalog_is_populated_by_import(self):
        # importing repro.analyze loads every analyzer module
        assert any(r.startswith("gir.") for r in RULES)
        assert any(r.startswith("qnt.") for r in RULES)
        assert any(r.startswith("lay.") for r in RULES)
        assert any(r.startswith("ldb.") for r in RULES)
        assert any(r.startswith("isa.") for r in RULES)

    def test_rule_ids_follow_family_dot_name(self):
        for rule_id in RULES:
            family, _, name = rule_id.partition(".")
            assert family and name, rule_id


class TestDiagnostic:
    def test_render_carries_rule_location_and_hint(self, rule):
        d = diag(rule, "boom", artifact="g", element="n0", index=3, hint="fix it")
        text = d.render()
        assert "error[tst.diagnostics]" in text
        assert "g:n0[3]" in text
        assert "boom" in text
        assert "(hint: fix it)" in text

    def test_to_json_omits_empty_fields(self, rule):
        d = diag(rule, "boom", artifact="g", element="n0")
        data = d.to_json()
        assert data["rule"] == rule.id
        assert data["severity"] == "error"
        assert "index" not in data
        assert "hint" not in data

    def test_severity_override(self, rule):
        d = diag(rule, "boom", severity=Severity.WARNING)
        assert d.severity is Severity.WARNING

    def test_location_str(self):
        assert str(Location()) == "<unknown>"
        assert str(Location("g", "n", 2)) == "g:n[2]"
        assert str(Location(element="n")) == "n"


class TestReport:
    def test_filters_and_ok(self, rule):
        report = AnalysisReport()
        report.extend([
            diag(rule, "e1"),
            diag(rule, "w1", severity=Severity.WARNING),
            diag(rule, "i1", severity=Severity.INFO),
        ])
        assert not report.ok
        assert len(report.errors) == 1
        assert len(report.warnings) == 1
        assert report.sorted()[0].severity is Severity.ERROR
        assert len(by_rule(report, rule.id)) == 3
        assert len(report) == 3

    def test_suppress_returns_filtered_copy(self, rule):
        report = AnalysisReport([diag(rule, "e1")])
        clean = report.suppress([rule.id])
        assert clean.ok and len(clean) == 0
        assert len(report) == 1  # original untouched

    def test_sorted_puts_errors_first(self, rule):
        report = AnalysisReport([
            diag(rule, "note", severity=Severity.INFO),
            diag(rule, "bad"),
        ])
        assert report.sorted()[0].severity is Severity.ERROR

    def test_empty_report_is_ok(self):
        report = AnalysisReport()
        assert report.ok
        assert not report.sorted()


class TestEnforce:
    def test_clean_report_passes_through(self):
        report = AnalysisReport()
        assert enforce(report, context="x") is report

    def test_errors_raise_with_context(self, rule):
        report = AnalysisReport([diag(rule, "the machine would hang")])
        with pytest.raises(AnalysisError) as exc_info:
            enforce(report, context="seg0")
        message = str(exc_info.value)
        assert "seg0" in message
        assert rule.id in message
        assert exc_info.value.report is report

    def test_warnings_do_not_raise(self, rule):
        report = AnalysisReport([diag(rule, "meh", severity=Severity.WARNING)])
        assert enforce(report) is report


class TestRenderers:
    def test_text_summary_counts(self, rule):
        report = AnalysisReport([
            diag(rule, "e1"),
            diag(rule, "w1", severity=Severity.WARNING),
        ])
        text = render_text(report)
        assert "1 error(s), 1 warning(s)" in text
        assert "error[tst.diagnostics]" in text

    def test_text_hides_info_unless_verbose(self, rule):
        report = AnalysisReport([diag(rule, "fyi", severity=Severity.INFO)])
        assert "fyi" not in render_text(report)
        assert "fyi" in render_text(report, verbose=True)

    def test_json_is_parseable(self, rule):
        report = AnalysisReport([diag(rule, "e1", artifact="g")])
        data = json.loads(render_json(report))
        assert data["ok"] is False
        assert data["errors"] == 1
        assert data["diagnostics"][0]["rule"] == rule.id
