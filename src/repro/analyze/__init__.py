"""``repro.analyze``: the "nlint" static-analysis pass stack.

Compile-time verification of every artifact the toolchain produces — GIR
graphs, Ncore Loadables and assembled instruction programs — so an illegal
DMA schedule or out-of-bounds scratchpad access is rejected with a
structured :class:`Diagnostic` instead of hanging silicon (or the
simulator) mid-run.  The compiler and the executor gate on the graph and
loadable analyzers in strict mode, and ``repro lint`` runs them from the
CLI; ``repro run --sanitize`` checks its instruction program with
:func:`analyze_program` and :func:`analyze_program_hazards` before
running it.

See ``docs/static-analysis.md`` for the rule catalog.
"""

from repro.analyze.diagnostics import (
    AnalysisError,
    AnalysisReport,
    Diagnostic,
    Location,
    Rule,
    RULES,
    Severity,
    enforce,
)
from repro.analyze.gir_rules import analyze_graph
from repro.analyze.hazard import (
    HazardGraph,
    analyze_loadable_hazards,
    analyze_program_hazards,
    build_loadable_hazard_graph,
    build_program_hazard_graph,
    render_dot,
)
from repro.analyze.loadable_rules import analyze_compiled_model, analyze_loadable
from repro.analyze.program_rules import analyze_program
from repro.analyze.render import render_json, render_text

from repro.graph.loadable import CompiledModel
from repro.ncore.config import NcoreConfig


def analyze_model(
    model: CompiledModel,
    config: NcoreConfig | None = None,
    suppress: tuple[str, ...] = (),
) -> AnalysisReport:
    """The full stack over a compiled model: graph, segments and loadables."""
    report = analyze_graph(model.graph, segments=model.segments, suppress=suppress)
    report.merge(analyze_compiled_model(model, config=config, suppress=suppress))
    return report


__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Diagnostic",
    "Location",
    "Rule",
    "RULES",
    "Severity",
    "enforce",
    "HazardGraph",
    "analyze_graph",
    "analyze_loadable",
    "analyze_loadable_hazards",
    "analyze_compiled_model",
    "analyze_model",
    "analyze_program",
    "analyze_program_hazards",
    "build_loadable_hazard_graph",
    "build_program_hazard_graph",
    "render_dot",
    "render_json",
    "render_text",
]
