"""Compilation stages and the context they transform.

The paper's toolflow (section V-B, Fig. 8) is one staged pipeline: GCL
graph optimization, delegate partitioning, NKL lowering and scratchpad
memory planning feed a single Ncore Loadable.  This module factors that
flow into named stage functions over a shared :class:`CompilerContext`,
which the fixed presets of ``repro.compiler.pipeline`` run in order —
every stage reports change-stats (nodes folded, segments cut, SRAM bytes
planned) that the pipeline records on the context and emits as
``repro.obs`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.graph.gir import Graph
from repro.graph.loadable import CompiledModel, NcoreLoadable
from repro.graph.partitioner import Segment, ncore_coverage, partition
from repro.graph.passes import PassManager
from repro.graph.planner import MemoryPlan, plan_memory
from repro.ncore.config import NcoreConfig
from repro.nkl.lower import lower_segment
from repro.obs import NULL_OBSERVATION, Observation

if TYPE_CHECKING:
    from repro.ncore.codegen import MacroKernelSet


class CompilerError(RuntimeError):
    """A compile was asked for something no preset provides."""


@dataclass
class StageStats:
    """What one stage did: wall time plus stage-specific change counts."""

    stage: str
    seconds: float = 0.0
    changes: dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        parts = ", ".join(f"{key}={value}" for key, value in self.changes.items())
        return f"{self.stage}: {parts} ({self.seconds * 1e3:.1f} ms)"


@dataclass
class CompilerContext:
    """Everything one compilation owns, threaded through the stages.

    Stages read and extend this context in order: ``optimize`` rewrites
    ``graph`` in place (the driver hands it a private copy), ``partition``
    fills ``segments``, ``plan`` fills ``memory_plans``, ``lower`` fills
    ``loadables`` and ``finalize`` assembles ``model``.  ``obs`` is
    where every stage reports its spans and counters.
    """

    graph: Graph
    config: NcoreConfig
    name: str
    verify: bool = True
    collect_ir: bool = False
    obs: Observation = NULL_OBSERVATION
    segments: list[Segment] = field(default_factory=list)
    memory_plans: dict[int, MemoryPlan] = field(default_factory=dict)
    loadables: dict[int, NcoreLoadable] = field(default_factory=dict)
    macro_kernels: "MacroKernelSet | None" = None
    model: CompiledModel | None = None
    stats: list[StageStats] = field(default_factory=list)
    snapshots: dict[str, str] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Built-in stages (the section V-B flow)
# ----------------------------------------------------------------------


def _run_optimize(ctx: CompilerContext, manager: PassManager) -> dict[str, Any]:
    """GCL graph optimization: run a pass pipeline to its fixed point."""
    nodes_before = len(ctx.graph.nodes)
    sweeps = manager.run(ctx.graph)
    changes: dict[str, Any] = {
        "sweeps": sweeps,
        "nodes_before": nodes_before,
        "nodes_after": len(ctx.graph.nodes),
        "nodes_removed": nodes_before - len(ctx.graph.nodes),
    }
    run_stats = manager.last_stats
    if run_stats is not None:
        changes["reached_fixed_point"] = run_stats.reached_fixed_point
        changes["pass_changes"] = {
            name: count for name, count in run_stats.pass_changes.items() if count
        }
        changes["dead_tensors_pruned"] = run_stats.dead_tensors_pruned
        if not run_stats.reached_fixed_point:
            # Surface a non-converged pass pipeline: the graph may be
            # under-optimized.
            tracer, metrics = ctx.obs
            if tracer.enabled:
                tracer.instant(
                    "passes.max_sweeps_exhausted", track="compiler",
                    graph=ctx.graph.name, max_sweeps=manager.max_sweeps,
                    still_changing=changes["pass_changes"],
                )
            if metrics.enabled:
                metrics.counter("compiler.pass_sweeps_exhausted").inc()
    return changes


def _run_partition(ctx: CompilerContext) -> dict[str, Any]:
    """Delegate-style split into maximal Ncore / x86 segments (Fig. 9)."""
    ctx.segments = partition(ctx.graph)
    ncore = sum(1 for s in ctx.segments if s.target == "ncore")
    return {
        "segments": len(ctx.segments),
        "ncore_segments": ncore,
        "x86_segments": len(ctx.segments) - ncore,
        "mac_coverage": round(ncore_coverage(ctx.graph, ctx.segments), 4),
    }


def _run_verify(ctx: CompilerContext) -> dict[str, Any]:
    """Inter-stage gate: the ``repro.analyze`` GIR verifier.

    Honors ``ctx.verify`` — every preset carries the gate, and a caller
    opts out with ``compile_graph(verify=False)``.
    """
    if not ctx.verify:
        return {"skipped": True}
    from repro.analyze import analyze_graph, enforce

    report = analyze_graph(ctx.graph, segments=ctx.segments or None)
    enforce(report, context=ctx.name)
    return {"findings": len(report.diagnostics), "ok": report.ok}


def _run_plan(ctx: CompilerContext) -> dict[str, Any]:
    """Scratchpad memory planning for every Ncore segment."""
    data_rows = 0
    weight_rows = 0
    pinned = 0
    prefetches = 0
    planned = 0
    for index, segment in enumerate(ctx.segments):
        if segment.target != "ncore":
            continue
        plan = plan_memory(ctx.graph, segment, ctx.config)
        ctx.memory_plans[index] = plan
        planned += 1
        data_rows += plan.data_rows_used
        weight_rows += plan.weight_rows_used
        pinned += 1 if plan.weights_pinned else 0
        prefetches += len(plan.prefetches)
    return {
        "planned_segments": planned,
        "data_rows": data_rows,
        "weight_rows": weight_rows,
        "sram_bytes_planned": (data_rows + weight_rows) * ctx.config.row_bytes,
        "pinned_segments": pinned,
        "streamed_segments": planned - pinned,
        "prefetches": prefetches,
    }


def _run_lower(ctx: CompilerContext) -> dict[str, Any]:
    """NKL lowering: every Ncore segment becomes a Loadable.

    Consumes the ``plan`` stage's memory plans.
    """
    from repro.analyze import analyze_loadable, enforce

    metrics = ctx.obs.metrics
    kernels = 0
    compute_cycles = 0
    weight_image_bytes = 0
    for index, segment in enumerate(ctx.segments):
        if segment.target != "ncore":
            continue
        name = f"{ctx.name}_seg{index}"
        loadable = lower_segment(
            ctx.graph, segment, ctx.config, name=name,
            plan=ctx.memory_plans[index],
        )
        if ctx.verify:
            # The Loadable verifier gate, with its hazard findings counted.
            report = analyze_loadable(ctx.graph, loadable, ctx.config)
            if metrics.enabled:
                metrics.counter("analyze.hazard.loadables").inc()
                hazards = sum(d.rule.startswith("hazard.") for d in report.diagnostics)
                if hazards:
                    metrics.counter("analyze.hazard.findings").inc(hazards)
            enforce(report, context=name)
        ctx.loadables[index] = loadable
        kernels += len(loadable.kernels)
        compute_cycles += loadable.compute_cycles
        weight_image_bytes += loadable.weight_image_bytes
    return {
        "loadables": len(ctx.loadables),
        "kernels": kernels,
        "compute_cycles": compute_cycles,
        "weight_image_bytes": weight_image_bytes,
    }


def _run_codegen(ctx: CompilerContext) -> dict[str, Any]:
    """Tier-3 AOT codegen: lower each segment to its macro-kernel.

    Produces the :class:`repro.ncore.codegen.MacroKernelSet` that
    ``finalize`` stores on the model (``CompiledModel.macro_kernels``).
    Segments with no macro-kernel form (float regions, x86-only ops) are
    recorded with a reason and keep the per-node interpreter at runtime —
    coverage is best-effort, bit-exactness is not.
    """
    # Imported lazily: repro.ncore.codegen pulls in the runtime kernels,
    # which import back into repro.compiler during package init.
    from repro.ncore.codegen import codegen_model

    stats: dict[str, Any] = {}
    kset = codegen_model(
        ctx.graph, ctx.segments, ctx.loadables, ctx.name, stats=stats
    )
    ctx.macro_kernels = kset
    metrics = ctx.obs.metrics
    if metrics.enabled:
        for key, amount in stats.items():
            metrics.counter(f"ncore.codegen.{key}").inc(amount)
    stats.setdefault("kernels", 0)
    stats.setdefault("uncovered_segments", 0)
    # Float-region coverage: how much of the graph's float family (bf16
    # LSTM region, x86 float tails) the Tier-3 artifacts actually cover —
    # float-region bound nodes, not counting the dequantize that ends a
    # quantized segment.
    stats["coverage"] = round(kset.coverage_fraction(len(ctx.segments)), 4)
    float_steps = sum(
        step.bound.is_float and step.op != "dequantize"
        for kernel in kset.kernels.values()
        for step in kernel.steps
    )
    if float_steps:
        stats["float_steps"] = float_steps
    return stats


def _run_finalize(ctx: CompilerContext) -> dict[str, Any]:
    """Assemble the :class:`CompiledModel` from the staged artifacts."""
    model = CompiledModel(
        name=ctx.name, graph=ctx.graph, segments=ctx.segments,
        macro_kernels=ctx.macro_kernels,
    )
    model.loadables.update(ctx.loadables)
    ctx.model = model
    return {
        "segments": len(model.segments),
        "ncore_segments": len(model.ncore_segments),
        "x86_segments": len(model.x86_segments),
    }


__all__ = [
    "CompilerContext",
    "CompilerError",
    "StageStats",
]
