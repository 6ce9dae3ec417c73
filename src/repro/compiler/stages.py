"""Compilation stages and the context they transform.

The paper's toolflow (section V-B, Fig. 8) is one staged pipeline: GCL
graph optimization, delegate partitioning, NKL lowering and scratchpad
memory planning feed a single Ncore Loadable.  This module factors that
flow into named, registered :class:`Stage` objects over a shared
:class:`CompilerContext`, so pipelines (``repro.compiler.pipeline``) can
compose, reorder and instrument them — every stage reports change-stats
(nodes folded, segments cut, SRAM bytes planned) that the driver records
on the context and emits as ``repro.obs`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.graph.gir import Graph
from repro.graph.loadable import CompiledModel, NcoreLoadable
from repro.graph.partitioner import Segment, ncore_coverage, partition
from repro.graph.passes import PassManager, default_pipeline
from repro.graph.planner import MemoryPlan, plan_memory
from repro.ncore.config import NcoreConfig
from repro.nkl.lower import lower_segment

if TYPE_CHECKING:
    from repro.ncore.codegen import MacroKernelSet


class CompilerError(RuntimeError):
    """A stage was asked to run against a context it cannot handle."""


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
    ``graph`` in place (the driver hands it a private copy unless the
    caller opted into ``in_place``), ``partition`` fills ``segments``,
    ``plan`` fills ``memory_plans``, ``lower`` fills ``loadables`` and
    ``finalize`` assembles ``model``.
    """

    graph: Graph
    config: NcoreConfig
    name: str
    verify: bool = True
    pipeline_id: str = "custom"
    collect_ir: bool = False
    pass_manager: PassManager | None = None
    segments: list[Segment] = field(default_factory=list)
    memory_plans: dict[int, MemoryPlan] = field(default_factory=dict)
    loadables: dict[int, NcoreLoadable] = field(default_factory=dict)
    macro_kernels: "MacroKernelSet | None" = None
    model: CompiledModel | None = None
    stats: list[StageStats] = field(default_factory=list)
    snapshots: dict[str, str] = field(default_factory=dict)


StageFn = Callable[[CompilerContext], dict[str, Any]]


@dataclass(frozen=True)
class Stage:
    """One named pipeline step; ``fn`` mutates the context and returns
    its change-stats dictionary."""

    name: str
    fn: StageFn
    description: str = ""

    def run(self, ctx: CompilerContext) -> dict[str, Any]:
        return self.fn(ctx)


# ----------------------------------------------------------------------
# Built-in stages (the section V-B flow)
# ----------------------------------------------------------------------


def _run_optimize(
    ctx: CompilerContext, manager_factory: Callable[[], PassManager] | None = None
) -> dict[str, Any]:
    """GCL graph optimization: run a pass pipeline to its fixed point."""
    manager = ctx.pass_manager
    if manager is None:
        manager = manager_factory() if manager_factory is not None else default_pipeline()
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

    Honors ``ctx.verify`` — a pipeline may carry the gate while a caller
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
    if not ctx.segments:
        raise CompilerError("plan stage needs partitioned segments; run 'partition' first")
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

    Consumes the ``plan`` stage's memory plans when present (the staged
    path); falls back to planning inside ``lower_segment`` otherwise, so
    a custom pipeline without an explicit plan stage still compiles.
    """
    if not ctx.segments:
        raise CompilerError("lower stage needs partitioned segments; run 'partition' first")
    kernels = 0
    compute_cycles = 0
    weight_image_bytes = 0
    for index, segment in enumerate(ctx.segments):
        if segment.target != "ncore":
            continue
        loadable = lower_segment(
            ctx.graph,
            segment,
            ctx.config,
            name=f"{ctx.name}_seg{index}",
            verify=ctx.verify,
            plan=ctx.memory_plans.get(index),
        )
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
    if not ctx.segments:
        raise CompilerError("codegen stage needs partitioned segments; run 'partition' first")
    # Imported lazily: repro.ncore.codegen pulls in the runtime kernels,
    # which import back into repro.compiler during package init.
    from repro.ncore.codegen import NodeStep, codegen_model

    stats: dict[str, Any] = {}
    kset = codegen_model(
        ctx.graph, ctx.segments, ctx.loadables, ctx.name, stats=stats
    )
    ctx.macro_kernels = kset
    stats.setdefault("kernels", 0)
    stats.setdefault("uncovered_segments", 0)
    # Float-region coverage: how much of the graph's float family (bf16
    # LSTM region, x86 float tails) the Tier-3 artifacts actually cover —
    # fused LSTM chains and float-region bound nodes, not counting the
    # dequantize that ends a quantized segment.
    stats["coverage"] = round(kset.coverage_fraction(len(ctx.segments)), 4)
    steps = [step for kernel in kset.kernels.values() for step in kernel.steps]
    fused_chains = sum(not isinstance(step, NodeStep) for step in steps)
    float_steps = fused_chains + sum(
        isinstance(step, NodeStep) and step.bound.is_float and step.op != "dequantize"
        for step in steps
    )
    if float_steps:
        stats["float_steps"] = float_steps
    if fused_chains:
        stats["fused_chains"] = fused_chains
    return stats


def _run_finalize(ctx: CompilerContext) -> dict[str, Any]:
    """Assemble the :class:`CompiledModel` from the staged artifacts."""
    if not ctx.segments:
        raise CompilerError("finalize stage needs partitioned segments")
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


def optimize_stage(
    manager_factory: Callable[[], PassManager] | None = None,
    description: str = "GCL graph optimization to a fixed point",
) -> Stage:
    """An ``optimize`` stage bound to a specific pass-pipeline factory
    (presets use this to differ without new stage names)."""

    def fn(ctx: CompilerContext) -> dict[str, Any]:
        return _run_optimize(ctx, manager_factory)

    return Stage("optimize", fn, description)


# ----------------------------------------------------------------------
# Stage registry
# ----------------------------------------------------------------------

_STAGES: dict[str, Stage] = {}


def register_stage(stage: Stage, replace: bool = False) -> Stage:
    """Register a stage under its name for name-based pipeline composition."""
    if stage.name in _STAGES and not replace:
        raise CompilerError(f"stage {stage.name!r} is already registered")
    _STAGES[stage.name] = stage
    return stage


def get_stage(name: str) -> Stage:
    try:
        return _STAGES[name]
    except KeyError:
        raise CompilerError(
            f"unknown stage {name!r}; registered: {sorted(_STAGES)}"
        ) from None


register_stage(optimize_stage())
register_stage(Stage("partition", _run_partition, "delegate split into Ncore/x86 segments"))
register_stage(Stage("verify", _run_verify, "repro.analyze GIR verification gate"))
register_stage(Stage("plan", _run_plan, "scratchpad memory planning"))
register_stage(Stage("lower", _run_lower, "NKL lowering to Ncore Loadables"))
register_stage(Stage("codegen", _run_codegen, "Tier-3 AOT macro-kernel codegen"))
register_stage(Stage("finalize", _run_finalize, "assemble the CompiledModel"))


__all__ = [
    "CompilerContext",
    "CompilerError",
    "Stage",
    "StageFn",
    "StageStats",
    "get_stage",
    "optimize_stage",
    "register_stage",
]
