"""Named compilation pipelines and the instrumented stage executor.

A :class:`Pipeline` is an ordered tuple of registered stages with an
identity that participates in the compile-cache key — two compiles of the
same graph under different pipelines are different artifacts.  Presets:

- ``O0`` — no graph optimization: partition, verify, plan, lower.
- ``O1`` — structural fusions only (pad/BN/bias/activation), single
  bounded sweep; the cheap-compile preset.
- ``O2`` — the full GCL pipeline (fusions + constant folding + CSE +
  DCE) to a fixed point, plus Tier-3 AOT macro-kernel codegen; the
  paper's submission flow and the default.

``Pipeline.run`` is where cross-cutting instrumentation lives: every
stage executes under a ``repro.obs`` span on the ``compiler`` track, its
change-stats land on the context (and on the span), and — when the
context collects IR — a textual snapshot is taken after each stage for
``--dump-ir`` and the golden-IR tests.
"""

from __future__ import annotations

import time

from repro.graph.passes import PassManager, default_pipeline
from repro.graph.passes import fold_batch_norm, fuse_activations, fuse_bias_add, fuse_pad
from repro.compiler.irdump import dump_context
from repro.compiler.stages import (
    CompilerContext,
    CompilerError,
    Stage,
    StageStats,
    get_stage,
    optimize_stage,
)

#: Snapshot name for the pre-pipeline state of the graph.
INPUT_SNAPSHOT = "input"


class Pipeline:
    """An ordered, identified sequence of compilation stages."""

    def __init__(self, id: str, stages: tuple[Stage, ...] | list[Stage],
                 description: str = "") -> None:
        self.id = id
        self.stages = tuple(stages)
        self.description = description
        if not self.stages:
            raise CompilerError(f"pipeline {id!r} has no stages")

    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    @property
    def mutates_graph(self) -> bool:
        """Whether any stage rewrites the input graph (optimize does)."""
        return any(stage.name == "optimize" for stage in self.stages)

    # ------------------------------------------------------------------

    def run(self, ctx: CompilerContext) -> CompilerContext:
        """Execute every stage in order with spans, stats and snapshots."""
        tracer, metrics = ctx.obs
        ctx.pipeline_id = self.id
        if ctx.collect_ir and INPUT_SNAPSHOT not in ctx.snapshots:
            ctx.snapshots[INPUT_SNAPSHOT] = dump_context(ctx)
        for stage in self.stages:
            start = time.perf_counter()
            with tracer.span(
                f"compiler.{stage.name}", track="compiler",
                model=ctx.name, pipeline=self.id,
            ) as span:
                changes = stage.run(ctx)
                span.set(**changes)
            seconds = time.perf_counter() - start
            ctx.stats.append(StageStats(stage.name, seconds, changes))
            if metrics.enabled:
                metrics.counter(f"compiler.stage.{stage.name}.runs").inc()
                metrics.histogram(
                    f"compiler.stage.{stage.name}.seconds", unit="s"
                ).observe(seconds)
            if ctx.collect_ir:
                ctx.snapshots[stage.name] = dump_context(ctx)
        return ctx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Pipeline({self.id!r}, stages={self.stage_names()})"


def _light_manager() -> PassManager:
    """O1: the structural fusions, one bounded sweep, no folding/CSE."""
    return PassManager(
        [fuse_pad, fold_batch_norm, fuse_bias_add, fuse_activations],
        max_sweeps=2,
    )


_BACKEND = ("partition", "verify", "plan", "lower", "finalize")

#: The O2 backend additionally runs Tier-3 codegen after lowering, so
#: the cycle-exact Loadable costs exist to stamp onto each MacroKernel.
_BACKEND_O2 = ("partition", "verify", "plan", "lower", "codegen", "finalize")

_PIPELINES: dict[str, Pipeline] = {}


def register_pipeline(pipeline: Pipeline) -> Pipeline:
    if pipeline.id in _PIPELINES:
        raise CompilerError(f"pipeline {pipeline.id!r} is already registered")
    _PIPELINES[pipeline.id] = pipeline
    return pipeline


def get_pipeline(spec: str | Pipeline) -> Pipeline:
    """Resolve a pipeline by instance, id, or the ``default`` alias."""
    if isinstance(spec, Pipeline):
        return spec
    key = "O2" if spec == "default" else spec
    try:
        return _PIPELINES[key]
    except KeyError:
        raise CompilerError(
            f"unknown pipeline {spec!r}; registered: {sorted(_PIPELINES)} "
            "(or pass a Pipeline instance)"
        ) from None


register_pipeline(Pipeline(
    "O0",
    tuple(get_stage(name) for name in _BACKEND),
    "no graph optimization (pre-optimized or raw graphs)",
))
register_pipeline(Pipeline(
    "O1",
    (optimize_stage(_light_manager, "structural fusions, single sweep"),)
    + tuple(get_stage(name) for name in _BACKEND),
    "structural fusions only, bounded sweeps",
))
register_pipeline(Pipeline(
    "O2",
    (optimize_stage(default_pipeline, "full GCL pipeline to fixed point"),)
    + tuple(get_stage(name) for name in _BACKEND_O2),
    "full GCL optimization to a fixed point + Tier-3 codegen (default)",
))


__all__ = [
    "INPUT_SNAPSHOT",
    "Pipeline",
    "get_pipeline",
    "register_pipeline",
]
