"""The three compilation presets and the instrumented stage executor.

A :class:`Pipeline` is a fixed, ordered tuple of named stages with an
identity that participates in the compile-cache key — two compiles of the
same graph under different presets are different artifacts.  There are
exactly three:

- ``O0`` — no graph optimization: partition, verify, plan, lower.
- ``O1`` — structural fusions only (pad/BN/bias/activation), single
  bounded sweep; the cheap-compile preset.
- ``O2`` — the full GCL pipeline (fusions + constant folding + CSE +
  DCE) to a fixed point, plus Tier-3 AOT macro-kernel codegen; the
  paper's submission flow and the default.

``Pipeline.run`` is where cross-cutting instrumentation lives: every
stage executes under a ``repro.obs`` span on the ``compiler`` track,
its change-stats land on the context (and on the span), and — when the
context collects IR — a textual snapshot is taken after each stage for
``--dump-ir`` and the golden-IR tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.graph.passes import PassManager, default_pipeline
from repro.graph.passes import fold_batch_norm, fuse_activations, fuse_bias_add, fuse_pad
from repro.compiler.irdump import dump_context
from repro.compiler.stages import (
    CompilerContext,
    CompilerError,
    StageStats,
    _run_codegen,
    _run_finalize,
    _run_lower,
    _run_optimize,
    _run_partition,
    _run_plan,
    _run_verify,
)

#: Snapshot name for the pre-pipeline state of the graph.
INPUT_SNAPSHOT = "input"

StageFn = Callable[[CompilerContext], dict[str, Any]]


@dataclass(frozen=True)
class Pipeline:
    """One preset: its id and its ordered ``(stage name, stage)`` pairs."""

    id: str
    stages: tuple[tuple[str, StageFn], ...]

    def stage_names(self) -> list[str]:
        return [name for name, _ in self.stages]

    @property
    def mutates_graph(self) -> bool:
        """Whether a stage rewrites the input graph (optimize does)."""
        return "optimize" in self.stage_names()

    def run(self, ctx: CompilerContext) -> CompilerContext:
        """Execute every stage in order with spans, stats and snapshots."""
        tracer, metrics = ctx.obs
        if ctx.collect_ir:
            ctx.snapshots[INPUT_SNAPSHOT] = dump_context(ctx)
        for name, stage in self.stages:
            start = time.perf_counter()
            with tracer.span(
                f"compiler.{name}", track="compiler",
                model=ctx.name, pipeline=self.id,
            ) as span:
                changes = stage(ctx)
                span.set(**changes)
            seconds = time.perf_counter() - start
            ctx.stats.append(StageStats(name, seconds, changes))
            if metrics.enabled:
                metrics.counter(f"compiler.stage.{name}.runs").inc()
                metrics.histogram(
                    f"compiler.stage.{name}.seconds", unit="s"
                ).observe(seconds)
            if ctx.collect_ir:
                ctx.snapshots[name] = dump_context(ctx)
        return ctx


def _light_manager() -> PassManager:
    """O1: the structural fusions, one bounded sweep, no folding/CSE."""
    return PassManager(
        [fuse_pad, fold_batch_norm, fuse_bias_add, fuse_activations],
        max_sweeps=2,
    )


def _optimize(manager_factory: Callable[[], PassManager]) -> tuple[str, StageFn]:
    return "optimize", lambda ctx: _run_optimize(ctx, manager_factory())


_BACKEND: tuple[tuple[str, StageFn], ...] = (
    ("partition", _run_partition),
    ("verify", _run_verify),
    ("plan", _run_plan),
    ("lower", _run_lower),
)
_FINALIZE: tuple[str, StageFn] = ("finalize", _run_finalize)

#: O2 additionally runs Tier-3 codegen after lowering, so the
#: cycle-exact Loadable costs exist to stamp onto each MacroKernel.
_PRESETS = {
    "O0": Pipeline("O0", _BACKEND + (_FINALIZE,)),
    "O1": Pipeline("O1", (_optimize(_light_manager),) + _BACKEND + (_FINALIZE,)),
    "O2": Pipeline(
        "O2",
        (_optimize(default_pipeline),) + _BACKEND
        + (("codegen", _run_codegen), _FINALIZE),
    ),
}


def get_pipeline(preset: str) -> Pipeline:
    """The preset named ``O0``, ``O1`` or ``O2``."""
    try:
        return _PRESETS[preset]
    except KeyError:
        raise CompilerError(
            f"unknown pipeline {preset!r}; presets: {', '.join(_PRESETS)}"
        ) from None


__all__ = [
    "INPUT_SNAPSHOT",
    "Pipeline",
    "get_pipeline",
]
