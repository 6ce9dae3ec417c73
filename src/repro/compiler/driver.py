"""The unified compile driver: one entry point for the section V-B flow.

:func:`compile_graph` owns the whole path *graph passes -> partition ->
analyze-verify -> NKL lowering -> memory plan -> CompiledModel*:

- it fingerprints the input graph *before* any pass mutates it and
  serves byte-identical recompiles from the content-addressed
  :class:`~repro.compiler.cache.CompileCache` (the compile-once/run-many
  front end MLPerf and serving runs depend on);
- optimization runs on a private copy, so handing a graph to the
  compiler never rewrites it;
- every stage runs under a ``repro.obs`` span with change-stats recorded
  on the returned context, and ``collect_ir`` captures per-stage textual
  IR snapshots for ``repro compile --dump-ir``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.graph.gir import Graph
from repro.graph.loadable import CompiledModel
from repro.ncore.config import NcoreConfig
from repro.obs import NULL_OBSERVATION, Observation
from repro.compiler.cache import CompileCache, get_compile_cache
from repro.compiler.fingerprint import compile_key
from repro.compiler.pipeline import get_pipeline
from repro.compiler.stages import CompilerContext, StageStats

if TYPE_CHECKING:
    from repro.ncore.codegen import MacroKernelSet


class _UseDefaultCache:
    """Sentinel: 'use the process-wide cache' (distinct from None = off)."""


USE_DEFAULT_CACHE = _UseDefaultCache()


@dataclass
class CompileResult:
    """One compilation's outcome: the artifact plus its provenance."""

    model: CompiledModel
    key: str
    pipeline_id: str
    cache_hit: bool = False
    context: CompilerContext | None = None

    @property
    def macro_kernels(self) -> "MacroKernelSet | None":
        """The model's Tier-3 step programs (None without a codegen stage)."""
        return self.model.macro_kernels

    @property
    def stats(self) -> list[StageStats]:
        """Per-stage change-stats (empty on a cache hit — nothing ran)."""
        return self.context.stats if self.context is not None else []

    @property
    def snapshots(self) -> dict[str, str]:
        return self.context.snapshots if self.context is not None else {}


def compile_graph(
    graph: Graph,
    *,
    config: NcoreConfig | None = None,
    pipeline: str = "O2",
    name: str | None = None,
    verify: bool = True,
    cache: CompileCache | None | _UseDefaultCache = USE_DEFAULT_CACHE,
    collect_ir: bool = False,
    obs: Observation = NULL_OBSERVATION,
) -> CompileResult:
    """Compile ``graph`` through the ``pipeline`` preset (``O0``/``O1``/``O2``).

    ``cache`` defaults to the process-wide compile cache; pass ``None``
    to force a full compile.  ``collect_ir`` bypasses the cache (its
    point is to watch the stages run) and fills per-stage snapshots.
    The caller's graph is never rewritten: a mutating pipeline optimizes
    a copy.  ``obs`` receives the stage spans and the ``compiler.*``
    counters (the context carries it to every stage).
    """
    pipeline_obj = get_pipeline(pipeline)
    config = config if config is not None else NcoreConfig()
    effective_name = name if name is not None else graph.name

    # Content address first, on the unmutated input graph, so the key is
    # stable no matter what the optimize stage rewrites.
    key = compile_key(
        graph, config, pipeline_obj.id, name=effective_name, verify=verify
    )
    resolved_cache = (
        get_compile_cache() if isinstance(cache, _UseDefaultCache) else cache
    )
    tracer, metrics = obs
    if resolved_cache is not None and not collect_ir:
        disk_hits = resolved_cache.stats.disk_hits
        cached = resolved_cache.lookup(key)
        if metrics.enabled:
            if cached is None:
                metrics.counter("compiler.cache.misses").inc()
            else:
                metrics.counter("compiler.cache.hits").inc()
                if resolved_cache.stats.disk_hits > disk_hits:
                    metrics.counter("compiler.cache.disk_hits").inc()
        if cached is not None:
            if tracer.enabled:
                tracer.instant(
                    "compiler.cache.hit", track="compiler",
                    model=effective_name, pipeline=pipeline_obj.id,
                    key=key[:16],
                )
            return CompileResult(
                model=cached, key=key, pipeline_id=pipeline_obj.id, cache_hit=True,
            )

    ctx = CompilerContext(
        graph=graph.copy() if pipeline_obj.mutates_graph else graph,
        config=config,
        name=effective_name,
        verify=verify,
        collect_ir=collect_ir,
        obs=obs,
    )
    with tracer.span(
        "compiler.compile", track="compiler",
        model=effective_name, pipeline=pipeline_obj.id,
    ) as span:
        pipeline_obj.run(ctx)
        model = ctx.model
        assert model is not None  # every preset ends with finalize
        model.compile_info = {
            "key": key,
            "pipeline": pipeline_obj.id,
            "verified": verify,
            "stages": {s.stage: dict(s.changes) for s in ctx.stats},
        }
        span.set(
            segments=len(model.segments),
            ncore_segments=len(model.ncore_segments),
            x86_segments=len(model.x86_segments),
            key=key[:16],
        )
    if metrics.enabled:
        metrics.counter("compiler.compiles").inc()
    if resolved_cache is not None:
        resolved_cache.store(key, model)
    return CompileResult(
        model=model, key=key, pipeline_id=pipeline_obj.id,
        cache_hit=False, context=ctx,
    )


__all__ = [
    "CompileResult",
    "USE_DEFAULT_CACHE",
    "compile_graph",
]
