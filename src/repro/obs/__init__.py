"""Full-stack observability: tracing, metrics and exporters (``repro.obs``).

Generalises the paper's Ncore-internal debug features (section IV-F event
log, performance counters; the Fig. 10 runtime trace) to every layer the
paper evaluates: delegate partitioning, driver and DMA traffic, Ncore
execution, the x86 fallback and the MLPerf harness.

Usage::

    from repro import obs

    observation = obs.observe()               # one live (tracer, metrics) pair
    ...  # hand it to what runs: compile_graph(obs=), ChaSoc(obs=),
         # run_server(obs=); a Profiler reads its machine's
    obs.write_chrome_trace("run.trace.json", *observation)
    print(obs.render_tracer(observation.tracer))     # Fig. 10-style text
    print(obs.prometheus_text(observation.metrics))  # OpenMetrics exposition

Serving-grade additions:

- per-query **trace contexts** (:mod:`repro.obs.context`) thread one
  causal tree per query through every stage span;
- **cycle attribution** (:mod:`repro.obs.attrib`): pure functions
  mapping compiled cycles and DMA bytes back to GIR segment -> op ->
  execution tier, with a JSONL feature harvest and flamegraph-ready
  collapsed stacks;
- the ``repro top`` dashboard (:mod:`repro.obs.top`) over the telemetry
  frames ``repro serve --telemetry`` writes.

Nothing is process-wide: an :class:`Observation` is passed to the roots
(the compiler driver, the SoC, the serving harness) and flows from there
to every instrumented object.  The default, :data:`NULL_OBSERVATION`,
makes each instrumentation point one attribute read and a failed
``.enabled`` check — preserving the paper's "no performance penalty"
claim (guarded by ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.obs.attrib import (
    collapsed_stacks,
    model_run_records,
    segment_features,
    write_harvest,
)
from repro.obs.context import TraceContext, mint_trace
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    HardwareCounter,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    labelled_name,
)
from repro.obs.prometheus import prometheus_text, write_prometheus
from repro.obs.render import render_bars, render_counters, render_tracer
from repro.obs.tracer import (
    NULL_TRACER,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
)


class Observation(NamedTuple):
    """Where one run's spans and metrics go: a tracer and a registry.

    Immutable and passed explicitly; two runs with two observations in
    one process never see each other's records.
    """

    tracer: Tracer | NullTracer
    metrics: MetricsRegistry | NullMetrics


#: The zero-cost default: both halves are the no-op singletons.
NULL_OBSERVATION = Observation(NULL_TRACER, NULL_METRICS)


def observe(clock_hz: float = 2.5e9) -> Observation:
    """A live observation: a fresh tracer (cycle spans converted at
    ``clock_hz``) and a fresh metrics registry."""
    return Observation(Tracer(clock_hz=clock_hz), MetricsRegistry())


def note_stat(obs: Observation, prefix: str, stats: dict[str, int], key: str,
              amount: int = 1) -> None:
    """Bump ``stats[key]`` and mirror it to the ``{prefix}.{key}`` counter."""
    if amount <= 0:
        return
    stats[key] = stats.get(key, 0) + amount
    if obs.metrics.enabled:
        obs.metrics.counter(f"{prefix}.{key}").inc(amount)


__all__ = [
    "NULL_METRICS",
    "NULL_OBSERVATION",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "HardwareCounter",
    "Histogram",
    "InstantRecord",
    "MetricsRegistry",
    "NullMetrics",
    "NullTracer",
    "Observation",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "collapsed_stacks",
    "labelled_name",
    "mint_trace",
    "model_run_records",
    "note_stat",
    "observe",
    "prometheus_text",
    "render_bars",
    "render_counters",
    "render_tracer",
    "segment_features",
    "write_chrome_trace",
    "write_harvest",
    "write_prometheus",
]
