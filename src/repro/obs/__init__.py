"""Full-stack observability: tracing, metrics and exporters (``repro.obs``).

Generalises the paper's Ncore-internal debug features (section IV-F event
log, performance counters; the Fig. 10 runtime trace) to every layer the
paper evaluates: delegate partitioning, driver and DMA traffic, Ncore
execution, the x86 fallback and the MLPerf harness.

Usage::

    from repro import obs

    with obs.observe() as (tracer, metrics):
        ...  # run anything: sessions, machines, MLPerf scenarios
    obs.write_chrome_trace("run.trace.json", tracer, metrics)
    print(obs.render_tracer(tracer))          # Fig. 10-style text
    print(obs.prometheus_text(metrics))       # OpenMetrics exposition

Serving-grade additions:

- per-query **trace contexts** (:mod:`repro.obs.context`) thread one
  causal tree per query through every stage span;
- **cycle attribution** (:mod:`repro.obs.attrib`): pure functions
  mapping compiled cycles and DMA bytes back to GIR segment -> op ->
  execution tier, with a JSONL feature harvest and flamegraph-ready
  collapsed stacks;
- the ``repro top`` dashboard (:mod:`repro.obs.top`) over the telemetry
  frames ``repro serve --telemetry`` writes.

When nothing is installed, every instrumentation point short-circuits on
the no-op defaults — preserving the paper's "no performance penalty"
claim (guarded by ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

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
    get_metrics,
    install_metrics,
    labelled_name,
    set_metrics,
)
from repro.obs.prometheus import prometheus_text, write_prometheus
from repro.obs.render import render_bars, render_counters, render_tracer
from repro.obs.tracer import (
    NULL_TRACER,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    install_tracer,
    set_tracer,
)


@contextmanager
def observe(
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    clock_hz: float = 2.5e9,
) -> Iterator[tuple[Tracer, MetricsRegistry]]:
    """Install a tracer and a metrics registry for a ``with`` block."""
    tracer = tracer if tracer is not None else Tracer(clock_hz=clock_hz)
    metrics = metrics if metrics is not None else MetricsRegistry()
    with install_tracer(tracer), install_metrics(metrics):
        yield tracer, metrics


__all__ = [
    "NULL_METRICS",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "HardwareCounter",
    "Histogram",
    "InstantRecord",
    "MetricsRegistry",
    "NullMetrics",
    "NullTracer",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "collapsed_stacks",
    "get_metrics",
    "get_tracer",
    "install_metrics",
    "install_tracer",
    "labelled_name",
    "mint_trace",
    "model_run_records",
    "observe",
    "prometheus_text",
    "render_bars",
    "render_counters",
    "render_tracer",
    "segment_features",
    "set_metrics",
    "set_tracer",
    "write_chrome_trace",
    "write_harvest",
    "write_prometheus",
]
