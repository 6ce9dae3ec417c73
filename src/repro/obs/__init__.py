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
- **windowed metrics and SLO monitoring** (:mod:`repro.obs.window`):
  rolling percentiles, rates and error-budget burn rates;
- **cycle attribution** (:mod:`repro.obs.attrib`): retired cycles and
  DMA bytes mapped back to GIR segment -> op -> execution tier, with a
  JSONL feature harvest and flamegraph-ready collapsed stacks;
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
    NULL_ATTRIB,
    AttributionCollector,
    NullAttribution,
    get_attrib,
    install_attrib,
    segment_features,
    set_attrib,
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
    CounterSample,
    InstantRecord,
    NullTracer,
    SpanRecord,
    Tracer,
    get_tracer,
    install_tracer,
    set_tracer,
)
from repro.obs.window import (
    RateMeter,
    SloMonitor,
    WindowedHistogram,
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
    "NULL_ATTRIB",
    "NULL_METRICS",
    "NULL_TRACER",
    "AttributionCollector",
    "Counter",
    "CounterSample",
    "Gauge",
    "HardwareCounter",
    "Histogram",
    "InstantRecord",
    "MetricsRegistry",
    "NullAttribution",
    "NullMetrics",
    "NullTracer",
    "RateMeter",
    "SloMonitor",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "WindowedHistogram",
    "chrome_trace",
    "get_attrib",
    "get_metrics",
    "get_tracer",
    "install_attrib",
    "install_metrics",
    "install_tracer",
    "labelled_name",
    "mint_trace",
    "observe",
    "prometheus_text",
    "render_bars",
    "render_counters",
    "render_tracer",
    "segment_features",
    "set_attrib",
    "set_metrics",
    "set_tracer",
    "write_chrome_trace",
    "write_prometheus",
]
