"""The MLPerf-Inference-style SingleStream harness.

The paper submitted two modes (section VI-A).  SingleStream issues one
query at a time and reports the 90th-percentile latency; it runs here as
a closed loop with one outstanding query on the discrete-event engine
(:mod:`repro.engine`), with query-to-query jitter (scheduler noise, DRAM
refresh) modelled as a small seeded log-normal factor so percentile
statistics are meaningful.  Offline issues everything at once and reports
throughput; back-to-back batches have no queueing to simulate, so it is
the closed form :meth:`~repro.perf.system.BenchmarkSystem.offline_throughput_ips`.
The Server scenario (:mod:`repro.perf.serving`) is the engine schedule
with Poisson arrivals and dynamic batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.engine import Engine
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.perf.system import BenchmarkSystem

LATENCY_PERCENTILE = 90  # MLPerf's SingleStream reporting percentile
JITTER_SIGMA = 0.015     # ~1.5% query-to-query latency noise


@dataclass(frozen=True)
class SingleStreamResult:
    model_key: str
    queries: int
    mean_latency_seconds: float
    p90_latency_seconds: float

    @property
    def p90_latency_ms(self) -> float:
        return self.p90_latency_seconds * 1e3


def run_single_stream(
    system: BenchmarkSystem, queries: int = 1024, seed: int = 0
) -> SingleStreamResult:
    """SingleStream scenario: sequential queries, p90 latency.

    The engine runs the closed loop — the next query is issued when the
    previous one completes, so each query's latency equals its service
    time and the scenario reduces to the analytic model exactly.
    """
    if queries < 1:
        raise ValueError("at least one query required")
    tracer = get_tracer()
    with tracer.span(
        "mlperf.single_stream", track="mlperf",
        model=system.model_key, queries=queries,
    ) as span:
        base = system.single_stream_latency_seconds()
        rng = np.random.default_rng(seed)
        samples = base * rng.lognormal(mean=0.0, sigma=JITTER_SIGMA, size=queries)
        engine = Engine()
        starts = np.zeros(queries, dtype=np.float64)

        def closed_loop() -> Iterator:
            for index in range(queries):
                starts[index] = engine.now
                yield engine.timeout(float(samples[index]))
            return None

        engine.process(closed_loop(), name="single-stream")
        engine.run()
        result = SingleStreamResult(
            model_key=system.model_key,
            queries=queries,
            mean_latency_seconds=float(samples.mean()),
            p90_latency_seconds=float(np.percentile(samples, LATENCY_PERCENTILE)),
        )
        span.set(p90_latency_ms=result.p90_latency_ms)
    if tracer.enabled:
        # Per-query spans on the engine timeline (queries are issued
        # back-to-back in SingleStream).
        for index, latency in enumerate(samples):
            tracer.add_span(
                f"query[{index}]", "mlperf.queries",
                start_us=float(starts[index]) * 1e6,
                duration_us=float(latency) * 1e6,
                args={"latency_ms": float(latency) * 1e3},
            )
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter("mlperf.queries").inc(queries)
        histogram = metrics.histogram("mlperf.latency_seconds", unit="s")
        for latency in samples:
            histogram.observe(float(latency))
    return result
