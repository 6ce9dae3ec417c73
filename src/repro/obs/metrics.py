"""Named metrics modeled on the section IV-F performance counters.

The registry holds three software metric kinds (counters, gauges,
histograms) plus *hardware counters* — adapters around the machine's
:class:`repro.ncore.debug.PerfCounter` objects that keep the hardware
semantics intact: a fixed bit width, configurable offsets, and the
wraparound breakpointing the paper uses to stop execution "at counter
wraparound".  Incrementing a hardware counter through the registry goes
through ``PerfCounter.add`` and therefore still arms breakpoints.

Serving-grade extensions (the fleet-telemetry substrate):

- **Label sets.**  Every metric accepts a ``labels`` mapping
  (``model=``, ``socket=``, ``stage=``); each distinct label set is its
  own time series, keyed Prometheus-style as ``name{k="v",...}``.
- **Exact percentiles.**  :meth:`Histogram.percentile` uses the same
  linear interpolation as ``numpy.percentile``, so a summary derived
  from the registry is bit-identical to a post-pass over the raw
  latency array (the serving harness relies on this to keep one source
  of truth).

Like the tracer, the registry has a zero-cost default: call sites check
``get_metrics().enabled`` before doing any bookkeeping.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right, insort
from contextlib import contextmanager
from typing import Any, Iterator, Mapping


def _percentile_linear(ordered: list[float], p: float) -> float:
    """Linear-interpolation percentile over pre-sorted values.

    Replicates ``numpy.percentile``'s default method bit-for-bit,
    including its symmetric lerp (interpolating from the upper
    neighbour when the fraction is >= 0.5), so registry-derived
    summaries agree exactly with a numpy post-pass over the same data.
    """
    if not ordered:
        return 0.0
    rank = p / 100 * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    low_value, high_value = ordered[lower], ordered[upper]
    if fraction >= 0.5:
        return high_value - (high_value - low_value) * (1.0 - fraction)
    return low_value + (high_value - low_value) * fraction


def labelled_name(name: str, labels: Mapping[str, Any] | None) -> str:
    """The registry key / Prometheus-style series name for a label set."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing value (bytes moved, queries, hits)."""

    kind = "counter"

    def __init__(self, name: str, description: str = "", unit: str = "",
                 labels: Mapping[str, Any] | None = None) -> None:
        self.name = name
        self.description = description
        self.unit = unit
        self.labels = dict(labels) if labels else {}
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        snap = {"kind": self.kind, "value": self.value, "unit": self.unit,
                "description": self.description}
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap


class Gauge:
    """A point-in-time value (ring occupancy, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "", unit: str = "",
                 labels: Mapping[str, Any] | None = None) -> None:
        self.name = name
        self.description = description
        self.unit = unit
        self.labels = dict(labels) if labels else {}
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict[str, Any]:
        snap = {"kind": self.kind, "value": self.value, "unit": self.unit,
                "description": self.description}
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap


class Histogram:
    """A distribution (per-query latency, per-kernel cycles).

    Keeps sorted observations so MLPerf-style percentiles are exact; the
    observation list is capped to bound memory on very long runs (the
    running count/sum/min/max stay exact).  :meth:`percentile` matches
    ``numpy.percentile``'s default linear interpolation exactly, so a
    summary derived from a histogram agrees bit-for-bit with a post-pass
    over the same observations.
    """

    kind = "histogram"

    def __init__(self, name: str, description: str = "", unit: str = "",
                 max_observations: int = 65536,
                 labels: Mapping[str, Any] | None = None) -> None:
        self.name = name
        self.description = description
        self.unit = unit
        self.labels = dict(labels) if labels else {}
        self.max_observations = max_observations
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._sorted: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"histogram {self.name} rejects NaN observations")
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._sorted) < self.max_observations:
            insort(self._sorted, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Percentile over retained observations, ``numpy``-compatible.

        Linear interpolation between closest ranks (the default method of
        ``numpy.percentile``); p must be in [0, 100] and not NaN.  An
        empty histogram reports 0.0.
        """
        p = float(p)
        if math.isnan(p) or not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        return _percentile_linear(self._sorted, p)

    def count_above(self, bound: float) -> int:
        """Observations strictly greater than ``bound`` (an SLO's violations).

        Exact while every observation is retained (``count`` within
        ``max_observations``); past the cap, the unretained tail counts
        as above.
        """
        return self.count - bisect_right(self._sorted, bound)

    def snapshot(self) -> dict[str, Any]:
        snap = {
            "kind": self.kind, "unit": self.unit, "description": self.description,
            "count": self.count, "mean": self.mean, "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50), "p90": self.percentile(90),
            "p99": self.percentile(99),
        }
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap


class HardwareCounter:
    """Registry view of one hardware :class:`PerfCounter`.

    The underlying counter keeps its bit width, offset configuration and
    wraparound breakpoint; :meth:`inc` returns True when a breakpoint
    fires, exactly as ``PerfCounter.add`` does.
    """

    kind = "hardware"

    def __init__(self, name: str, perf_counter, description: str = "",
                 unit: str = "", labels: Mapping[str, Any] | None = None) -> None:
        self.name = name
        self.perf_counter = perf_counter
        self.description = description
        self.unit = unit
        self.labels = dict(labels) if labels else {}

    @property
    def value(self) -> int:
        return self.perf_counter.value

    @property
    def wrapped(self) -> bool:
        return self.perf_counter.wrapped

    def inc(self, amount: int = 1) -> bool:
        return self.perf_counter.add(amount)

    def snapshot(self) -> dict[str, Any]:
        snap = {
            "kind": self.kind, "value": self.perf_counter.value,
            "unit": self.unit, "description": self.description,
            "bits": self.perf_counter.bits, "wrapped": self.perf_counter.wrapped,
            "break_on_wrap": self.perf_counter.break_on_wrap,
        }
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap


class NullMetrics:
    """The no-op default registry (mirrors :class:`.tracer.NullTracer`)."""

    enabled = False
    _NULL_COUNTER = Counter("null")
    _NULL_GAUGE = Gauge("null")
    _NULL_HISTOGRAM = Histogram("null", max_observations=0)

    def counter(self, name: str, description: str = "", unit: str = "",
                labels: Mapping[str, Any] | None = None) -> Counter:
        return self._NULL_COUNTER

    def gauge(self, name: str, description: str = "", unit: str = "",
              labels: Mapping[str, Any] | None = None) -> Gauge:
        return self._NULL_GAUGE

    def histogram(self, name: str, description: str = "", unit: str = "",
                  labels: Mapping[str, Any] | None = None) -> Histogram:
        return self._NULL_HISTOGRAM

    def bind_hardware(self, name: str, perf_counter, description: str = "",
                      unit: str = "",
                      labels: Mapping[str, Any] | None = None) -> HardwareCounter:
        return HardwareCounter(name, perf_counter, description, unit,
                               labels=labels)

    def register(self, metric):
        return metric


NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """A namespace of metrics, get-or-create by (name, label set)."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, description: str, unit: str,
                       labels: Mapping[str, Any] | None = None, **kwargs):
        key = labelled_name(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, description=description, unit=unit,
                             labels=labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {key!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, description: str = "", unit: str = "",
                labels: Mapping[str, Any] | None = None) -> Counter:
        return self._get_or_create(Counter, name, description, unit, labels)

    def gauge(self, name: str, description: str = "", unit: str = "",
              labels: Mapping[str, Any] | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, description, unit, labels)

    def histogram(self, name: str, description: str = "", unit: str = "",
                  labels: Mapping[str, Any] | None = None) -> Histogram:
        return self._get_or_create(Histogram, name, description, unit, labels)

    def bind_hardware(self, name: str, perf_counter, description: str = "",
                      unit: str = "",
                      labels: Mapping[str, Any] | None = None) -> HardwareCounter:
        """Expose a hardware PerfCounter through the registry.

        Re-binding the same name replaces the view (a fresh machine after
        reset), never the underlying hardware state.
        """
        key = labelled_name(name, labels)
        with self._lock:
            view = HardwareCounter(name, perf_counter, description, unit,
                                   labels=labels)
            self._metrics[key] = view
            return view

    def register(self, metric):
        """Adopt an externally constructed metric object.

        Lets a scenario own its metric (a per-run latency histogram)
        while still exposing it through the registry for
        snapshots/exposition.  Like :meth:`bind_hardware`, re-registering
        a key replaces the view — the caller's object stays authoritative.
        """
        key = labelled_name(metric.name, getattr(metric, "labels", None))
        with self._lock:
            self._metrics[key] = metric
        return metric

    # ------------------------------------------------------------------

    def get(self, name: str):
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All metrics as plain dicts (the flat JSON dump)."""
        return {name: self._metrics[name].snapshot() for name in self.names()}


_installed: NullMetrics | MetricsRegistry = NULL_METRICS


def get_metrics() -> NullMetrics | MetricsRegistry:
    """The installed registry, or the zero-cost :data:`NULL_METRICS`."""
    return _installed


def set_metrics(registry: MetricsRegistry | NullMetrics | None) -> None:
    global _installed
    _installed = registry if registry is not None else NULL_METRICS


@contextmanager
def install_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    previous = _installed
    set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
