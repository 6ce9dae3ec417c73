"""Windowed, time-aware metric aggregations and SLO monitoring.

The flat :mod:`repro.obs.metrics` kinds answer "what happened over the
whole run"; a serving operator needs "what is happening *now*": rolling
p99 over the last second, queries-per-second over the last window, an
error-budget burn rate against the latency SLO.  These classes provide
that, with **explicit timestamps** throughout — the serving stack runs on
the discrete-event engine's simulated clock, so every observation carries
its engine time and two seeded runs produce identical windows (nothing
here reads the wall clock unless the caller passes wall timestamps).

- :class:`WindowedHistogram` — rolling percentiles/rate over a sliding
  time window (``window_seconds=None`` degrades to the full run, which
  makes the final rolling summary agree exactly with a one-shot
  percentile pass).
- :class:`RateMeter` — events (or weighted quantities) per second over a
  sliding window.
- :class:`SloMonitor` — a latency target plus an error budget; computes
  attainment, the windowed violation rate and the budget *burn rate*
  (observed violation rate / budgeted violation rate; >1 means the
  budget is being spent faster than allowed).

All three expose ``name``/``labels``/``kind``/``snapshot()`` so they can
be adopted by a :class:`~repro.obs.metrics.MetricsRegistry` (via
``register`` or ``windowed_histogram``) and ride along in snapshots and
the Prometheus exposition.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Mapping


class WindowedHistogram:
    """Sliding-time-window distribution with numpy-compatible percentiles.

    Observations are ``(timestamp, value)`` pairs; queries (percentile,
    rate, mean) are evaluated over observations newer than
    ``now - window_seconds``.  ``now`` defaults to the newest observation
    so a drained run reports its final window.
    """

    kind = "windowed_histogram"

    def __init__(self, name: str, description: str = "", unit: str = "",
                 labels: Mapping[str, Any] | None = None,
                 window_seconds: float | None = None,
                 max_observations: int = 65536) -> None:
        if window_seconds is not None and window_seconds <= 0:
            raise ValueError("window_seconds must be positive (or None)")
        self.name = name
        self.description = description
        self.unit = unit
        self.labels = dict(labels) if labels else {}
        self.window_seconds = window_seconds
        self.count = 0          # lifetime observations (exact)
        self.total = 0.0        # lifetime sum (exact)
        self._samples: deque[tuple[float, float]] = deque(maxlen=max_observations)
        self._last_ts = 0.0

    def observe(self, value: float, ts: float) -> None:
        value = float(value)
        if math.isnan(value) or math.isnan(ts):
            raise ValueError(f"windowed histogram {self.name} rejects NaN")
        if ts < self._last_ts:
            raise ValueError(
                f"windowed histogram {self.name}: timestamps must be "
                f"monotonic ({ts} < {self._last_ts})"
            )
        self._last_ts = ts
        self.count += 1
        self.total += value
        self._samples.append((ts, value))

    # ------------------------------------------------------------------

    def _window_values(self, now: float | None) -> list[float]:
        if not self._samples:
            return []
        now = self._last_ts if now is None else now
        if self.window_seconds is None:
            return [value for _, value in self._samples]
        horizon = now - self.window_seconds
        # Evict out-of-window samples for real: the deque is time-ordered.
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()
        return [value for _, value in self._samples]

    def window_count(self, now: float | None = None) -> int:
        return len(self._window_values(now))

    def percentile(self, p: float, now: float | None = None) -> float:
        """Rolling percentile (linear interpolation, as numpy) at ``now``."""
        p = float(p)
        if math.isnan(p) or not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        from repro.obs.metrics import _percentile_linear

        return _percentile_linear(sorted(self._window_values(now)), p)

    def mean(self, now: float | None = None) -> float:
        values = self._window_values(now)
        return sum(values) / len(values) if values else 0.0

    def rate(self, now: float | None = None) -> float:
        """Observations per second over the window (0 when unbounded)."""
        if self.window_seconds is None:
            return 0.0
        return len(self._window_values(now)) / self.window_seconds

    def snapshot(self) -> dict[str, Any]:
        snap: dict[str, Any] = {
            "kind": self.kind, "unit": self.unit,
            "description": self.description,
            "count": self.count, "sum": self.total,
            "window_seconds": self.window_seconds,
            "window_count": self.window_count(),
            "mean": self.mean(),
            "p50": self.percentile(50), "p90": self.percentile(90),
            "p99": self.percentile(99),
        }
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap


#: The discard-everything instance handed out by ``NullMetrics``.
NULL_WINDOWED_HISTOGRAM = WindowedHistogram("null", max_observations=0)


class RateMeter:
    """Weighted events per second over a sliding window."""

    kind = "rate"

    def __init__(self, name: str, window_seconds: float = 1.0,
                 description: str = "", unit: str = "",
                 labels: Mapping[str, Any] | None = None) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.name = name
        self.description = description
        self.unit = unit
        self.labels = dict(labels) if labels else {}
        self.window_seconds = window_seconds
        self.count = 0
        self.total = 0.0
        self._samples: deque[tuple[float, float]] = deque()
        self._last_ts = 0.0

    def add(self, ts: float, weight: float = 1.0) -> None:
        if math.isnan(ts) or math.isnan(weight):
            raise ValueError(f"rate meter {self.name} rejects NaN")
        self._last_ts = max(self._last_ts, ts)
        self.count += 1
        self.total += weight
        self._samples.append((ts, weight))

    def rate(self, now: float | None = None) -> float:
        now = self._last_ts if now is None else now
        horizon = now - self.window_seconds
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()
        return sum(weight for _, weight in self._samples) / self.window_seconds

    def snapshot(self) -> dict[str, Any]:
        snap: dict[str, Any] = {
            "kind": self.kind, "unit": self.unit,
            "description": self.description,
            "count": self.count, "sum": self.total,
            "window_seconds": self.window_seconds,
            "value": self.rate(),
        }
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap


class SloMonitor:
    """A latency objective with an error budget and burn-rate computation.

    ``target_seconds`` is the per-query latency bound (MLPerf Server's
    latency constraint); ``error_budget`` is the allowed violation
    fraction (MLPerf Server allows 1% of queries over the bound, hence
    the default 0.01 — the p99 constraint).  The *burn rate* is the
    observed violation fraction divided by the budgeted fraction over the
    sliding window: 1.0 means the budget is being consumed exactly at the
    allowed pace, >1 means it will be exhausted early (the standard
    multi-window burn-rate alerting quantity).
    """

    kind = "slo"

    def __init__(self, name: str, target_seconds: float,
                 error_budget: float = 0.01,
                 window_seconds: float | None = None,
                 description: str = "", labels: Mapping[str, Any] | None = None) -> None:
        if target_seconds <= 0:
            raise ValueError("target_seconds must be positive")
        if not 0 < error_budget < 1:
            raise ValueError("error_budget must be in (0, 1)")
        self.name = name
        self.description = description
        self.unit = "s"
        self.labels = dict(labels) if labels else {}
        self.target_seconds = target_seconds
        self.error_budget = error_budget
        self.window_seconds = window_seconds
        self.count = 0
        self.violations = 0
        self._window: deque[tuple[float, bool]] = deque()
        self._last_ts = 0.0

    def observe(self, latency_seconds: float, ts: float) -> bool:
        """Record one query; returns True when it met the objective."""
        if math.isnan(latency_seconds) or math.isnan(ts):
            raise ValueError(f"slo monitor {self.name} rejects NaN")
        ok = latency_seconds <= self.target_seconds
        self.count += 1
        if not ok:
            self.violations += 1
        self._last_ts = max(self._last_ts, ts)
        self._window.append((ts, ok))
        return ok

    # ------------------------------------------------------------------

    def _trim(self, now: float | None) -> None:
        if self.window_seconds is None:
            return
        now = self._last_ts if now is None else now
        horizon = now - self.window_seconds
        while self._window and self._window[0][0] < horizon:
            self._window.popleft()

    @property
    def attainment(self) -> float:
        """Lifetime fraction of queries meeting the objective."""
        if self.count == 0:
            return 1.0
        return 1.0 - self.violations / self.count

    def window_violation_rate(self, now: float | None = None) -> float:
        self._trim(now)
        if not self._window:
            return 0.0
        bad = sum(1 for _, ok in self._window if not ok)
        return bad / len(self._window)

    def burn_rate(self, now: float | None = None) -> float:
        """Windowed violation rate relative to the budgeted rate."""
        return self.window_violation_rate(now) / self.error_budget

    @property
    def budget_remaining(self) -> float:
        """Fraction of the lifetime error budget still unspent."""
        if self.count == 0:
            return 1.0
        spent = (self.violations / self.count) / self.error_budget
        return 1.0 - spent

    @property
    def ok(self) -> bool:
        """True while the lifetime violation fraction is within budget."""
        return self.budget_remaining >= 0.0

    def snapshot(self) -> dict[str, Any]:
        snap: dict[str, Any] = {
            "kind": self.kind, "unit": self.unit,
            "description": self.description,
            "count": self.count, "violations": self.violations,
            "target_seconds": self.target_seconds,
            "error_budget": self.error_budget,
            "attainment": self.attainment,
            "burn_rate": self.burn_rate(),
            "budget_remaining": self.budget_remaining,
            "value": self.attainment,
        }
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap
