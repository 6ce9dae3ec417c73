"""Windowed aggregations and SLO monitoring (``repro.obs.window``)."""

import numpy as np
import pytest

from repro.obs.window import RateMeter, SloMonitor, WindowedHistogram


class TestWindowedHistogram:
    def test_unbounded_window_matches_numpy_exactly(self):
        # The acceptance contract: with window_seconds=None the final
        # rolling percentile IS the one-shot percentile, bit for bit.
        rng = np.random.default_rng(7)
        values = rng.exponential(2e-3, size=500)
        hist = WindowedHistogram("lat", unit="s")
        for index, value in enumerate(values):
            hist.observe(float(value), ts=index * 1e-3)
        for p in (50, 90, 99):
            assert hist.percentile(p) == float(np.percentile(values, p))

    def test_sliding_window_evicts_old_samples(self):
        hist = WindowedHistogram("lat", window_seconds=1.0)
        hist.observe(100.0, ts=0.0)
        hist.observe(1.0, ts=2.0)
        hist.observe(2.0, ts=2.5)
        # The ts=0 outlier fell out of the [1.5, 2.5] window.
        assert hist.window_count(now=2.5) == 2
        assert hist.percentile(99, now=2.5) <= 2.0

    def test_lifetime_stats_survive_eviction(self):
        hist = WindowedHistogram("lat", window_seconds=0.5)
        for index in range(10):
            hist.observe(1.0, ts=float(index))
        hist.window_count(now=9.0)  # trims to one sample
        assert hist.count == 10
        assert hist.total == pytest.approx(10.0)

    def test_rejects_nan_and_time_travel(self):
        hist = WindowedHistogram("lat")
        with pytest.raises(ValueError, match="NaN"):
            hist.observe(float("nan"), ts=0.0)
        hist.observe(1.0, ts=5.0)
        with pytest.raises(ValueError, match="monotonic"):
            hist.observe(1.0, ts=4.0)

    def test_equal_timestamps_are_allowed(self):
        # Batch completion: many queries finish at the same engine time.
        hist = WindowedHistogram("lat")
        hist.observe(1.0, ts=1.0)
        hist.observe(2.0, ts=1.0)
        assert hist.window_count() == 2

    def test_rate_and_snapshot(self):
        hist = WindowedHistogram("lat", window_seconds=2.0, labels={"model": "m"})
        for index in range(8):
            hist.observe(0.5, ts=index * 0.25)
        assert hist.rate() == pytest.approx(8 / 2.0)
        snap = hist.snapshot()
        assert snap["kind"] == "windowed_histogram"
        assert snap["labels"] == {"model": "m"}
        assert snap["p50"] == pytest.approx(0.5)


class TestRateMeter:
    def test_events_per_second(self):
        meter = RateMeter("qps", window_seconds=1.0)
        for index in range(10):
            meter.add(ts=index * 0.1)
        # The window is inclusive at its left edge: all 10 samples count.
        assert meter.rate(now=1.0) == pytest.approx(10.0)
        # Half fall out once the window slides past them.
        assert meter.rate(now=1.45) == pytest.approx(5.0)

    def test_weighted(self):
        meter = RateMeter("bytes", window_seconds=2.0)
        meter.add(ts=0.0, weight=100.0)
        meter.add(ts=1.0, weight=300.0)
        assert meter.rate(now=1.0) == pytest.approx(200.0)


class TestSloMonitor:
    def test_attainment_and_budget(self):
        slo = SloMonitor("slo", target_seconds=1e-3, error_budget=0.01)
        for index in range(99):
            assert slo.observe(0.5e-3, ts=index * 1e-3)
        assert not slo.observe(2e-3, ts=0.1)
        assert slo.attainment == pytest.approx(0.99)
        # Exactly at budget: 1% violations against a 1% budget.
        assert slo.budget_remaining == pytest.approx(0.0)
        assert slo.ok

    def test_burn_rate_over_window(self):
        slo = SloMonitor("slo", target_seconds=1e-3, error_budget=0.01,
                         window_seconds=1.0)
        for index in range(10):
            slo.observe(2e-3 if index % 2 else 0.5e-3, ts=index * 0.1)
        # Half the windowed queries violate a 1% budget: burn 50x.
        assert slo.burn_rate(now=0.9) == pytest.approx(50.0)

    def test_snapshot_kind(self):
        slo = SloMonitor("slo", target_seconds=1.0, labels={"model": "m"})
        slo.observe(0.5, ts=0.0)
        snap = slo.snapshot()
        assert snap["kind"] == "slo"
        assert snap["attainment"] == 1.0
        assert snap["labels"] == {"model": "m"}

    def test_validation(self):
        with pytest.raises(ValueError):
            SloMonitor("slo", target_seconds=0.0)
        with pytest.raises(ValueError):
            SloMonitor("slo", target_seconds=1.0, error_budget=1.5)
