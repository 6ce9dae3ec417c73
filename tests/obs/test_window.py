"""The whole-run latency window and SLO figures of the Server scenario.

Serving telemetry keeps one record of completions: the scenario's
``server.latency_seconds`` :class:`~repro.obs.Histogram`.  Every frame,
the summary and the SLO gauges read it, so these tests pin what a
latency window owes its readers — numpy-exact percentiles at every
frame, exact running statistics past the retention cap, rejection of
NaN and of backwards engine time, and SLO figures exported as labelled
gauges behind a validated target.
"""

import numpy as np
import pytest

from repro import obs
from repro.engine import Engine, EngineError
from repro.perf.serving import (
    ServerScenario,
    ServingTimingModel,
    default_server_qps,
    run_server,
)
from repro.perf.system import get_system


@pytest.fixture(scope="module")
def mobilenet():
    return get_system("mobilenet_v1")


class TestWindowedHistogram:
    def test_unbounded_window_matches_numpy_exactly(self, mobilenet):
        # Each frame's percentiles are one-shot numpy percentiles over
        # every query completed by the frame's time, bit for bit.
        scenario = ServerScenario(
            ServingTimingModel.from_system(mobilenet),
            qps=default_server_qps(mobilenet), queries=128, seed=7,
            telemetry_interval=0.002,
        )
        frames = scenario.run().frames
        assert len(frames) >= 3
        for frame in frames:
            latencies = [
                record.completed_at - record.arrival
                for record in scenario._records
                if record.completed_at is not None
                and record.completed_at <= frame["ts"]
            ]
            assert len(latencies) == frame["completed"]
            if not latencies:
                continue
            for p in (50, 90, 99):
                assert frame[f"p{p}_ms"] == float(np.percentile(latencies, p)) * 1e3

    def test_lifetime_stats_survive_eviction(self):
        # Past the retention cap the percentiles see only what was kept,
        # but count, sum, mean, min and max stay exact.
        histogram = obs.Histogram("lat", max_observations=10)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.total == 4950.0
        assert histogram.mean == 49.5
        assert histogram.min == 0.0
        assert histogram.max == 99.0
        snap = histogram.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == 4950.0

    def test_rejects_nan_and_time_travel(self):
        histogram = obs.Histogram("lat")
        histogram.observe(1.0)
        with pytest.raises(ValueError, match="NaN"):
            histogram.observe(float("nan"))
        # A rejected observation leaves no trace.
        assert histogram.count == 1
        assert histogram.total == 1.0
        with pytest.raises(ValueError, match="percentile"):
            histogram.percentile(float("nan"))
        # Completions are observed in engine-time order: the engine that
        # stamps them refuses to schedule into the past.
        engine = Engine()
        with pytest.raises(EngineError, match="past"):
            engine.call_after(-1e-3, lambda: None)


class TestSloMonitor:
    def test_snapshot_kind(self, mobilenet):
        observation = obs.observe()
        result = run_server(mobilenet, queries=16, seed=0,
                            slo_latency_seconds=1.0, obs=observation)
        snap = observation.metrics.snapshot()
        labels = '{model="mobilenet_v1"}'
        for figure in ("attainment", "burn_rate", "budget_remaining"):
            gauge = snap[f"server.slo_{figure}{labels}"]
            assert gauge["kind"] == "gauge"
            assert gauge["labels"] == {"model": "mobilenet_v1"}
            assert gauge["value"] == result.slo[figure]
        assert snap[f"server.slo_attainment{labels}"]["value"] == 1.0

    def test_validation(self, mobilenet):
        for target in (0.0, -1e-3):
            with pytest.raises(ValueError, match="SLO"):
                run_server(mobilenet, queries=8, slo_latency_seconds=target)
