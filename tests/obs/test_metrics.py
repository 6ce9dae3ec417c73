"""Tests for the metrics registry and the hardware-counter adapter."""

import pytest

from repro import obs
from repro.ncore import PerfCounter
from repro.obs.metrics import NULL_METRICS


class TestRegistry:
    def test_counter_get_or_create(self):
        registry = obs.MetricsRegistry()
        registry.counter("a").inc(3)
        registry.counter("a").inc(2)
        assert registry.get("a").value == 5

    def test_counter_is_monotonic(self):
        registry = obs.MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("a").inc(-1)

    def test_kind_conflict_raises(self):
        registry = obs.MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("a")

    def test_gauge(self):
        registry = obs.MetricsRegistry()
        registry.gauge("depth").set(7)
        registry.gauge("depth").set(4)
        assert registry.get("depth").value == 4

    def test_snapshot_shape(self):
        registry = obs.MetricsRegistry()
        registry.counter("c", unit="B").inc(10)
        snap = registry.snapshot()
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["value"] == 10
        assert snap["c"]["unit"] == "B"

    def test_default_registry_is_null(self):
        assert obs.NULL_OBSERVATION.metrics is NULL_METRICS
        assert not NULL_METRICS.enabled
        # Null metrics absorb updates without tracking anything.
        NULL_METRICS.counter("x").inc(5)


class TestHistogram:
    def test_percentiles_and_stats(self):
        histogram = obs.Histogram("lat")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.min == 1.0
        assert histogram.max == 100.0
        assert histogram.percentile(90) == pytest.approx(90.0, abs=1.0)

    def test_capped_observations_keep_exact_count(self):
        histogram = obs.Histogram("lat", max_observations=10)
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.max == 99.0

    def test_count_above_is_the_slo_violation_count(self):
        histogram = obs.Histogram("lat")
        for value in (0.5, 1.0, 1.0, 2.0, 3.0):
            histogram.observe(value)
        # "At or under the target" meets it: ties are not violations.
        assert histogram.count_above(1.0) == 2
        assert histogram.count_above(0.1) == 5
        assert histogram.count_above(3.0) == 0
        assert obs.Histogram("empty").count_above(1.0) == 0


class TestHardwareCounter:
    def test_wraparound_breakpoint_preserved(self):
        # Section IV-F: configure an offset so the counter wraps (and
        # breaks) after a chosen number of increments — through the
        # registry view, exactly as through the raw PerfCounter.
        registry = obs.MetricsRegistry()
        perf_counter = PerfCounter("macs", bits=8)
        perf_counter.configure(offset=250, break_on_wrap=True)
        view = registry.bind_hardware("ncore.hw.macs", perf_counter)
        assert view.inc(5) is False
        assert view.inc(5) is True  # wraps 255 -> 4, breakpoint fires
        assert view.wrapped
        assert view.value == perf_counter.value == 4

    def test_snapshot_reports_hardware_state(self):
        registry = obs.MetricsRegistry()
        perf_counter = PerfCounter("cycles", bits=48)
        perf_counter.add(123)
        registry.bind_hardware("hw", perf_counter)
        snap = registry.snapshot()["hw"]
        assert snap["kind"] == "hardware"
        assert snap["value"] == 123
        assert snap["bits"] == 48
        assert snap["wrapped"] is False

    def test_observed_machine_binds_its_counters(self):
        from repro.ncore import Ncore

        _, registry = observation = obs.observe()
        machine = Ncore(obs=observation)
        assert "ncore.hw.macs" in registry
        # The view tracks the live machine counter.
        machine.perf_counters["macs"].add(4096)
        assert registry.get("ncore.hw.macs").value == 4096


class TestHistogramPercentileEdges:
    def test_empty_histogram_reports_zero(self):
        assert obs.Histogram("lat").percentile(99) == 0.0

    def test_single_sample_is_every_percentile(self):
        histogram = obs.Histogram("lat")
        histogram.observe(7.5)
        for p in (0, 50, 99, 100):
            assert histogram.percentile(p) == 7.5

    def test_p0_and_p100_are_min_and_max(self):
        histogram = obs.Histogram("lat")
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 3.0

    def test_matches_numpy_bit_for_bit(self):
        import numpy as np

        rng = np.random.default_rng(11)
        values = rng.exponential(1.0, size=257)
        histogram = obs.Histogram("lat")
        for value in values:
            histogram.observe(float(value))
        for p in (0, 12.5, 50, 90, 99, 99.9, 100):
            assert histogram.percentile(p) == float(np.percentile(values, p))

    def test_rejects_nan_observation(self):
        with pytest.raises(ValueError, match="NaN"):
            obs.Histogram("lat").observe(float("nan"))

    def test_rejects_out_of_range_percentile(self):
        histogram = obs.Histogram("lat")
        histogram.observe(1.0)
        for bad in (-1, 101, float("nan")):
            with pytest.raises(ValueError):
                histogram.percentile(bad)


class TestLabelledMetrics:
    def test_labels_create_distinct_series(self):
        registry = obs.MetricsRegistry()
        registry.counter("hits", labels={"socket": 0}).inc(1)
        registry.counter("hits", labels={"socket": 1}).inc(5)
        assert registry.get('hits{socket="0"}').value == 1
        assert registry.get('hits{socket="1"}').value == 5

    def test_labelled_name_is_order_insensitive(self):
        from repro.obs.metrics import labelled_name

        assert (labelled_name("m", {"b": 1, "a": 2})
                == labelled_name("m", {"a": 2, "b": 1}))
        assert labelled_name("m", None) == "m"

    def test_snapshot_carries_labels(self):
        registry = obs.MetricsRegistry()
        registry.gauge("depth", labels={"model": "resnet"}).set(3)
        snap = registry.snapshot()['depth{model="resnet"}']
        assert snap["labels"] == {"model": "resnet"}

    def test_hardware_wraparound_under_labelled_registry(self):
        # Satellite: the wrap semantics of IV-F survive when the same
        # registry also hosts labelled software series.
        registry = obs.MetricsRegistry()
        registry.counter("sw.events", labels={"socket": 0}).inc(3)
        perf_counter = PerfCounter("macs", bits=8)
        perf_counter.configure(offset=254)
        view = registry.bind_hardware("hw.macs", perf_counter)
        view.inc(4)  # 254 + 4 wraps an 8-bit counter to 2
        assert view.wrapped
        assert view.value == 2
        snap = registry.snapshot()
        assert snap["hw.macs"]["wrapped"] is True
        assert snap['sw.events{socket="0"}']["value"] == 3
