"""OpenMetrics text exposition of the metrics registry."""

from repro import obs
from repro.ncore import PerfCounter
from repro.obs.prometheus import prometheus_text, sanitize_name, write_prometheus


class TestNameSanitization:
    def test_dots_become_underscores(self):
        assert sanitize_name("ncore.replay.hits") == "ncore_replay_hits"

    def test_leading_digit_gets_a_prefix(self):
        assert sanitize_name("1bad").startswith("_")


class TestExposition:
    def test_counter_gets_total_suffix(self):
        registry = obs.MetricsRegistry()
        registry.counter("engine.queries", description="queries").inc(7)
        text = prometheus_text(registry)
        assert "# TYPE engine_queries_total counter" in text
        assert "# HELP engine_queries_total queries" in text
        assert "engine_queries_total 7" in text

    def test_labels_render_prometheus_style(self):
        registry = obs.MetricsRegistry()
        registry.counter("hits", labels={"model": "resnet", "socket": 0}).inc()
        assert 'hits_total{model="resnet",socket="0"} 1' in prometheus_text(registry)

    def test_histogram_renders_as_summary(self):
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("lat", unit="s")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        text = prometheus_text(registry)
        assert "# TYPE lat summary" in text
        assert 'lat{quantile="0.5"} 2' in text
        assert "lat_count 3" in text
        assert "lat_sum 6" in text

    def test_hardware_counter_exposes_wrap_flag(self):
        registry = obs.MetricsRegistry()
        counter = PerfCounter("macs", bits=8)
        counter.configure(offset=250)
        registry.bind_hardware("hw.macs", counter)
        registry.get("hw.macs").inc(10)  # wraps
        text = prometheus_text(registry)
        assert "hw_macs_wrapped 1" in text

    def test_slo_exposes_burn_rate_series(self):
        from repro.perf.serving import run_server
        from repro.perf.system import get_system

        observation = obs.observe()
        run_server(get_system("mobilenet_v1"), queries=16,
                   slo_latency_seconds=1e-9, obs=observation)
        text = prometheus_text(observation.metrics)
        labels = '{model="mobilenet_v1"}'
        assert "# TYPE server_slo_burn_rate gauge" in text
        assert f"server_slo_attainment{labels} 0\n" in text
        assert f"server_slo_burn_rate{labels} 100\n" in text
        assert f"server_slo_budget_remaining{labels} -99\n" in text
        assert f"server_latency_seconds_count{labels} 16\n" in text

    def test_write_prometheus(self, tmp_path):
        registry = obs.MetricsRegistry()
        registry.gauge("depth").set(4)
        path = tmp_path / "metrics.prom"
        write_prometheus(str(path), registry)
        assert "depth 4" in path.read_text()

    def test_empty_registry_is_empty_text(self):
        assert prometheus_text(obs.MetricsRegistry()) == ""
