"""Tests for the Chrome-trace/Perfetto exporter and the metrics dumps."""

import json

import pytest

from repro import obs
from repro.obs.export import SIM_PID, WALL_PID


def make_tracer():
    tracer = obs.Tracer(clock_hz=1e6)
    with tracer.span("compile", track="delegate", model="m"):
        pass
    tracer.add_cycle_span("kernel", "ncore", 0, 500, args={"macs": 10})
    tracer.instant("marker", track="delegate")
    tracer.counter("occupancy", 3.0, ts_us=100.0)
    return tracer


class TestChromeTrace:
    def test_document_shape(self):
        doc = obs.chrome_trace(make_tracer())
        assert "traceEvents" in doc
        assert doc["displayTimeUnit"] == "ms"
        for event in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)

    def test_complete_events_carry_spans(self):
        doc = obs.chrome_trace(make_tracer())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert names == {"compile", "kernel"}
        kernel = next(e for e in complete if e["name"] == "kernel")
        assert kernel["ts"] == 0
        assert kernel["dur"] == pytest.approx(500.0)
        assert kernel["args"]["macs"] == 10

    def test_domains_map_to_processes(self):
        doc = obs.chrome_trace(make_tracer())
        complete = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert complete["compile"]["pid"] == WALL_PID
        assert complete["kernel"]["pid"] == SIM_PID

    def test_metadata_names_processes_and_tracks(self):
        doc = obs.chrome_trace(make_tracer())
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        thread_names = {e["args"]["name"] for e in metadata
                        if e["name"] == "thread_name"}
        assert {"delegate", "ncore"} <= thread_names
        process_names = {e["args"]["name"] for e in metadata
                         if e["name"] == "process_name"}
        assert "model (simulated time)" in process_names

    def test_counter_events(self):
        doc = obs.chrome_trace(make_tracer())
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert any(e["name"] == "occupancy" and e["args"]["value"] == 3.0
                   for e in counters)

    def test_metrics_ride_along_as_counters(self):
        registry = obs.MetricsRegistry()
        registry.counter("dma.bytes_moved", unit="B").inc(4096)
        doc = obs.chrome_trace(make_tracer(), registry)
        counters = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "C"}
        assert counters["dma.bytes_moved"]["args"]["value"] == 4096

    def test_write_is_valid_json(self, tmp_path):
        import numpy as np

        tracer = make_tracer()
        tracer.add_cycle_span("np", "ncore", 500, 600,
                              args={"value": np.int64(7)})
        path = tmp_path / "out.trace.json"
        obs.write_chrome_trace(path, tracer)
        doc = json.loads(path.read_text())
        assert any(e["name"] == "np" for e in doc["traceEvents"])


class TestMetricsDumps:
    def test_csv_has_one_row_per_metric(self):
        registry = obs.MetricsRegistry()
        registry.counter("a", unit="B").inc(1)
        registry.gauge("b").set(2)
        registry.histogram("c").observe(3.0)
        text = obs.metrics_csv(registry)
        lines = text.strip().splitlines()
        assert lines[0].startswith("name,kind,unit")
        assert len(lines) == 4
        assert lines[1].startswith("a,counter,B,1")

    def test_json_round_trips(self):
        registry = obs.MetricsRegistry()
        registry.counter("a").inc(5)
        assert json.loads(json.dumps(registry.snapshot()))["a"]["value"] == 5


class TestRender:
    def test_render_bars_alignment(self):
        text = obs.render_bars("title", [("a", 0, 50), ("b", 50, 50)], total=100,
                               width=10, unit="cyc")
        lines = text.splitlines()
        assert lines[0] == "title"
        assert "#" in lines[1]
        # Second bar starts at half the axis.
        assert lines[2].split("|")[1].startswith("     #")

    def test_render_tracer_sections_per_track(self):
        text = obs.render_tracer(make_tracer())
        assert "[delegate]" in text
        assert "[ncore]" in text
        assert "cycles" in text

    def test_render_empty_tracer(self):
        assert obs.render_tracer(obs.Tracer()) == "(empty trace)"
