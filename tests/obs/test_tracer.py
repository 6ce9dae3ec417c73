"""Tests for the tracer: spans, domains, the observation pair."""

import pytest

from repro import obs
from repro.obs.tracer import NULL_TRACER, SIM, WALL


class TestNullDefault:
    def test_default_is_null(self):
        assert obs.NULL_OBSERVATION.tracer is NULL_TRACER
        assert not obs.NULL_OBSERVATION.tracer.enabled

    def test_null_tracer_records_nothing(self):
        tracer = obs.NULL_OBSERVATION.tracer
        with tracer.span("x", track="t") as handle:
            handle.set(a=1)
        tracer.add_cycle_span("y", "t", 0, 10)
        tracer.instant("z")
        # No attribute error, no state: still the shared null tracer.
        assert obs.NULL_OBSERVATION.tracer is NULL_TRACER


class TestObservation:
    def test_observe_returns_a_live_pair(self):
        tracer, metrics = observation = obs.observe(clock_hz=1e9)
        assert observation.tracer is tracer and observation.metrics is metrics
        assert tracer.enabled and metrics.enabled
        assert tracer.clock_hz == 1e9
        # Every call is a fresh pair: nothing is shared between callers.
        other = obs.observe()
        assert other.tracer is not tracer and other.metrics is not metrics


class TestWallSpans:
    def test_span_records_duration_and_args(self):
        tracer = obs.Tracer()
        with tracer.span("work", track="delegate", model="m") as handle:
            handle.set(nodes=3)
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.track == "delegate"
        assert span.domain == WALL
        assert span.duration_us >= 0
        assert span.args == {"model": "m", "nodes": 3}

    def test_nested_spans_are_contained(self):
        tracer = obs.Tracer()
        with tracer.span("outer"), tracer.span("inner"):
            pass
        inner, outer = tracer.spans  # inner closes first
        assert outer.start_us <= inner.start_us
        assert inner.end_us <= outer.end_us

    def test_span_recorded_even_when_body_raises(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError), tracer.span("fails"):
            raise ValueError("x")
        assert [s.name for s in tracer.spans] == ["fails"]

    def test_instant(self):
        tracer = obs.Tracer()
        tracer.instant("marker", track="t", reason="why")
        (instant,) = tracer.instants
        assert instant.name == "marker"
        assert instant.args == {"reason": "why"}


class TestCycleSpans:
    def test_cycles_convert_through_clock(self):
        tracer = obs.Tracer(clock_hz=1e6)  # 1 cycle == 1 us
        tracer.add_cycle_span("k", "ncore", 100, 350)
        (span,) = tracer.spans
        assert span.domain == SIM
        assert span.start_us == pytest.approx(100.0)
        assert span.duration_us == pytest.approx(250.0)
        assert span.args["start_cycle"] == 100
        assert span.args["end_cycle"] == 350

    def test_tracks_in_first_appearance_order(self):
        tracer = obs.Tracer()
        tracer.add_cycle_span("a", "t2", 0, 1)
        tracer.add_cycle_span("b", "t1", 0, 1)
        tracer.add_cycle_span("c", "t2", 1, 2)
        assert tracer.tracks() == ["t2", "t1"]
        assert [s.name for s in tracer.spans_on("t2")] == ["a", "c"]
