"""Tests for the event-log profiler (Fig. 10 traces)."""

import numpy as np
import pytest

from repro import obs
from repro.isa import assemble
from repro.ncore import Ncore, NcoreConfig
from repro.runtime.profiler import Profiler


def region(source: str):
    return assemble(source)


def cycles(span) -> int:
    return span.args["end_cycle"] - span.args["start_cycle"]


def loaded_machine(config=None, observation=obs.NULL_OBSERVATION) -> Ncore:
    machine = Ncore(config, obs=observation)
    machine.write_data_ram(0, bytes(np.full(4096, 1, np.uint8)))
    machine.write_weight_ram(0, bytes(np.full(4096, 1, np.uint8)))
    return machine


def profile_compute(machine):
    profiler = Profiler(machine)
    return profiler.run(profiler.instrument(
        [("compute", region("loop 10 {\n  mac dram[a0], wtram[a1]\n}"))]
    ))


class TestProfiler:
    def _spans(self, observation=obs.NULL_OBSERVATION):
        profiler = Profiler(loaded_machine(observation=observation))
        program = profiler.instrument(
            [
                ("setup", region("setaddr a0, 0\nsetaddr a1, 0")),
                ("compute", region("loop 10 {\n  mac dram[a0], wtram[a1]\n}")),
                ("writeback", region("setaddr a6, 4\nrequant.uint8\nstore a6")),
            ]
        )
        return profiler.run(program)

    def test_spans_cover_named_regions(self):
        assert [s.name for s in self._spans()] == ["setup", "compute", "writeback"]

    def test_compute_span_has_the_cycles(self):
        spans = {s.name: s for s in self._spans()}
        # marker + 10 fused MAC cycles land inside the compute span.
        assert cycles(spans["compute"]) >= 10
        assert cycles(spans["compute"]) > cycles(spans["setup"])

    def test_spans_are_contiguous_and_ordered(self):
        spans = self._spans()
        for a, b in zip(spans, spans[1:], strict=False):
            assert a.args["end_cycle"] == b.args["start_cycle"]
            assert a.args["start_cycle"] < a.args["end_cycle"]
            assert a.end_us == pytest.approx(b.start_us)

    def test_instrumentation_is_free(self):
        # Section IV-F: "logging poses no performance penalty" — the only
        # added cycles are the marker instructions themselves (1 each).
        machine = Ncore()
        body = region("loop 10 {\n  mac dram[a0], wtram[a1]\n}")
        baseline = machine.execute_program(body + assemble("halt")).cycles
        machine.reset()
        profiler = Profiler(machine)
        profiler.run(profiler.instrument([("all", body)]))
        assert machine.total_cycles == baseline + 2  # two markers

    def test_render_is_fig10_like(self):
        observation = obs.observe()
        self._spans(observation)
        text = obs.render_tracer(observation.tracer, tracks=["ncore"])
        assert text.startswith("[ncore]")
        assert "compute" in text
        assert "#" in text

    def test_marker_budget_enforced(self):
        profiler = Profiler(Ncore())
        for _ in range(16):
            profiler.marker("x")
        with pytest.raises(ValueError, match="markers"):
            profiler.marker("overflow")


class TestClockThreading:
    def test_span_seconds_uses_machine_clock(self):
        # An unobserved machine: spans convert through the machine's clock.
        (span,) = profile_compute(loaded_machine(NcoreConfig(clock_hz=1e9)))
        assert span.duration_us == pytest.approx(cycles(span) / 1e9 * 1e6)

    def test_explicit_clock_still_wins(self):
        # An observed machine's tracer converts through its own clock.
        tracer, _ = observation = obs.observe(clock_hz=2.5e6)
        (span,) = profile_compute(loaded_machine(observation=observation))
        assert span.duration_us == pytest.approx(cycles(span) / 2.5e6 * 1e6)
        assert any(s is span for s in tracer.spans_on("ncore"))


class TestOverflowDetection:
    def _flooding_machine(self):
        # A tiny event log makes the marker stream itself overflow it.
        machine = loaded_machine()
        machine.event_log.capacity = 1
        return machine

    def _program(self, profiler):
        return profiler.instrument(
            [
                ("setup", region("setaddr a0, 0")),
                ("compute", region("loop 4 {\n  mac dram[a0], wtram[a1]\n}")),
            ]
        )

    def test_overflow_raises_by_default(self):
        from repro.runtime.profiler import EventLogOverflowError

        profiler = Profiler(self._flooding_machine())
        with pytest.raises(EventLogOverflowError, match="wrapped"):
            profiler.run(self._program(profiler))

    def test_no_overflow_on_normal_runs(self):
        profiler = Profiler(loaded_machine())
        spans = profiler.run(self._program(profiler))
        assert [s.name for s in spans] == ["setup", "compute"]
