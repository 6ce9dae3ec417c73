"""Runtime profiling via the event log: Fig. 10-style traces.

Section V-C shows "an example runtime trace generated during an Ncore run
using Ncore's debugging features".  The profiler brackets program regions
with event markers, runs the program, and folds the drained event log into
named :class:`~repro.obs.SpanRecord` cycle spans on track ``ncore`` —
logging "poses no performance penalty on Ncore" (section IV-F), so the
trace is free.

The spans go to the machine's observation tracer, so Profiler traces land
in the same Perfetto export as the rest of the system and render with
:func:`repro.obs.render_tracer`; on an unobserved machine they are
recorded on a private tracer clocked at the machine's ``config.clock_hz``.
"""

from __future__ import annotations

from repro.isa import Instruction, SeqOp, SeqOpcode
from repro.ncore import Ncore
from repro.obs.tracer import SpanRecord, Tracer

MAX_TAG = 15  # the EVENT seq-op arg is a 4-bit field


class EventLogOverflowError(RuntimeError):
    """The 1,024-entry event log wrapped mid-program: spans were lost.

    The hardware buffer silently overwrites its oldest entries (section
    IV-F); a trace folded from a wrapped log would be truncated, so the
    profiler refuses to return one.
    """


class Profiler:
    """Instrument and run a program on one machine."""

    def __init__(self, machine: Ncore) -> None:
        self.machine = machine
        self._names: dict[int, str] = {}
        self._next_tag = 0

    def marker(self, name: str) -> Instruction:
        """Allocate an event marker instruction for a named region edge."""
        if self._next_tag > MAX_TAG:
            raise ValueError(f"at most {MAX_TAG + 1} markers per trace")
        tag = self._next_tag
        self._next_tag += 1
        self._names[tag] = name
        return Instruction(seq=SeqOp(SeqOpcode.EVENT, tag))

    def instrument(self, regions: list[tuple[str, list[Instruction]]]) -> list[Instruction]:
        """Build a program of named regions, each bracketed by markers."""
        program: list[Instruction] = []
        for name, body in regions:
            program.append(self.marker(f"{name}"))
            program.extend(body)
        program.append(self.marker("__end__"))
        program.append(Instruction(seq=SeqOp(SeqOpcode.HALT)))
        return program

    def run(self, program: list[Instruction],
            max_cycles: int = 100_000_000) -> list[SpanRecord]:
        """Execute and fold the event log into one cycle span per region.

        Raises :class:`EventLogOverflowError` when the log wrapped during
        the run (spans irrecoverably lost).
        """
        self.machine.event_log.drain()  # start clean
        self.machine.execute_program(program, max_cycles=max_cycles)
        dropped = self.machine.event_log.dropped
        if dropped:
            raise EventLogOverflowError(
                f"event log wrapped during the run: {dropped} events were "
                f"overwritten before draining, the trace is truncated "
                f"(capacity {self.machine.event_log.capacity})"
            )
        tracer = self.machine.obs.tracer
        if not tracer.enabled:
            tracer = Tracer(clock_hz=self.machine.config.clock_hz)
        events = [
            e for e in self.machine.event_log.drain() if e.tag in self._names
        ]
        spans: list[SpanRecord] = []
        for current, following in zip(events, events[1:], strict=False):
            name = self._names[current.tag]
            if name == "__end__":
                continue
            spans.append(tracer.add_cycle_span(
                name, "ncore", current.cycle, following.cycle, category="profiler",
            ))
        return spans
