"""Cross-layer span tracing.

The paper's debugging story (section IV-F, Fig. 10) lives inside Ncore:
an event log, performance counters and n-step breakpoints.  The tracer
generalises that to the whole system the paper evaluates — delegate
partitioning, driver/DMA traffic, Ncore execution, the x86 fallback and
the MLPerf harness — as one stream of named, nested spans that can be
rendered as a Fig. 10-style text trace or exported to Perfetto.

Two time domains coexist:

- *wall* spans come from Python-level instrumentation (``Tracer.span``
  context managers) and are stamped with ``time.perf_counter``;
- *sim* spans come from simulator event streams (the Ncore event log,
  DMA engines, NKL cycle schedules) and are stamped in model cycles or
  model seconds, converted through the tracer's ``clock_hz``.

The exporter keeps the two domains in separate trace processes so the
timelines never falsely interleave.

Instrumentation must honor the paper's "no performance penalty" claim
(section IV-F): an object built without a live
:class:`~repro.obs.Observation` holds :data:`NULL_TRACER`, whose
``enabled`` flag lets hot call sites skip all bookkeeping.
``benchmarks/bench_obs_overhead.py`` guards this.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.context import TraceContext

#: Time domain of spans recorded from Python instrumentation.
WALL = "wall"
#: Time domain of spans fed from simulator event streams / cycle models.
SIM = "sim"


@dataclass
class SpanRecord:
    """One completed span on the tracer's timeline."""

    name: str
    track: str
    start_us: float
    duration_us: float
    domain: str = WALL
    category: str = ""
    args: dict[str, Any] = field(default_factory=dict)
    # Distributed-tracing correlation (empty when the span is not part of
    # a per-query trace tree; see repro.obs.context).
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass
class InstantRecord:
    """A zero-duration marker (exported as a Chrome instant event)."""

    name: str
    track: str
    ts_us: float
    domain: str = WALL
    args: dict[str, Any] = field(default_factory=dict)


class _SpanHandle:
    """Mutable handle yielded by :meth:`Tracer.span` for adding attributes."""

    __slots__ = ("args",)

    def __init__(self) -> None:
        self.args: dict[str, Any] = {}

    def set(self, **kwargs: Any) -> None:
        self.args.update(kwargs)


class _NullHandle:
    """The do-nothing handle yielded inside a :class:`NullTracer` span."""

    __slots__ = ()

    def set(self, **kwargs: Any) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class NullTracer:
    """The no-op default: every recording method is a cheap pass.

    ``enabled`` is False so instrumented call sites can skip building
    attribute dictionaries entirely — the zero-cost contract.
    """

    enabled = False

    @contextmanager
    def span(self, name: str, track: str = "app",
             context: TraceContext | None = None, **args: Any) -> Iterator[_NullHandle]:
        yield _NULL_HANDLE

    def add_span(self, name: str, track: str, *, start_us: float, duration_us: float,
                 domain: str = SIM, args: dict | None = None, category: str = "",
                 context: TraceContext | None = None) -> None:
        pass

    def add_cycle_span(self, name: str, track: str, start_cycle: int, end_cycle: int,
                       args: dict | None = None, category: str = "") -> None:
        pass

    def instant(self, name: str, track: str = "app", **args: Any) -> None:
        pass



NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans and instants from every layer.

    Thread-safe: spans may be recorded concurrently (the MLPerf harness
    and future batching/sharding work run queries from worker threads).
    """

    enabled = True

    def __init__(self, clock_hz: float = 2.5e9) -> None:
        self.clock_hz = float(clock_hz)
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Wall-clock instrumentation (Python layers)
    # ------------------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1e6

    @contextmanager
    def span(self, name: str, track: str = "app",
             context: TraceContext | None = None, **args: Any) -> Iterator[_SpanHandle]:
        """Bracket a wall-clock region; the handle adds late attributes."""
        handle = _SpanHandle()
        if args:
            handle.args.update(args)
        start = self._now_us()
        try:
            yield handle
        finally:
            duration = self._now_us() - start
            record = SpanRecord(
                name=name, track=track, start_us=start, duration_us=duration,
                domain=WALL, args=handle.args,
            )
            if context is not None:
                record.trace_id = context.trace_id
                record.span_id = context.span_id
                record.parent_id = context.parent_id
            with self._lock:
                self.spans.append(record)

    def instant(self, name: str, track: str = "app", **args: Any) -> None:
        record = InstantRecord(name=name, track=track, ts_us=self._now_us(), args=args)
        with self._lock:
            self.instants.append(record)

    # ------------------------------------------------------------------
    # Simulated-time instrumentation (event streams, cycle schedules)
    # ------------------------------------------------------------------

    def add_span(self, name: str, track: str, *, start_us: float, duration_us: float,
                 domain: str = SIM, args: dict | None = None, category: str = "",
                 context: TraceContext | None = None) -> SpanRecord:
        """Record a completed span with explicit timestamps; returns it."""
        record = SpanRecord(
            name=name, track=track, start_us=start_us, duration_us=duration_us,
            domain=domain, category=category, args=dict(args or {}),
        )
        if context is not None:
            record.trace_id = context.trace_id
            record.span_id = context.span_id
            record.parent_id = context.parent_id
        with self._lock:
            self.spans.append(record)
        return record

    def add_cycle_span(self, name: str, track: str, start_cycle: int, end_cycle: int,
                       args: dict | None = None, category: str = "") -> SpanRecord:
        """Record a simulator span stamped in model cycles; returns it."""
        scale = 1e6 / self.clock_hz
        merged = {"start_cycle": int(start_cycle), "end_cycle": int(end_cycle)}
        if args:
            merged.update(args)
        return self.add_span(
            name, track,
            start_us=start_cycle * scale,
            duration_us=max(0, end_cycle - start_cycle) * scale,
            domain=SIM, args=merged, category=category,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def tracks(self) -> list[str]:
        """Track names in order of first appearance."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track, None)
        for instant in self.instants:
            seen.setdefault(instant.track, None)
        return list(seen)

    def spans_on(self, track: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.track == track]

    def trace_ids(self) -> list[str]:
        """Distinct trace ids in order of first appearance."""
        seen: dict[str, None] = {}
        for span in self.spans:
            if span.trace_id:
                seen.setdefault(span.trace_id, None)
        return list(seen)

