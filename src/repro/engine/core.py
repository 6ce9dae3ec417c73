"""The discrete-event execution engine: simulated clock, event queue, tasks.

The paper's serving behaviour (section VI, Figs. 12-14) comes from
overlapping Ncore compute with batchable x86 work across many in-flight
queries.  Modelling that faithfully needs *one* notion of time shared by
every actor — Ncore instances, the x86 worker pool, the batching queue,
the load generator — and a scheduler that interleaves them.  This module
is that scheduler: a deterministic discrete-event kernel in the style of
cycle-level NPU simulators (ONNXim's tick/event loop), small enough to
audit but complete enough to host the whole serving stack
(``repro.perf.serving`` and ``repro.perf.mlperf`` are its consumers).

Design points:

- **Simulated time only.**  ``Engine.now`` is a float in seconds of model
  time; nothing here reads the wall clock, so every run is reproducible
  and percentile statistics are exact functions of the seed.
- **Deterministic ordering.**  The event queue breaks timestamp ties by
  insertion sequence number, so two runs of the same schedule pop events
  in the same order — the property the seed-determinism tests pin down.
- **Cooperative tasks.**  A task is a plain generator that yields
  :class:`Event` objects (timeouts, resource grants, completions) and is
  resumed with the event's value.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator


class EngineError(RuntimeError):
    """Engine-level failures (bad yields, double triggers, dead tasks)."""


class Event:
    """One-shot occurrence tasks can wait on.

    An event starts *pending*; :meth:`succeed` triggers it, resuming every
    waiting task at the engine's current time with the event's value.
    Triggering twice is an error — occurrences are facts.
    """

    __slots__ = ("engine", "_callbacks", "triggered", "value")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._callbacks: list[Callable[[Event], None]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise EngineError("event already triggered")
        self.triggered = True
        self.value = value
        for callback in self._callbacks:
            self.engine._post(0.0, callback, self)
        self._callbacks.clear()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.triggered:
            # Late subscribers still observe the occurrence (next delta).
            self.engine._post(0.0, callback, self)
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that triggers itself ``delay`` seconds in the future."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        super().__init__(engine)
        if delay < 0:
            raise EngineError(f"cannot schedule {delay} seconds into the past")
        engine._post(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self.succeed(value)


TaskGenerator = Generator[Event, Any, Any]


class Task(Event):
    """A running cooperative task; itself an event that triggers on return.

    The wrapped generator yields :class:`Event` objects; each resume
    passes the event's value back in.  The generator's ``return`` value
    becomes the task's event value, so tasks compose:
    ``result = yield engine.process(subtask())``.
    """

    __slots__ = ("name", "_generator")

    def __init__(self, engine: "Engine", generator: TaskGenerator, name: str = "") -> None:
        super().__init__(engine)
        self.name = name or getattr(generator, "__name__", "task")
        self._generator = generator
        engine._post(0.0, self._resume, _START)

    def _resume(self, event: "Event") -> None:
        try:
            target = self._generator.send(None if event is _START else event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise EngineError(
                f"task {self.name!r} yielded {type(target).__name__}; "
                "tasks must yield Event objects (timeout, request, process)"
            )
        if target.engine is not self.engine:
            raise EngineError(f"task {self.name!r} yielded an event from another engine")
        target.add_callback(self._resume)


class _Start(Event):
    """Sentinel used to kick a task's first resume (never triggered)."""

    __slots__ = ()

    def __init__(self) -> None:  # no engine; never scheduled
        self.triggered = False
        self.value = None


_START = _Start()


class Engine:
    """The discrete-event scheduler: one simulated clock, one event queue.

    All model actors — per-socket Ncore loops, the batching queue, the
    modelled x86 worker pool, scenario load generators — share this clock,
    which is what lets N Ncore instances and a query stream interleave
    deterministically.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._sequence = 0
        self._events_dispatched = 0

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------

    def _post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Internal: enqueue a callback ``delay`` seconds from now."""
        if delay < 0:
            raise EngineError(f"cannot schedule {delay} seconds into the past")
        heapq.heappush(self._heap, (self.now + delay, self._sequence, fn, args))
        self._sequence += 1

    def call_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at an absolute simulated time."""
        self._post(time - self.now, fn, *args)

    def call_after(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after a simulated delay."""
        self._post(delay, fn, *args)

    def event(self) -> Event:
        """A fresh pending event (trigger it with ``.succeed(value)``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: TaskGenerator, name: str = "") -> Task:
        """Start a cooperative task; returns the task (itself awaitable)."""
        return Task(self, generator, name=name)

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Dispatch events in time order; returns the final ``now``.

        ``until`` bounds simulated time (events beyond it stay queued and
        ``now`` lands exactly on ``until``); ``max_events`` bounds work so
        a mis-wired schedule fails fast instead of spinning forever.
        """
        dispatched = 0
        while self._heap:
            time, _seq, fn, args = self._heap[0]
            if until is not None and time > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            self.now = time
            fn(*args)
            dispatched += 1
            self._events_dispatched += 1
            if dispatched >= max_events:
                raise EngineError(
                    f"engine dispatched {max_events} events without draining; "
                    "likely a runaway schedule (use a larger max_events if real)"
                )
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def events_dispatched(self) -> int:
        """Total events dispatched over the engine's lifetime."""
        return self._events_dispatched

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def trace_span(
        self,
        name: str,
        track: str,
        start: float,
        end: float,
        args: dict | None = None,
        context=None,
    ) -> None:
        """Record a simulated-time span (seconds) on the installed tracer.

        ``context`` is an optional :class:`repro.obs.context.TraceContext`
        tying the span into one query's causal tree.
        """
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                name, track,
                start_us=start * 1e6, duration_us=max(0.0, end - start) * 1e6,
                args=args, context=context,
            )
