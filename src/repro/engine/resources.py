"""Capacity-limited resources for engine tasks.

Models the contended actors of the serving stack: the x86 worker pool
(``cores - 1`` preprocessing/postprocessing workers — one core drives
Ncore, section VI-C) and the serial driver cores.  Grants are FIFO in
request order, which keeps every schedule deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from repro.engine.core import Engine, EngineError, Event, TaskGenerator


class Resource:
    """A counting resource with FIFO grant order.

    Tasks ``yield resource.request()`` to acquire one slot and must call
    :meth:`release` when done.  :meth:`use` packages the common
    acquire / hold-for-seconds / release pattern as a subtask.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "resource") -> None:
        if capacity < 1:
            raise EngineError(f"{name}: capacity must be at least 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    def request(self) -> Event:
        """An event that triggers when one slot is granted to the caller."""
        grant = self.engine.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            grant.succeed(self)
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Return one slot; the oldest waiter (if any) is granted in-place."""
        if self.in_use < 1:
            raise EngineError(f"{self.name}: release without a matching request")
        if self._waiters:
            # Hand the slot straight to the next waiter: occupancy stays.
            self._waiters.popleft().succeed(self)
        else:
            self.in_use -= 1

    def use(self, hold_seconds: float) -> TaskGenerator:
        """Subtask: acquire a slot, hold it for simulated time, release."""
        def body() -> Iterator[Event]:
            yield self.request()
            try:
                yield self.engine.timeout(hold_seconds)
            finally:
                self.release()

        return body()


class WorkerPool(Resource):
    """The modelled x86 worker pool: N cores chewing through task seconds.

    ``submit`` returns an event that triggers when one worker has spent
    ``seconds`` of simulated time on the work item — the engine analogue
    of dispatching a preprocessing job onto a core.
    """

    def __init__(self, engine: Engine, workers: int, name: str = "x86-pool") -> None:
        super().__init__(engine, capacity=workers, name=name)

    def submit(self, seconds: float) -> Event:
        return self.engine.process(self.use(seconds), name=f"{self.name}.work")
