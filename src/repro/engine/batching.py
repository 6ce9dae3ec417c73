"""The dynamic-batching queue in front of the Ncore executor.

Section VI-A's Offline submissions batch queries ("a batch size of 64 to
increase the arithmetic intensity"); a Server scenario has to *assemble*
those batches from an arrival stream under a latency bound.  This is the
standard two-knob policy: a batch closes when it reaches ``max_batch``
items, or ``max_wait`` simulated seconds after its first item arrived,
whichever comes first.  ``max_wait=0`` degenerates to greedy batching
(whatever is queued when the executor frees up, at least one item), and
``max_batch=1`` degenerates to pure FIFO — the degenerate schedules the
SingleStream scenario re-uses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.engine.core import Engine, Event


@dataclass
class Batch:
    """One assembled batch: items plus its assembly timestamps."""

    items: list[Any]
    opened_at: float      # arrival time of the first item
    closed_at: float      # when the batch was sealed
    reason: str           # "size" | "deadline" | "greedy" | "flush"
    sequence: int = 0

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def assembly_seconds(self) -> float:
        return self.closed_at - self.opened_at


@dataclass
class BatchQueueStats:
    """Running batch-assembly statistics for reports."""

    batches: int = 0
    items: int = 0
    by_reason: dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return self.items / self.batches if self.batches else 0.0

    def record(self, batch: Batch) -> None:
        self.batches += 1
        self.items += batch.size
        self.by_reason[batch.reason] = self.by_reason.get(batch.reason, 0) + 1


class BatchQueue:
    """Assemble an item stream into batches under (max_batch, max_wait).

    Producers call :meth:`put`; consumers ``yield queue.get()`` and are
    resumed with a :class:`Batch`.  Sealed batches buffer FIFO when no
    consumer is waiting, so multiple Ncore executors can pull from one
    queue (the multisocket sharding path).
    """

    def __init__(
        self,
        engine: Engine,
        max_batch: int = 8,
        max_wait: float = 0.0,
        name: str = "batch-queue",
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"{name}: max_batch must be at least 1")
        if max_wait < 0:
            raise ValueError(f"{name}: max_wait must be non-negative")
        self.engine = engine
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.name = name
        self.stats = BatchQueueStats()
        self._open: list[Any] = []
        self._opened_at = 0.0
        self._generation = 0        # invalidates stale deadline timers
        self._ready: deque[Batch] = deque()
        self._getters: deque[Event] = deque()
        self._sequence = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def put(self, item: Any) -> None:
        """Add one item; may seal a batch (size) or arm the deadline."""
        if not self._open:
            self._opened_at = self.engine.now
            if self.max_wait > 0:
                generation = self._generation
                self.engine.call_after(self.max_wait, self._deadline, generation)
        self._open.append(item)
        metrics = self.engine.obs.metrics
        if metrics.enabled:
            metrics.gauge(
                "engine.batch_queue.depth", labels={"queue": self.name}
            ).set(self.depth)
        if len(self._open) >= self.max_batch:
            self._seal("size")
        elif self.max_wait == 0 and self._getters:
            # Greedy mode: an idle executor takes whatever just arrived.
            self._seal("greedy")

    def _deadline(self, generation: int) -> None:
        # A stale timer (its batch already sealed by size) is a no-op.
        if generation == self._generation and self._open:
            self._seal("deadline")

    def _seal(self, reason: str) -> None:
        batch = Batch(
            items=self._open,
            opened_at=self._opened_at,
            closed_at=self.engine.now,
            reason=reason,
            sequence=self._sequence,
        )
        self._sequence += 1
        self._open = []
        self._generation += 1
        self.stats.record(batch)
        metrics = self.engine.obs.metrics
        if metrics.enabled:
            labels = {"queue": self.name}
            metrics.counter("engine.batch_queue.batches", labels=labels).inc()
            metrics.histogram(
                "engine.batch_queue.batch_size", labels=labels
            ).observe(batch.size)
        if self._getters:
            self._getters.popleft().succeed(batch)
        else:
            self._ready.append(batch)

    def flush(self) -> None:
        """Seal the open batch regardless of size/deadline (end of stream)."""
        if self._open:
            self._seal("flush")

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def get(self) -> Event:
        """An event resumed with the next sealed :class:`Batch`."""
        grant = self.engine.event()
        if self._ready:
            grant.succeed(self._ready.popleft())
        else:
            self._getters.append(grant)
            # Greedy mode: if items are already waiting and an executor
            # just became idle, hand them over immediately.
            if self.max_wait == 0 and self._open:
                self._seal("greedy")
        return grant

    @property
    def depth(self) -> int:
        """Items currently waiting (open batch plus sealed, unclaimed ones)."""
        return len(self._open) + sum(b.size for b in self._ready)
