"""Ncore debug features (section IV-F).

Three configurable facilities, all controlled by the runtime:

- *event logging*: a 1,024-entry circular buffer that can be written and
  read dynamically without interfering with execution (no performance
  penalty);
- *performance counters*: configurable with an initial offset and optional
  breakpointing at counter wraparound;
- *n-step breakpointing*: pause execution every n clock cycles so the
  runtime can inspect machine state.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EventRecord:
    """One entry in the event log."""

    cycle: int
    tag: int
    pc: int


class EventLog:
    """The 1,024-entry circular event buffer.

    Logging never stalls Ncore (section IV-F), so there is no cycle cost
    associated with :meth:`record`.  When the buffer wraps, the oldest
    entries are overwritten, as in a hardware circular buffer.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self._entries: list[EventRecord] = []
        self._total = 0

    def record(self, cycle: int, tag: int, pc: int) -> None:
        record = EventRecord(cycle, tag, pc)
        if len(self._entries) == self.capacity:
            self._entries[self._total % self.capacity] = record
        else:
            self._entries.append(record)
        self._total += 1

    def drain(self) -> list[EventRecord]:
        """Read out all buffered events (x86-side), oldest first."""
        if self._total <= self.capacity:
            out = list(self._entries)
        else:
            split = self._total % self.capacity
            out = self._entries[split:] + self._entries[:split]
        self._entries = []
        self._total = 0
        return out

    @property
    def dropped(self) -> int:
        """Events overwritten before being drained."""
        return max(0, self._total - self.capacity)

    def __len__(self) -> int:
        return min(self._total, self.capacity)


class PerfCounter:
    """One performance counter with offset and wraparound breakpointing.

    The counter is ``bits`` wide; it can be configured with an initial
    offset so that it wraps (and optionally breakpoints) after a chosen
    number of increments — the mechanism section IV-F describes for
    breaking "at counter wraparound".
    """

    def __init__(self, name: str, bits: int = 48) -> None:
        self.name = name
        self.bits = bits
        self._modulus = 1 << bits
        self.value = 0
        self.break_on_wrap = False
        self.wrapped = False

    def configure(self, offset: int = 0, break_on_wrap: bool = False) -> None:
        self.value = offset % self._modulus
        self.break_on_wrap = break_on_wrap
        self.wrapped = False

    def add(self, amount: int = 1) -> bool:
        """Increment; returns True if a wraparound breakpoint fired."""
        before = self.value
        self.value = (self.value + amount) % self._modulus
        if self.value < before or amount >= self._modulus:
            self.wrapped = True
            return self.break_on_wrap
        return False
