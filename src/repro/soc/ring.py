"""CHA's bidirectional ring bus.

Section III: the ring is 512 bits wide in each direction with 1-cycle
latency between ring stops; at 2.5 GHz each direction provides up to
160 GB/s (320 GB/s combined).  Ring stops exist for each x86 core, Ncore,
I/O, the memory controllers, and multi-socket logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.obs.metrics import get_metrics
from repro.soc.config import SocConfig


class RingStop(enum.Enum):
    """The agents attached to CHA's ring."""

    CORE0 = "core0"
    CORE1 = "core1"
    CORE2 = "core2"
    CORE3 = "core3"
    CORE4 = "core4"
    CORE5 = "core5"
    CORE6 = "core6"
    CORE7 = "core7"
    NCORE = "ncore"
    IO = "io"
    MEMORY = "memory"
    MULTI_SOCKET = "multi_socket"


# Physical ordering of stops around the ring (a modelling choice consistent
# with the die photo: cores on both sides, Ncore adjacent to the memory
# controller and I/O).
RING_ORDER = [
    RingStop.CORE0,
    RingStop.CORE1,
    RingStop.CORE2,
    RingStop.CORE3,
    RingStop.MEMORY,
    RingStop.NCORE,
    RingStop.IO,
    RingStop.MULTI_SOCKET,
    RingStop.CORE4,
    RingStop.CORE5,
    RingStop.CORE6,
    RingStop.CORE7,
]


def ring_order(num_cores: int = 8) -> tuple[str, ...]:
    """Stop order (as stop names) for a socket with ``num_cores`` cores.

    Generalizes ``RING_ORDER`` to non-CHA core counts: the first half of
    the cores sit on one side of the shared agents, the rest on the other,
    with Ncore still adjacent to the memory controller.
    """
    if num_cores < 1:
        raise ValueError("the ring needs at least one core stop")
    cores = [f"core{i}" for i in range(num_cores)]
    half = num_cores // 2
    shared = ["memory", "ncore", "io", "multi_socket"]
    return tuple(cores[:half] + shared + cores[half:])


def _stop_name(stop: "RingStop | str") -> str:
    return stop.value if isinstance(stop, RingStop) else stop


@dataclass
class RingBus:
    """Timing model of the bidirectional ring."""

    width_bits: int = 512
    clock_hz: float = 2.5e9
    hop_cycles: int = 1
    order: tuple[str, ...] = field(default_factory=ring_order)

    @classmethod
    def from_config(cls, config: SocConfig) -> "RingBus":
        return cls(
            width_bits=config.ring_width_bits,
            clock_hz=config.clock_hz,
            hop_cycles=config.ring_hop_cycles,
            order=ring_order(config.x86_cores),
        )

    @property
    def width_bytes(self) -> int:
        return self.width_bits // 8

    @property
    def bandwidth_per_direction(self) -> float:
        """Peak bytes/second in one direction (160 GB/s in CHA)."""
        return self.width_bytes * self.clock_hz

    def hops(self, src: "RingStop | str", dst: "RingStop | str") -> int:
        """Fewest ring stops between two agents (the ring is bidirectional,
        so traffic takes the shorter way around)."""
        a = self.order.index(_stop_name(src))
        b = self.order.index(_stop_name(dst))
        distance = abs(a - b)
        return min(distance, len(self.order) - distance)

    def transfer_cycles(self, src: "RingStop | str", dst: "RingStop | str", num_bytes: int) -> int:
        """Cycles to move a message: per-hop latency plus serialisation."""
        latency = self.hops(src, dst) * self.hop_cycles
        serialisation = -(-num_bytes // self.width_bytes)  # ceil division
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("ring.messages").inc()
            metrics.counter("ring.bytes", unit="B").inc(num_bytes)
            metrics.counter("ring.hop_cycles", unit="cycles").inc(latency)
            # Serialisation cycles are the stop-occupancy proxy: how long
            # the message holds its injection slot.
            metrics.counter("ring.occupancy_cycles", unit="cycles").inc(serialisation)
        return latency + serialisation
