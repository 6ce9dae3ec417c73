"""CHA's bidirectional ring bus.

Section III: the ring is 512 bits wide in each direction with 1-cycle
latency between ring stops; at 2.5 GHz each direction provides up to
160 GB/s (320 GB/s combined).  Ring stops exist for each x86 core, Ncore,
I/O, the memory controllers, and multi-socket logic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.soc.config import SocConfig


@dataclass
class RingBus:
    """Bandwidth model of the bidirectional ring."""

    width_bits: int = 512
    clock_hz: float = 2.5e9

    @classmethod
    def from_config(cls, config: SocConfig) -> "RingBus":
        return cls(width_bits=config.ring_width_bits, clock_hz=config.clock_hz)

    @property
    def bandwidth_per_direction(self) -> float:
        """Peak bytes/second in one direction (160 GB/s in CHA)."""
        return self.width_bits // 8 * self.clock_hz
