"""SoC-level configuration parameters.

The companion of :class:`repro.ncore.NcoreConfig` one level up: where that
dataclass captures Ncore's breadth (slices) and height (SRAM rows), this one
captures the CHA substrate the coprocessor plugs into — ring width and hop
latency, DDR channel count and transfer rate, L3 geometry, x86 core count
and the shared clock.  All defaults are the shipped CHA point (sections III
and IV, Table IV); ``repro explore`` sweeps these knobs alongside the Ncore
ones to trace perf/power/area frontiers.

Like ``NcoreConfig``, instances are frozen and hashable so they can key
caches and sweep results.
"""

from __future__ import annotations

from dataclasses import dataclass

# DDR4 moves 8 bytes per transfer per channel (64-bit channels).
BYTES_PER_DDR_TRANSFER = 8


@dataclass(frozen=True)
class SocConfig:
    """Architectural parameters of one CHA socket (minus Ncore)."""

    ring_width_bits: int = 512           # per direction (section III)
    ddr_channels: int = 4                # four channels of DDR4-3200
    ddr_transfer_rate: float = 3200e6    # transfers/second per channel (DDR4-3200)
    dram_bytes: int = 32 << 30           # the test platform's 32 GB (Table IV)
    dram_latency_ns: float = 30.0
    l3_bytes: int = 16 << 20             # 16 MB shared L3
    l3_ways: int = 16
    x86_cores: int = 8                   # CNS cores per socket
    clock_hz: float = 2.5e9              # single SoC frequency domain
    cross_socket_efficiency: float = 0.97

    def __post_init__(self) -> None:
        if self.ring_width_bits < 8 or self.ring_width_bits % 8:
            raise ValueError("ring width must be a positive multiple of 8 bits")
        if self.ddr_channels < 1:
            raise ValueError("the memory controller needs at least one channel")
        if self.x86_cores < 1:
            raise ValueError("CHA needs at least one x86 core")
        if not 0 < self.cross_socket_efficiency <= 1:
            raise ValueError("cross-socket efficiency must be in (0, 1]")

    @property
    def ring_width_bytes(self) -> int:
        return self.ring_width_bits // 8

    @property
    def ring_bandwidth_per_direction(self) -> float:
        """Peak bytes/second in one ring direction (160 GB/s in CHA)."""
        return self.ring_width_bytes * self.clock_hz

    @property
    def ddr_bandwidth(self) -> float:
        """Peak theoretical DRAM throughput (102.4 GB/s in CHA)."""
        return self.ddr_channels * self.ddr_transfer_rate * BYTES_PER_DDR_TRANSFER

    @property
    def ncore_dma_bandwidth(self) -> float:
        """Sustained Ncore DMA bytes/second: the slower of one ring
        direction and the DRAM controller (102.4 GB/s in CHA).  Ncore
        consumes the stream at its own clock, so the per-cycle rate is
        this over ``NcoreConfig.clock_hz`` (40.96 B/cycle at 2.5 GHz)."""
        return min(self.ring_bandwidth_per_direction, self.ddr_bandwidth)


# The shipped CHA configuration.
CHA_SOC = SocConfig()
