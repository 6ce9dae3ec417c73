"""CHA's memory controller: four channels of DDR4-3200.

Section III: "The memory controller supports four channels of DDR4-3200
DRAM, providing 102 GB/s peak theoretical throughput."  The controller
wraps a :class:`repro.ncore.LinearMemory` so that Ncore's DMA engines, the
x86 cores and the runtime all see the same backing store.
"""

from __future__ import annotations

from repro.ncore.dma import LinearMemory
from repro.soc.config import BYTES_PER_DDR_TRANSFER, SocConfig

# DDR4-3200: 3200 MT/s x 8 bytes per channel.
BYTES_PER_CHANNEL_PER_SECOND = 3200e6 * BYTES_PER_DDR_TRANSFER


class DramController(LinearMemory):
    """The four-channel DDR4-3200 controller as a LinearMemory.

    Exposes the DMA-facing bandwidth/latency interface in CHA clock cycles
    (the whole SoC runs in a single frequency domain), plus SI-unit helpers
    for the performance models.
    """

    def __init__(
        self,
        size: int = 32 << 30,          # the test platform had 32 GB (Table IV)
        channels: int = 4,
        clock_hz: float = 2.5e9,
        latency_ns: float = 30.0,
        transfer_rate: float = 3200e6,  # transfers/second per channel
    ) -> None:
        self.channels = channels
        self.clock_hz = clock_hz
        self.transfer_rate = transfer_rate
        peak = channels * transfer_rate * BYTES_PER_DDR_TRANSFER
        super().__init__(
            size,
            bandwidth_bytes_per_cycle=peak / clock_hz,
            latency_cycles=int(round(latency_ns * 1e-9 * clock_hz)),
        )

    @classmethod
    def from_config(cls, config: SocConfig) -> "DramController":
        return cls(
            size=config.dram_bytes,
            channels=config.ddr_channels,
            clock_hz=config.clock_hz,
            latency_ns=config.dram_latency_ns,
            transfer_rate=config.ddr_transfer_rate,
        )

    @property
    def peak_bandwidth(self) -> float:
        """Peak theoretical throughput in bytes/second (102.4 GB/s in CHA)."""
        return self.channels * self.transfer_rate * BYTES_PER_DDR_TRANSFER
