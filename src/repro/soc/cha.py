"""The CHA SoC: eight CNS cores + Ncore on one ring (Fig. 1).

Assembles the substrate pieces into the platform the paper evaluates
(Table IV): the ring bus, the four-channel DDR4 controller, the 16 MB
shared L3, eight x86 cores, and the Ncore coprocessor wired so that

- its DMA engines reach system DRAM (optionally through the L3),
- it appears in PCI enumeration as a coprocessor-class device, and
- x86 cores reach its RAMs and registers through the ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ncore import Ncore, NcoreConfig, NcorePciDevice
from repro.obs import NULL_OBSERVATION, Observation
from repro.soc.cache import L3Cache
from repro.soc.config import SocConfig
from repro.soc.memory import DramController
from repro.soc.ring import RingBus
from repro.soc.x86 import CNS, X86Core

NUM_CORES = 8

# Die facts from section III / IV-B (Ncore is 17% of the die area).
DIE_AREA_MM2 = 200.0
NCORE_AREA_MM2 = 34.4
PROCESS = "TSMC 16 nm FFC"


@dataclass(frozen=True)
class PciFunction:
    """One enumerated PCI function."""

    bus: int
    device: int
    function: int
    vendor_id: int
    device_id: int
    class_code: int


class ChaSoc:
    """One CHA socket.

    ``obs`` is the socket's observation: the Ncore (with its DMA engines)
    and the L3 record into it, and so do the kernel driver and the
    executor built on this socket.
    """

    def __init__(
        self,
        ncore_config: NcoreConfig | None = None,
        clock_hz: float | None = None,
        soc_config: SocConfig | None = None,
        obs: Observation = NULL_OBSERVATION,
    ) -> None:
        if soc_config is None:
            soc_config = SocConfig(clock_hz=clock_hz if clock_hz is not None else 2.5e9)
        elif clock_hz is not None and clock_hz != soc_config.clock_hz:
            raise ValueError("pass the clock through soc_config, not both ways")
        self.soc_config = soc_config
        self.clock_hz = soc_config.clock_hz
        self.obs = obs
        self.ring = RingBus.from_config(soc_config)
        self.dram = DramController.from_config(soc_config)
        self.l3 = L3Cache(
            size_bytes=soc_config.l3_bytes, ways=soc_config.l3_ways, memory=self.dram,
            obs=obs,
        )
        config = ncore_config or NcoreConfig(clock_hz=self.clock_hz)
        self.ncore = Ncore(config=config, memory=self.dram, obs=obs)
        # Wire the coherent DMA-through-L3 path (section IV-A).
        self.ncore.dma_read.l3 = self.l3
        self.cores = [
            X86Core(CNS, clock_hz=self.clock_hz) for _ in range(soc_config.x86_cores)
        ]
        self.ncore_pci = NcorePciDevice(sram_bytes=config.total_ram_bytes)
        self._mmio_assigned = False

    def enumerate_pci(self) -> list[PciFunction]:
        """Standard PCI enumeration; Ncore shows up as a coprocessor.

        Also performs BAR assignment, which is what makes the Ncore MMIO
        windows reachable from the cores.
        """
        if not self._mmio_assigned:
            self.ncore_pci.assign_bars(0xE000_0000)
            self._mmio_assigned = True
        return [
            PciFunction(
                bus=0,
                device=16,
                function=0,
                vendor_id=self.ncore_pci.vendor_id,
                device_id=self.ncore_pci.device_id,
                class_code=self.ncore_pci.class_code,
            )
        ]

    def ncore_to_dram_bandwidth(self) -> float:
        """Sustained Ncore DMA bandwidth: min of ring direction and DRAM."""
        return self.soc_config.ncore_dma_bandwidth
