"""The Ncore kernel-mode driver model (section V-D).

The driver is found through PCI enumeration (Ncore reports itself as a
coprocessor), then performs the tasks the paper lists:

- power up Ncore and clear state;
- reserve / allocate system DRAM for Ncore DMA;
- configure protected Ncore settings (through kernel-only config space);
- regulate memory-mapping of Ncore's address space;
- provide basic ioctl access to the user-mode runtime,

while preventing "more than one user from simultaneously gaining ownership
of Ncore's address space".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tracer import get_tracer
from repro.soc.cha import ChaSoc


class DriverError(RuntimeError):
    """Driver-level failures (device missing, ownership conflicts, ...)."""


@dataclass
class MemoryMapping:
    """A user-mode mapping of Ncore's registers/strobes/SRAM, granted by
    the driver to exactly one owner at a time."""

    owner: str
    soc: ChaSoc

    # The mapping forwards to the machine's slave interface.
    def write_data_ram(self, offset: int, payload: bytes) -> None:
        self.soc.ncore.write_data_ram(offset, payload)

    def read_data_ram(self, offset: int, length: int) -> bytes:
        return self.soc.ncore.read_data_ram(offset, length)

    def write_weight_ram(self, offset: int, payload: bytes) -> None:
        self.soc.ncore.write_weight_ram(offset, payload)

    def machine(self):
        return self.soc.ncore


class NcoreKernelDriver:
    """The kernel-side gatekeeper for one CHA socket's Ncore."""

    DMA_WINDOW_BYTES = 4 << 30  # section IV-C: up to 4 GB without dynamic
    # base-register reconfiguration

    def __init__(self, soc: ChaSoc) -> None:
        self.soc = soc
        self._probed = False
        self._owner: str | None = None
        self.dma_window_base: int | None = None

    # -- probe / power ----------------------------------------------------

    def probe(self) -> None:
        """Standard PCI probe: find the coprocessor, power it up, reserve
        the DMA window, and configure the protected settings."""
        with get_tracer().span("driver.probe", track="driver") as span:
            self._probe(span)

    def _probe(self, span) -> None:
        functions = self.soc.enumerate_pci()
        ncore_fns = [f for f in functions if f.class_code >> 8 == 0x0B]
        if not ncore_fns:
            raise DriverError("no Ncore coprocessor found during PCI enumeration")
        # Power up through kernel-only config space.
        self.soc.ncore_pci.config_write(0x40, 1, kernel_mode=True)
        self.soc.ncore.reset()
        # Reserve system DRAM for DMA: a contiguous window at the top of
        # usable memory (a modelling choice; real drivers use CMA).
        window = min(self.DMA_WINDOW_BYTES, self.soc.dram.size // 2)
        base = self.soc.dram.size - window
        self.soc.ncore_pci.config_write(0x44, base & 0xFFFFFFFF, kernel_mode=True)
        self.soc.ncore_pci.config_write(0x48, base >> 32, kernel_mode=True)
        self.soc.ncore.dma_read.window_bytes = window
        self.soc.ncore.dma_write.window_bytes = window
        self.soc.ncore.dma_read.configure_window(base)
        self.soc.ncore.dma_write.configure_window(base)
        self.dma_window_base = base
        self._probed = True
        span.set(dma_window_base=base, dma_window_bytes=window)

    @property
    def powered_on(self) -> bool:
        return self.soc.ncore_pci.powered_on

    def self_test(self):
        """Run the power-on self-test (the ROM's self-test routines plus
        the driver-side RAM march and DMA loopback checks)."""
        from repro.runtime.selftest import power_on_self_test

        if not self._probed:
            raise DriverError("probe the device before running POST")
        if self._owner is not None:
            raise DriverError("cannot run POST while the device is owned")
        return power_on_self_test(self.soc.ncore)

    # -- ownership / mmap ---------------------------------------------------

    def open(self, owner: str) -> MemoryMapping:
        """ioctl open: grant the single user-mode mapping."""
        with get_tracer().span("driver.open", track="driver", owner=owner):
            if not self._probed:
                raise DriverError("driver not probed; no device bound")
            if self._owner is not None:
                raise DriverError(
                    f"Ncore address space already owned by {self._owner!r}; "
                    "the driver prevents simultaneous ownership (section V-D)"
                )
            self._owner = owner
            return MemoryMapping(owner=owner, soc=self.soc)

    def close(self, mapping: MemoryMapping) -> None:
        with get_tracer().span("driver.close", track="driver", owner=mapping.owner):
            if mapping.owner != self._owner:
                raise DriverError("close from a non-owner mapping")
            self._owner = None

    # -- DMA address services ----------------------------------------------

    def dma_address_for(self, offset: int) -> int:
        """Translate a window offset to a physical DRAM address (kernel
        service used when the runtime stages weights)."""
        if self.dma_window_base is None:
            raise DriverError("DMA window not configured")
        return self.dma_window_base + offset
