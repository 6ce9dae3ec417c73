"""Ncore DMA engines.

Section IV-A/C: Ncore can sustain simultaneous DMA reads, DMA writes, x86
reads and x86 writes while executing.  DMA reaches system DRAM through the
driver-configured base-address-register window (up to 4 GB without dynamic
reconfiguration), and can optionally read through the SoC's shared L3
cache, which slightly increases latency but makes the read coherent.

The engine model is functional-plus-timing: the byte copy happens when the
transfer is started, while ``busy_until`` tracks when the engine would
actually finish so that DMA_WAIT instructions stall the correct number of
cycles and overlap between compute and DMA is modelled faithfully.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instruction import DMAOp
from repro.ncore.sram import RowMemory
from repro.obs import NULL_OBSERVATION, Observation

# Re-exported name used throughout: a descriptor is just the ISA's DMAOp.
DmaDescriptor = DMAOp


class LinearMemory:
    """A flat byte-addressable memory with a bandwidth/latency model.

    This is the minimal interface the DMA engine needs from the SoC side;
    :mod:`repro.soc.memory` builds the full DRAM/L3 models on top of it.
    """

    def __init__(
        self,
        size: int,
        bandwidth_bytes_per_cycle: float = 40.96,
        latency_cycles: int = 75,
    ) -> None:
        # Defaults model DDR4-3200 x4 channels (102 GB/s) at 2.5 GHz.
        self.size = size
        self.bandwidth_bytes_per_cycle = bandwidth_bytes_per_cycle
        self.latency_cycles = latency_cycles
        self._chunks: dict[int, np.ndarray] = {}  # 1 MB pages, lazily allocated
        self._page = 1 << 20

    def _check(self, addr: int, length: int) -> None:
        if addr < 0 or addr + length > self.size:
            raise IndexError(f"memory access [{addr}, {addr + length}) out of bounds")

    def read(self, addr: int, length: int) -> bytes:
        self._check(addr, length)
        out = bytearray(length)
        pos = 0
        while pos < length:
            page, offset = divmod(addr + pos, self._page)
            take = min(length - pos, self._page - offset)
            chunk = self._chunks.get(page)
            if chunk is not None:
                out[pos : pos + take] = chunk[offset : offset + take].tobytes()
            pos += take
        return bytes(out)

    def write(self, addr: int, payload: bytes) -> None:
        self._check(addr, len(payload))
        pos = 0
        while pos < len(payload):
            page, offset = divmod(addr + pos, self._page)
            take = min(len(payload) - pos, self._page - offset)
            chunk = self._chunks.get(page)
            if chunk is None:
                chunk = np.zeros(self._page, dtype=np.uint8)
                self._chunks[page] = chunk
            chunk[offset : offset + take] = np.frombuffer(
                payload[pos : pos + take], dtype=np.uint8
            )
            pos += take
    def transfer_cycles(self, num_bytes: int) -> int:
        """Cycles to move ``num_bytes`` including fixed access latency."""
        return self.latency_cycles + int(np.ceil(num_bytes / self.bandwidth_bytes_per_cycle))


#: Extra cycles a transfer pays for the hop through the L3 (section IV-A).
L3_EXTRA_LATENCY = 20

class DmaEngine:
    """One DMA engine moving whole rows between system memory and the RAMs.

    The kernel driver is the sole gatekeeper of the base-address registers
    (section V-D): user code supplies window-relative addresses and the
    engine translates them through driver-configured mappings.  ``obs``
    receives one cycle span and the ``dma.*`` byte counters per transfer.
    """

    def __init__(
        self,
        name: str,
        memory: LinearMemory,
        window_bytes: int = 4 << 30,
        obs: Observation = NULL_OBSERVATION,
    ) -> None:
        self.name = name
        self.memory = memory
        self.obs = obs
        self.window_bytes = window_bytes
        self._window_base: int | None = None
        self.busy_until = 0
        self.bytes_moved = 0
        self.transfers = 0
        self.l3 = None  # optionally attached by the SoC (repro.soc.cache)
        # Shadow-SRAM sanitizer hook (repro.sanitize); armed by the machine.
        self.sanitizer = None

    def configure_window(self, dram_base: int) -> None:
        """Driver-side: point the DMA window at a DRAM region."""
        if dram_base < 0 or dram_base + self.window_bytes > self.memory.size:
            raise ValueError("DMA window does not fit in system memory")
        self._window_base = dram_base

    def reset_timing(self) -> None:
        """Clear the timing/statistics state on machine reset.

        The machine's cycle counter restarts from zero on reset; a stale
        ``busy_until`` from the previous program would otherwise make the
        first DMA_WAIT of the next program stall against a transfer that
        belongs to a dead execution — exactly the hazard a long-lived,
        engine-managed machine that is reset between queries would hit.
        The driver-configured window mapping is *not* touched: base
        address registers are kernel state and survive device resets.
        """
        self.busy_until = 0
        self.bytes_moved = 0
        self.transfers = 0

    def _translate(self, window_addr: int, length: int) -> int:
        if self._window_base is None:
            raise RuntimeError(
                f"DMA engine {self.name}: window not configured by the driver"
            )
        if window_addr < 0 or window_addr + length > self.window_bytes:
            raise IndexError(
                f"DMA address [{window_addr}, {window_addr + length}) outside the "
                f"{self.window_bytes}-byte window"
            )
        return self._window_base + window_addr

    def start(
        self,
        descriptor: DmaDescriptor,
        data_ram: RowMemory,
        weight_ram: RowMemory,
        now_cycle: int,
    ) -> int:
        """Begin a transfer; returns the cycle at which it completes."""
        ram = weight_ram if descriptor.target_weight_ram else data_ram
        length = descriptor.rows * ram.row_bytes
        dram_addr = self._translate(descriptor.dram_addr, length)
        ram_offset = descriptor.ram_row * ram.row_bytes
        cycles = self.memory.transfer_cycles(length)
        if descriptor.through_l3:
            # "The extra hop through the L3 minimally increases the latency
            # to DRAM" (section IV-A).
            cycles += L3_EXTRA_LATENCY
        end_cycle = max(self.busy_until, now_cycle) + cycles
        if self.sanitizer is not None:
            # Before the functional copy, so an out-of-bounds descriptor is
            # recorded as a finding before the RAM model raises.
            self.sanitizer.on_dma_start(
                self.name,
                "weight" if descriptor.target_weight_ram else "data",
                descriptor, ram.rows, ram.row_bytes,
                end_cycle - cycles, end_cycle,
            )
        if descriptor.write_to_dram:
            self.memory.write(dram_addr, ram.read_bytes(ram_offset, length))
        else:
            payload = self.memory.read(dram_addr, length)
            if descriptor.through_l3 and self.l3 is not None:
                payload = self.l3.coherent_read(dram_addr, length, payload)
            ram.write_bytes(ram_offset, payload)
        self.busy_until = end_cycle
        self.bytes_moved += length
        self.transfers += 1
        tracer, metrics = self.obs
        if tracer.enabled:
            direction = "wr" if descriptor.write_to_dram else "rd"
            tracer.add_cycle_span(
                f"{self.name}.{direction}", "dma",
                self.busy_until - cycles, self.busy_until,
                args={
                    "bytes": length,
                    "ram": "weight" if descriptor.target_weight_ram else "data",
                    "through_l3": bool(descriptor.through_l3),
                    "dram_addr": dram_addr,
                },
            )
        if metrics.enabled:
            metrics.counter("dma.bytes_moved", unit="B").inc(length)
            metrics.counter(f"dma.{self.name}.bytes", unit="B").inc(length)
            metrics.counter("dma.transfers").inc()
        return self.busy_until
