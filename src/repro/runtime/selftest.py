"""Power-on self-test (POST): the ROM's "self-test routines".

Section IV-C.1: Ncore's instruction RAM "is also augmented with a 4KB
instruction ROM for storing commonly executed code and self-test
routines."  This module builds those routines, installs them in the ROM,
and runs the driver-side POST sequence:

1. *RAM march test* — bus-side pattern walk over sampled data/weight rows;
2. *MAC datapath test* — the ROM routine computes known dot products
   through the full NDU -> NPU -> OUT pipeline; the driver checks results;
3. *DMA loopback* — DRAM -> weight RAM -> compute -> data RAM -> DRAM;
4. *debug fabric* — event log ordering and perf-counter consistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa import assemble
from repro.ncore import DmaDescriptor, Ncore

# Event tags emitted by the ROM routine.
_EVT_START = 14
_EVT_DONE = 15

# The ROM MAC routine: data rows 0..3 x weight row 0, requantized identity,
# stored to row 8.  The driver stages the vectors and checks the result.
ROM_MAC_TEST = """
event 14
setaddr a0, 0
setaddr a3, 0
setaddr a5, 0
loop 4 {
  bypass n0, dram[a0++]
  broadcast64 n1, wtram[a3], a5, inc
  mac.uint8 n0, n1
}
setaddr a6, 8
requant.uint8
store a6
event 15
halt
"""


@dataclass
class SelfTestReport:
    """Outcome of one POST run."""

    ram_march_ok: bool = False
    mac_datapath_ok: bool = False
    dma_loopback_ok: bool = False
    debug_fabric_ok: bool = False
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def install_rom(machine: Ncore) -> int:
    """Install the self-test routine into the ROM; returns its entry pc."""
    program = assemble(ROM_MAC_TEST)
    machine.iram.load_rom(program)
    return machine.iram.bank_instructions  # the ROM is mapped after the bank


def _march_test(machine: Ncore, report: SelfTestReport) -> None:
    """March patterns over 16 rows spread across each RAM."""
    row_bytes = machine.config.row_bytes
    patterns = [b"\x55" * row_bytes, b"\xaa" * row_bytes, bytes(range(256)) * (row_bytes // 256)]
    step = max(1, machine.config.sram_rows // 16)
    ok = True
    for write, read in (
        (machine.write_data_ram, machine.read_data_ram),
        (machine.write_weight_ram, machine.read_weight_ram),
    ):
        for row in range(0, machine.config.sram_rows, step):
            for pattern in patterns:
                write(row * row_bytes, pattern)
                if read(row * row_bytes, row_bytes) != pattern:
                    report.fail(f"RAM march mismatch at row {row}")
                    ok = False
        # Leave the sampled rows zeroed.
        for row in range(0, machine.config.sram_rows, step):
            write(row * row_bytes, b"\x00" * row_bytes)
    report.ram_march_ok = ok


def _mac_test(machine: Ncore, report: SelfTestReport) -> None:
    rng = np.random.default_rng(0xC0DE)
    row_bytes = machine.config.row_bytes
    inputs = rng.integers(0, 8, size=(64, 4)).astype(np.uint8)   # (spatial, c)
    weights = rng.integers(0, 8, size=(64, 4)).astype(np.uint8)  # (k, c)
    for c in range(4):
        machine.write_data_ram(c * row_bytes, np.tile(inputs[:, c], 64).tobytes())
    wrow = np.zeros(row_bytes, dtype=np.uint8)
    for k in range(64):
        wrow[k * 64 : k * 64 + 4] = weights[k]
    machine.write_weight_ram(0, wrow.tobytes())
    from repro.dtypes import quantize_multiplier

    mult, shift = quantize_multiplier(1.0)
    machine.set_zero_offsets(0, 0)
    machine.set_requant(mult, shift, 0)
    entry = install_rom(machine)
    machine.pc = entry
    machine.halted = False
    result = machine.run()
    if not result.halted:
        report.fail("ROM MAC routine did not halt")
        return
    out = np.frombuffer(machine.read_data_ram(8 * row_bytes, row_bytes), np.uint8)
    expected = np.clip(inputs.astype(np.int32) @ weights.astype(np.int32).T, 0, 255)
    ok = True
    for k in range(64):
        if not np.array_equal(out[k * 64 : (k + 1) * 64], expected[:, k].astype(np.uint8)):
            report.fail(f"MAC datapath mismatch in channel {k}")
            ok = False
            break
    report.mac_datapath_ok = ok
    # Debug fabric: the routine's two events must bracket the run.
    events = machine.event_log.drain()
    tags = [e.tag for e in events if e.tag in (_EVT_START, _EVT_DONE)]
    counters_ok = machine.perf_counters["macs"].value >= 4 * machine.config.lanes
    if tags != [_EVT_START, _EVT_DONE]:
        report.fail(f"event log out of order: {tags}")
    elif not counters_ok:
        report.fail("perf counters did not observe the MAC work")
    else:
        report.debug_fabric_ok = True


def _dma_loopback(machine: Ncore, report: SelfTestReport) -> None:
    row_bytes = machine.config.row_bytes
    if machine.dma_read._window_base is None or machine.dma_write._window_base is None:
        report.fail("DMA windows not configured before POST")
        return
    payload = bytes(np.full(row_bytes, 3, np.uint8))
    machine.memory.write(machine.dma_read._window_base, payload)
    machine.set_dma_descriptor(
        0, DmaDescriptor(False, True, ram_row=1, rows=1, dram_addr=0)
    )
    machine.set_dma_descriptor(
        1, DmaDescriptor(True, False, ram_row=9, rows=1, dram_addr=row_bytes)
    )
    machine.write_data_ram(0, bytes(np.full(row_bytes, 2, np.uint8)))
    program = assemble(
        """
        dmastart 0
        dmawait 1
        setaddr a0, 0
        setaddr a1, 1
        mac dram[a0], wtram[a1]
        setaddr a6, 9
        requant.uint8
        store a6
        dmastart 1
        dmawait 2
        halt
        """
    )
    machine.execute_program(program)
    out = machine.memory.read(machine.dma_write._window_base + row_bytes, row_bytes)
    if out == bytes(np.full(row_bytes, 6, np.uint8)):
        report.dma_loopback_ok = True
    else:
        report.fail("DMA loopback produced wrong data")


def power_on_self_test(machine: Ncore) -> SelfTestReport:
    """Run the full POST sequence on one Ncore instance."""
    report = SelfTestReport()
    machine.reset()
    _march_test(machine, report)
    _mac_test(machine, report)
    machine.reset()
    _dma_loopback(machine, report)
    machine.reset()
    return report
