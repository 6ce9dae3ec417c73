"""Shadow-SRAM sanitizer ("nsan") for the Ncore machine model.

The static hazard analyzer (:mod:`repro.analyze.hazard`) proves ordering
over statically-known address intervals; this module is its runtime
counterpart.  Armed via
:meth:`~repro.ncore.machine.Ncore.arm_sanitizer`, it shadows every byte
of both scratchpads with init / last-writer / last-reader state, and the
machine + DMA engines call back on every row read, row write, host write
and transfer so the sanitizer can catch what the functional simulation
papers over:

- **uninitialized reads** — compute or outbound DMA consuming bytes no
  host write and no DMA ever staged (``san.uninit-read``),
- **concurrent-access races** — compute touching rows a DMA transfer is
  still moving, or two engines moving overlapping ranges with no
  DMA_WAIT between them; the eager functional copy makes these
  deterministic in simulation but timing-dependent on silicon
  (``san.race``),
- **out-of-bounds DMA** — a descriptor whose row window leaves the RAM
  (``san.dma-oob``).

Findings are shared-model :class:`~repro.analyze.diagnostics.Diagnostic`
objects so static and runtime reports render and compose identically.
When no sanitizer is armed every hook site in the machine reduces to one
``is not None`` check (the same zero-cost discipline as ``repro.obs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np
import numpy.typing as npt

from repro.analyze.diagnostics import (
    AnalysisReport,
    Rule,
    Severity,
    diag,
    register_rule,
)
from repro.ncore.config import NcoreConfig

if TYPE_CHECKING:
    from repro.isa.instruction import DMAOp

Bytes = npt.NDArray[np.uint8]
Bools = npt.NDArray[np.bool_]

UNINIT_READ = register_rule(
    "san.uninit-read", Severity.ERROR, "read of uninitialized scratchpad",
    "Compute or an outbound DMA consumed SRAM bytes that no host write and "
    "no DMA transfer ever initialized — the simulator returns zeros, "
    "silicon returns whatever the last workload left behind.",
)
RACE = register_rule(
    "san.race", Severity.ERROR, "access races an in-flight DMA transfer",
    "A compute read/write or a second DMA touched SRAM rows while a "
    "transfer covering them was still in flight (no DMA_WAIT in between); "
    "the observed bytes depend on transfer timing.",
)
DMA_OOB = register_rule(
    "san.dma-oob", Severity.ERROR, "DMA descriptor leaves the scratchpad",
    "A transfer's row window extends past the end of the target RAM; the "
    "hardware would fault or wrap mid-transfer.",
)
DIVERGENCE = register_rule(
    "san.divergence", Severity.ERROR, "repeated runs diverge",
    "Two executions of the same program from the same initial state ended "
    "with different architectural state digests — hidden nondeterminism in "
    "the machine model or the program.",
)
ORACLE_MISMATCH = register_rule(
    "san.oracle-mismatch", Severity.ERROR, "fastpath disagrees with interpreter",
    "The fused fast-path execution and the pure interpreter produced "
    "different architectural state or cycle counts for the same program — "
    "a fastpath equivalence bug.",
)

# Shadow last-writer / last-reader agent codes.
AGENT_NONE = 0
AGENT_HOST = 1
AGENT_COMPUTE = 2
AGENT_DMA_READ = 3
AGENT_DMA_WRITE = 4

AGENT_NAMES = {
    AGENT_NONE: "nothing",
    AGENT_HOST: "host",
    AGENT_COMPUTE: "compute",
    AGENT_DMA_READ: "dma_read",
    AGENT_DMA_WRITE: "dma_write",
}

_ENGINE_AGENTS = {"dma_read": AGENT_DMA_READ, "dma_write": AGENT_DMA_WRITE}


class ShadowRam:
    """Per-byte shadow state for one scratchpad."""

    def __init__(self, rows: int, row_bytes: int, name: str) -> None:
        self.rows = rows
        self.row_bytes = row_bytes
        self.name = name
        self.init: Bools = np.zeros((rows, row_bytes), dtype=bool)
        self.last_writer: Bytes = np.zeros((rows, row_bytes), dtype=np.uint8)
        self.last_reader: Bytes = np.zeros((rows, row_bytes), dtype=np.uint8)

    def mark_write(self, start_byte: int, end_byte: int, agent: int) -> None:
        flat_init = self.init.reshape(-1)
        flat_init[start_byte:end_byte] = True
        self.last_writer.reshape(-1)[start_byte:end_byte] = agent

    def mark_read(self, start_byte: int, end_byte: int, agent: int) -> None:
        self.last_reader.reshape(-1)[start_byte:end_byte] = agent

    def initialized(self, start_byte: int, end_byte: int) -> bool:
        return bool(self.init.reshape(-1)[start_byte:end_byte].all())


@dataclass
class _Flight:
    """One DMA transfer the sanitizer still considers in flight."""

    engine: str
    ram: str                 # "data" | "weight"
    start_byte: int
    end_byte: int
    start_cycle: int
    end_cycle: int
    writes_sram: bool
    pc: int


class Sanitizer:
    """Shadow-memory state plus the report the hooks accumulate into."""

    def __init__(self, config: NcoreConfig | None = None, name: str = "ncore") -> None:
        config = config or NcoreConfig()
        self.name = name
        self.config = config
        self.shadow = {
            "data": ShadowRam(config.sram_rows, config.row_bytes, "data"),
            "weight": ShadowRam(config.sram_rows, config.row_bytes, "weight"),
        }
        self.report = AnalysisReport()
        self.flights: list[_Flight] = []
        self.stats: dict[str, int] = {
            "reads_checked": 0,
            "writes_checked": 0,
            "dma_transfers": 0,
            "findings": 0,
        }
        self._seen: set[tuple[str, str, int]] = set()
        self._pc = 0
        self._published = 0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.report.ok

    def _report(
        self, rule: Rule, message: str, *, element: str, pc: int, hint: str = ""
    ) -> None:
        # One finding per (rule, site, element): a 512-trip loop racing a
        # transfer is one bug, not 512.
        key = (rule.id, element, pc)
        if key in self._seen:
            return
        self._seen.add(key)
        self.stats["findings"] += 1
        self.report.extend([diag(
            rule, message, artifact=self.name, element=element, index=pc,
            hint=hint,
        )])

    def note_pc(self, pc: int) -> None:
        """The machine's current pc, stamped onto engine-side findings."""
        self._pc = pc

    # ------------------------------------------------------------------
    # Machine-side hooks (compute and host accesses)
    # ------------------------------------------------------------------

    def _prune(self, cycle: int) -> None:
        # A transfer whose completion cycle has passed is no longer racy
        # even without an explicit DMA_WAIT.
        if self.flights:
            self.flights = [f for f in self.flights if f.end_cycle > cycle]

    def on_row_read(
        self, ram: str, row: int, count: int, cycle: int, pc: int
    ) -> None:
        shadow = self.shadow[ram]
        if not (0 <= row and row + count <= shadow.rows):
            return  # the RAM model raises its own IndexError
        self.stats["reads_checked"] += 1
        self._prune(cycle)
        start = row * shadow.row_bytes
        end = (row + count) * shadow.row_bytes
        if not shadow.initialized(start, end):
            self._report(
                UNINIT_READ,
                f"compute at pc {pc} reads {ram} RAM row"
                f"{'s' if count > 1 else ''} "
                f"[{row}, {row + count}) never written by the host or a DMA",
                element=f"{ram}[{row}]", pc=pc,
                hint="stage the rows via write_*_ram or a DMA before reading",
            )
        for flight in self.flights:
            if flight.ram == ram and flight.writes_sram and (
                start < flight.end_byte and flight.start_byte < end
            ):
                self._report(
                    RACE,
                    f"compute at pc {pc} reads {ram} RAM rows [{row}, "
                    f"{row + count}) while the {flight.engine} transfer "
                    f"started at pc {flight.pc} (cycles "
                    f"[{flight.start_cycle}, {flight.end_cycle})) is still "
                    "writing them",
                    element=f"{ram}[{row}]", pc=pc,
                    hint="insert a dmawait before the first read",
                )
        shadow.mark_read(start, end, AGENT_COMPUTE)

    def on_row_write(
        self, ram: str, row: int, count: int, cycle: int, pc: int
    ) -> None:
        shadow = self.shadow[ram]
        if not (0 <= row and row + count <= shadow.rows):
            return
        self.stats["writes_checked"] += 1
        self._prune(cycle)
        start = row * shadow.row_bytes
        end = (row + count) * shadow.row_bytes
        for flight in self.flights:
            if flight.ram == ram and (
                start < flight.end_byte and flight.start_byte < end
            ):
                direction = "writing" if flight.writes_sram else "reading"
                self._report(
                    RACE,
                    f"compute at pc {pc} writes {ram} RAM rows [{row}, "
                    f"{row + count}) while the {flight.engine} transfer "
                    f"started at pc {flight.pc} is still {direction} them",
                    element=f"{ram}[{row}]", pc=pc,
                    hint="insert a dmawait before overwriting the buffer",
                )
        shadow.mark_write(start, end, AGENT_COMPUTE)

    def on_host_write(self, ram: str, offset: int, length: int) -> None:
        shadow = self.shadow[ram]
        end = min(offset + length, shadow.rows * shadow.row_bytes)
        if offset < 0 or end <= offset:
            return
        shadow.mark_write(offset, end, AGENT_HOST)

    # ------------------------------------------------------------------
    # Engine-side hooks
    # ------------------------------------------------------------------

    def on_dma_start(
        self,
        engine: str,
        ram: str,
        descriptor: "DMAOp",
        ram_rows: int,
        row_bytes: int,
        start_cycle: int,
        end_cycle: int,
    ) -> None:
        self.stats["dma_transfers"] += 1
        self._prune(start_cycle)
        pc = self._pc
        length = descriptor.rows * row_bytes
        start = descriptor.ram_row * row_bytes
        end = start + length
        if start < 0 or end > ram_rows * row_bytes:
            self._report(
                DMA_OOB,
                f"{engine} transfer at pc {pc} spans {ram} RAM rows "
                f"[{descriptor.ram_row}, {descriptor.ram_row + descriptor.rows}) "
                f"but the RAM has {ram_rows} rows",
                element=f"{ram}[{descriptor.ram_row}]", pc=pc,
            )
            return  # the RAM model raises; nothing is in flight
        writes_sram = not descriptor.write_to_dram
        for flight in self.flights:
            if flight.ram != ram or flight.engine == engine:
                continue  # one engine serializes its own queue
            if not (start < flight.end_byte and flight.start_byte < end):
                continue
            if writes_sram or flight.writes_sram:
                self._report(
                    RACE,
                    f"{engine} transfer at pc {pc} touches {ram} RAM bytes "
                    f"[{start}, {end}) while the {flight.engine} transfer "
                    f"started at pc {flight.pc} is still in flight over "
                    f"[{flight.start_byte}, {flight.end_byte})",
                    element=f"{ram}[{descriptor.ram_row}]", pc=pc,
                    hint="order the engines with a dmawait 3",
                )
        shadow = self.shadow[ram]
        if writes_sram:
            shadow.mark_write(start, end, _ENGINE_AGENTS[engine])
        else:
            if not shadow.initialized(start, end):
                self._report(
                    UNINIT_READ,
                    f"{engine} transfer at pc {pc} copies {ram} RAM rows "
                    f"[{descriptor.ram_row}, "
                    f"{descriptor.ram_row + descriptor.rows}) to DRAM but "
                    "they were never fully written",
                    element=f"{ram}[{descriptor.ram_row}]", pc=pc,
                )
            shadow.mark_read(start, end, _ENGINE_AGENTS[engine])
        self.flights.append(_Flight(
            engine=engine, ram=ram, start_byte=start, end_byte=end,
            start_cycle=start_cycle, end_cycle=end_cycle,
            writes_sram=writes_sram, pc=pc,
        ))

    def on_dma_wait(self, engines: list[str], cycle: int) -> None:
        # The machine stalled to the engines' busy_until, so everything
        # those engines had in flight has now completed.
        if self.flights:
            self.flights = [f for f in self.flights if f.engine not in engines]
        self._prune(cycle)

    def on_reset(self) -> None:
        """Machine reset: in-flight timing dies, SRAM contents survive."""
        self.flights = []
        self._pc = 0

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def publish_metrics(self, metrics: Any) -> None:
        """Increment ``ncore.sanitize.*`` counters by the deltas since last call."""
        prefix = "ncore.sanitize"
        total = (
            self.stats["reads_checked"]
            + self.stats["writes_checked"]
            + self.stats["dma_transfers"]
        )
        metrics.counter(f"{prefix}.accesses_checked").inc(
            max(0, total - self._published)
        )
        self._published = total
        findings = len(self.report.diagnostics)
        gauge = metrics.gauge(f"{prefix}.findings")
        gauge.set(findings)
