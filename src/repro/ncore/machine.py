"""The Ncore machine: instruction sequencer and execution pipeline.

Ties together the SRAMs, the NDU / NPU / OUT units, the DMA engines and
the debug facilities into one executable coprocessor model.  The paper's
own design methodology used exactly such an instruction simulator as the
golden model for hardware verification (section V-E); this module is that
simulator rebuilt from the paper's description.

Execution semantics of one instruction issue (one clock for 8-bit work):

1. ``dlast`` is NDU register n0 as it stood when the issue began — the
   NPU's DLAST operand reads that value, which is why Fig. 6's inner loop
   can MAC the pre-rotation row while the NDU rotates it for the next
   iteration (n0 is copied only when the issue both writes n0 and reads
   DLAST after the commit).
2. All NDU ops read their sources from pre-instruction state and commit to
   distinct NDU registers.
3. The NPU reads its operands (NDU registers observe the *new* values —
   the pipeline flows NDU -> NPU within a cycle) and updates the
   accumulators under optional predication.
4. The OUT unit requantizes the post-NPU accumulator and/or stores.
5. Post-increments on address registers are applied, so a hardware-repeated
   instruction streams through rows one iteration per clock.

``load_program`` decodes each instruction once: its NDU / NPU / OUT fields
bind their handlers through the opcode table ``_HANDLERS``, and each issue
calls them in pipeline order.  An 8-bit arithmetic or pooling issue runs in
int32 when the NPU's saturation proof clears it (``npu.execute_int8``),
otherwise by the saturating int64 spec (``npu.execute_int``).  The fast
path (:mod:`repro.ncore.fastpath`) takes over at the first pc of each run
it compiled, for the whole run or not at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.dtypes import NcoreDType, dtype_info
from repro.isa import Instruction
from repro.isa.instruction import (
    NDUOp,
    NDUOpcode,
    NPUOp,
    NPUOpcode,
    OutOp,
    OutOpcode,
    SeqOp,
    SeqOpcode,
)
from repro.isa.operands import (
    NUM_ADDR_REGS,
    NUM_DMA_DESCRIPTORS,
    NUM_LOOP_COUNTERS,
    NUM_NDU_REGS,
    NUM_PRED_REGS,
    Operand,
    OperandKind,
)
from repro.ncore import fastpath as fastpath_mod
from repro.ncore import ndu as ndu_unit
from repro.ncore import npu as npu_unit
from repro.ncore import out as out_unit
from repro.obs import NULL_OBSERVATION, Observation, note_stat
from repro.ncore.config import NcoreConfig
from repro.ncore.debug import EventLog, PerfCounter
from repro.ncore.dma import DmaDescriptor, DmaEngine, LinearMemory
from repro.ncore.sram import InstructionRam, RowMemory


from repro.ncore.errors import ExecutionError


@dataclass
class MachineRunResult:
    """Outcome of one :meth:`Ncore.step` / :meth:`Ncore.run` call.

    All counts are deltas for the call, not machine lifetime totals, so
    an engine stepping the machine in slices can aggregate them.
    """

    cycles: int
    instructions: int
    issues: int
    halted: bool
    stop_reason: str
    macs: int = 0
    dma_stall_cycles: int = 0


#: The (address register, post-increment) pairs one issue collects.
_Increments = list[tuple[int, int]]
#: (handler, operand) pairs in pipeline order: an issue's units, an NDU unit's ops.
_Units = tuple[tuple[Callable[..., None], Any], ...]
#: One instruction decoded once (:func:`_decode`), with its clocks per issue
#: and whether an issue must copy n0 for its DLAST read.
_Decoded = tuple[Instruction, _Units, int, bool]


@dataclass
class _LoopFrame:
    body_start: int
    remaining: int


class Ncore:
    """One Ncore coprocessor instance.

    ``obs`` receives its run spans and ``ncore.*`` counters; a live
    observation also exposes the hardware performance counters as
    ``ncore.hw.*`` views (section IV-F semantics: offsets and wraparound
    breakpoints stay in effect).
    """

    def __init__(
        self,
        config: NcoreConfig | None = None,
        memory: LinearMemory | None = None,
        fastpath: bool = True,
        obs: Observation = NULL_OBSERVATION,
    ) -> None:
        self.config = config or NcoreConfig()
        self.obs = obs
        # Shadow-SRAM sanitizer (repro.sanitize, armed by arm_sanitizer):
        # None keeps every hook site at one `is not None` check — the
        # zero-cost default.
        self._san = None
        # Tier-1 fast path (repro.ncore.fastpath): False forces pure
        # interpretation.
        if not isinstance(fastpath, bool):
            raise TypeError(f"fastpath must be a bool, not {fastpath!r}")
        self.fastpath = fastpath
        # One decoded-instruction and one fused-trace table per IRAM bank,
        # rebuilt on load_program.
        self._decoded: list[list[_Decoded]] = [[], []]
        self._fastpath_tables: list[dict[int, fastpath_mod.FusedTrace | None]] = [{}, {}]
        self.fastpath_stats: dict[str, int] = {
            "compiled": 0,
            "rejected": 0,
            "hits": 0,
            "misses": 0,
            "fallbacks": 0,
            "fused_trips": 0,
        }
        # Recycled fused-block temporaries (npu.scratch, filled by the fast
        # path and npu.fold_int8); purely an allocation cache, never part
        # of architectural state.
        self._fastpath_scratch: dict[object, np.ndarray] = {}
        cfg = self.config
        self.data_ram = RowMemory(cfg.sram_rows, cfg.row_bytes, "data_ram")
        self.weight_ram = RowMemory(cfg.sram_rows, cfg.row_bytes, "weight_ram")
        self.iram = InstructionRam(cfg.iram_instructions, cfg.irom_instructions)
        self.memory = memory if memory is not None else LinearMemory(8 << 30)
        self.dma_read = DmaEngine("dma_read", self.memory, cfg.dma_window_bytes, obs)
        self.dma_write = DmaEngine("dma_write", self.memory, cfg.dma_window_bytes, obs)
        self.dma_descriptors: list[DmaDescriptor | None] = [None] * NUM_DMA_DESCRIPTORS
        self.event_log = EventLog(cfg.event_log_entries)
        self.perf_counters = {
            name: PerfCounter(name) for name in ("cycles", "instructions", "macs", "dma_stall")
        }
        if obs.metrics.enabled:
            for name, counter in self.perf_counters.items():
                obs.metrics.bind_hardware(
                    f"ncore.hw.{name}", counter,
                    description=f"Ncore hardware performance counter {name!r}",
                )
        self.n_step: int | None = None
        self.reset()

    # ------------------------------------------------------------------
    # Sanitizer (repro.sanitize)
    # ------------------------------------------------------------------

    @property
    def sanitizer(self):
        """The armed :class:`repro.sanitize.Sanitizer`, or ``None``."""
        return self._san

    def arm_sanitizer(self, sanitize=True):
        """Arm (or disarm) the shadow-SRAM sanitizer on this machine.

        ``sanitize`` may be ``True`` / ``"shadow"`` (fresh
        :class:`~repro.sanitize.Sanitizer`), an existing instance, or
        ``False`` / ``None`` to disarm.  Arming forces pure
        interpretation: the fast path batches a repeat's issues, so the
        sanitizer would miss the per-issue accesses it must observe.
        Returns the armed sanitizer (or ``None`` after disarming).
        """
        if not sanitize:
            self._san = None
            self.dma_read.sanitizer = None
            self.dma_write.sanitizer = None
            return None
        from repro.sanitize.sanitizer import Sanitizer

        self._san = (
            sanitize if isinstance(sanitize, Sanitizer)
            else Sanitizer(self.config)
        )
        self.fastpath = False
        self._fastpath_tables = [{}, {}]
        self.dma_read.sanitizer = self._san
        self.dma_write.sanitizer = self._san
        return self._san

    # ------------------------------------------------------------------
    # State and the memory-mapped slave interface
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Power-on reset: clear all architectural and debug state."""
        cfg = self.config
        lanes = cfg.lanes
        self.addr_regs = [0] * NUM_ADDR_REGS
        self.ndu_regs = np.zeros((NUM_NDU_REGS, cfg.row_bytes), dtype=np.uint8)
        self.acc_int = np.zeros(lanes, dtype=np.int32)
        self.acc_float = np.zeros(lanes, dtype=np.float32)
        self.out_low = np.zeros(cfg.row_bytes, dtype=np.uint8)
        self.out_high = np.zeros(cfg.row_bytes, dtype=np.uint8)
        self.pred_regs = np.ones((NUM_PRED_REGS, lanes), dtype=bool)
        # Configuration registers (written via the slave interface).
        self.data_zero_offset = 0
        self.weight_zero_offset = 0
        self.requant_multiplier = np.full(lanes, 1 << 30, dtype=np.int64)
        self.requant_shift = np.full(lanes, -1, dtype=np.int64)  # identity
        self.requant_offset = np.zeros(lanes, dtype=np.int64)
        self._requantizers: dict[NcoreDType, Any] = {}  # folded per register write
        self.float_scale = 1.0
        self.act_lut: np.ndarray | None = None
        self.act_qmax = 255
        # Sequencer state.
        self.pc = 0
        self.loop_stack: list[_LoopFrame] = []
        self.halted = False
        self.running = False
        # Statistics.
        self.total_cycles = 0
        self.total_instructions = 0
        self.total_issues = 0
        self.total_macs = 0
        self.dma_stall_cycles = 0
        self._next_step_break: int | None = None
        self._resume_repeat: tuple[int, int] | None = None
        self._pending_break: str | None = None
        # The cycle counter restarted, so in-flight DMA timing is stale.
        self.dma_read.reset_timing()
        self.dma_write.reset_timing()
        if self._san is not None:
            self._san.on_reset()

    def set_zero_offsets(self, data: int, weight: int) -> None:
        """Configure the u8 -> s9 zero offsets (section IV-D.4)."""
        self.data_zero_offset = int(data)
        self.weight_zero_offset = int(weight)

    def set_requant(self, multiplier, shift, offset) -> None:
        """Configure per-lane requantization range/scale/offset registers.

        Scalars are broadcast across all lanes; arrays must have one entry
        per lane (per-output-channel parameters are laid out by the NKL).
        """
        lanes = self.config.lanes
        self.requant_multiplier = np.broadcast_to(
            np.asarray(multiplier, dtype=np.int64), (lanes,)
        ).copy()
        self.requant_shift = np.broadcast_to(np.asarray(shift, dtype=np.int64), (lanes,)).copy()
        self.requant_offset = np.broadcast_to(np.asarray(offset, dtype=np.int64), (lanes,)).copy()
        self._requantizers = {}

    def set_activation_lut(self, lut: np.ndarray) -> None:
        """Load the 256-entry tanh/sigmoid lookup table."""
        lut = np.asarray(lut)
        if lut.shape != (256,):
            raise ValueError("activation LUT must have 256 entries")
        self.act_lut = lut.astype(np.int32)

    def set_act_qmax(self, qmax: int) -> None:
        """Configure the upper clamp code used by ReLU6."""
        self.act_qmax = int(qmax)

    def set_dma_descriptor(self, index: int, descriptor: DmaDescriptor) -> None:
        if not 0 <= index < NUM_DMA_DESCRIPTORS:
            raise ValueError(f"DMA descriptor {index} out of range")
        self.dma_descriptors[index] = descriptor

    def load_program(self, program: list[Instruction]) -> None:
        """Load a program into the inactive IRAM bank and swap to it.

        Mirrors the double-buffered loading flow: any x86 core can fill the
        inactive bank during execution, then the sequencer flips banks.
        """
        inactive = self.iram.active_bank ^ 1
        self.iram.load_bank(inactive, program, running=self.running)
        # Emitted programs share one object per distinct instruction line.
        decoded: dict[int, _Decoded] = {}
        self._decoded[inactive] = [
            decoded.get(id(ins)) or decoded.setdefault(id(ins), _decode(ins)) for ins in program
        ]
        self._fastpath_tables[inactive] = (
            fastpath_mod.compile_program(
                program, self.config, self.fastpath_stats, self.obs
            )
            if self.fastpath
            else {}
        )
        self.iram.swap()
        self.pc = 0
        self.halted = False

    # ------------------------------------------------------------------
    # Operand resolution
    # ------------------------------------------------------------------

    def _raw_row(self, operand: Operand, dlast_snapshot: np.ndarray,
                 increments: _Increments) -> np.ndarray:
        """Fetch one raw 4096-byte row for an NDU or 8-bit NPU source.

        NDU-register and DLAST sources are returned as views, not copies:
        every consumer (the NDU functions, ``masked_merge``'s ``np.where``
        and the NPU's ``astype``) allocates its result, and nothing writes
        the returned row in place.
        """
        kind = operand.kind
        if kind is OperandKind.DATA_RAM or kind is OperandKind.WEIGHT_RAM:
            ram = self.data_ram if kind is OperandKind.DATA_RAM else self.weight_ram
            row = self.addr_regs[operand.index]
            if operand.increment:
                increments.append((operand.index, 1))
            if self._san is not None:
                self._san.on_row_read(
                    "data" if kind is OperandKind.DATA_RAM else "weight",
                    row, 1, self.total_cycles, self.pc,
                )
            return ram.read_row(row)
        if kind is OperandKind.NDU_REG:
            return self.ndu_regs[operand.index]
        if kind is OperandKind.DLAST:
            return dlast_snapshot
        if kind is OperandKind.IMMEDIATE:
            return np.full(self.config.row_bytes, operand.index, dtype=np.uint8)
        if kind is OperandKind.OUT_LOW:
            return self.out_low.copy()
        if kind is OperandKind.OUT_HIGH:
            return self.out_high.copy()
        if kind is OperandKind.ZERO:
            return np.zeros(self.config.row_bytes, dtype=np.uint8)
        raise ExecutionError(f"operand kind {kind.name} is not a row source")

    def _npu_lanes(self, operand: Operand, dtype: NcoreDType, dlast_snapshot: np.ndarray,
                   increments: _Increments) -> np.ndarray:
        """Fetch and interpret one NPU operand as lane values."""
        info = dtype_info(dtype)
        if info.bytes_per_element == 1:
            raw = self._raw_row(operand, dlast_snapshot, increments)
            if dtype is NcoreDType.INT8:
                return raw.view(np.int8).astype(np.int32)
            return raw.astype(np.int32)
        # 16-bit operands span two RAM rows: low bytes then high bytes
        # (section IV-C.2).  Register sources hold single rows and cannot
        # supply 16-bit operands.
        if operand.kind is OperandKind.ZERO:
            zeros = np.zeros(self.config.lanes, dtype=np.int32)
            return zeros.astype(np.float32) if info.is_float else zeros
        if operand.kind not in (OperandKind.DATA_RAM, OperandKind.WEIGHT_RAM):
            raise ExecutionError(
                f"16-bit NPU operands must come from RAM, not {operand.kind.name}"
            )
        ram = self.data_ram if operand.kind is OperandKind.DATA_RAM else self.weight_ram
        row = self.addr_regs[operand.index]
        if self._san is not None:
            self._san.on_row_read(
                "data" if operand.kind is OperandKind.DATA_RAM else "weight",
                row, 2, self.total_cycles, self.pc,
            )
        low = ram.read_row(row)
        high = ram.read_row(row + 1)
        if operand.increment:
            increments.append((operand.index, 2))
        bits = low.astype(np.uint16) | (high.astype(np.uint16) << np.uint16(8))
        if dtype is NcoreDType.INT16:
            return bits.view(np.int16).astype(np.int32)
        # bf16: expand the 16-bit encoding to float32 lanes.
        return (bits.astype(np.uint32) << np.uint32(16)).view(np.float32).copy()

    # ------------------------------------------------------------------
    # Unit execution
    # ------------------------------------------------------------------

    def _execute_ndu_ops(self, ops: _Units, dlast_snapshot: np.ndarray,
                         increments: _Increments) -> None:
        # Every op reads pre-instruction state: all reads (sources, masks,
        # merge's previous value) happen in this loop, before any commit.
        results = [(op.dst, handler(self, op, self._raw_row(op.src, dlast_snapshot, increments),
                                    dlast_snapshot, increments)) for handler, op in ops]
        for dst, result in results:
            self.ndu_regs[dst] = result

    def _broadcast64(self, op: NDUOp, src: np.ndarray, dlast_snapshot: np.ndarray,
                     increments: _Increments) -> np.ndarray:
        if op.index_increment:
            increments.append((op.index_reg, 1))
        return ndu_unit.broadcast64(src, self.addr_regs[op.index_reg])

    def _execute_int8(self, op: NPUOp, dlast_snapshot: np.ndarray, increments: _Increments) -> None:
        """An 8-bit issue :func:`repro.ncore.npu.execute_int8` covers."""
        data = self._raw_row(op.data, dlast_snapshot, increments)
        weight = self._raw_row(op.weight, dlast_snapshot, increments)
        zeros = (self.data_zero_offset, self.weight_zero_offset) if op.zero_offset else (0, 0)
        self.acc_int = npu_unit.execute_int8(op, data, weight, *zeros, self.acc_int)
        if op.opcode is NPUOpcode.MAC:
            self._count_macs()

    def _execute_npu(self, op: NPUOp, dlast_snapshot: np.ndarray, increments: _Increments) -> None:
        info = dtype_info(op.dtype)
        data = self._npu_lanes(op.data, op.dtype, dlast_snapshot, increments)
        weight = self._npu_lanes(op.weight, op.dtype, dlast_snapshot, increments)
        if op.zero_offset:
            if info.is_float:
                raise ExecutionError("zero offsets do not apply to bf16 lanes")
            data = data - self.data_zero_offset
            weight = weight - self.weight_zero_offset
        if op.data_shift:
            data = (
                data * np.float32(2.0 ** -op.data_shift)
                if info.is_float
                else data >> op.data_shift
            )
        if op.from_neighbor:
            data = npu_unit.slide_from_neighbor(data)
        if op.opcode is NPUOpcode.CMPGT:
            if op.predicate is None:
                raise ExecutionError("CMPGT needs a destination predicate register")
            self.pred_regs[op.predicate] = npu_unit.compare_gt(data, weight)
            return
        mask = None if op.predicate is None else self.pred_regs[op.predicate]
        if info.is_float:
            self.acc_float = npu_unit.execute_float(op, data, weight, self.acc_float, mask)
        else:
            self.acc_int = npu_unit.execute_int(op, data, weight, self.acc_int, mask)
        if op.opcode is NPUOpcode.MAC:
            self._count_macs()

    def _run_fused(self, trace: fastpath_mod.FusedTrace, budget_cycles: int) -> bool:
        """Run ``trace`` whole from its first word if preflight proves it
        exact within ``budget_cycles`` and no block could saturate; returns
        whether it ran (else nothing was committed)."""
        stats = self.fastpath_stats
        addr = trace.addresses(self.addr_regs)
        if trace.preflight(self, addr, budget_cycles) is not None or not trace.run(self, addr):
            note_stat(self.obs, "ncore.fastpath", stats, "fallbacks")
            return False
        note_stat(self.obs, "ncore.fastpath", stats, "hits")
        note_stat(self.obs, "ncore.fastpath", stats, "fused_trips", trace.trips)
        return True

    def _count_macs(self) -> None:
        self.total_macs += self.config.lanes
        if self.perf_counters["macs"].add(self.config.lanes):
            self._pending_break = "perf_counter"

    def _requant(self, op: OutOp, dlast_snapshot: np.ndarray, increments: _Increments) -> None:
        if dtype_info(op.dtype).is_float:
            self.out_low, self.out_high = out_unit.float_output_rows(
                self.acc_float, self.float_scale, op.activation
            )
        else:
            self.out_low, self.out_high = self._requant_rows(op, self.acc_int)

    def _requant_rows(self, op: OutOp, acc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (low, high) OUT rows an integer ``requant`` makes of ``acc``
        (one accumulator, or a stack of them: the fast path's snapshots)."""
        requantizer = self._requantizers.get(op.dtype)
        if requantizer is None:
            requantizer = self._requantizers[op.dtype] = out_unit.lane_requantizer(
                self.requant_multiplier, self.requant_shift, self.requant_offset, op.dtype)
        values = out_unit.apply_integer_activation(
            requantizer(acc), op.activation, self.requant_offset, self.act_qmax, self.act_lut,
            op.dtype)
        return out_unit.narrow_to_rows(values, op.dtype)

    def _store(self, op: OutOp, dlast_snapshot: np.ndarray, increments: _Increments) -> None:
        row = self.addr_regs[op.dst_addr_reg]
        source = self.out_high if op.source_high else self.out_low
        if self._san is not None:
            self._san.on_row_write("data", row, 1, self.total_cycles, self.pc)
        self.data_ram.write_row(row, source)
        if op.dst_increment:
            increments.append((op.dst_addr_reg, 1))

    def _store_acc(self, op: OutOp, dlast_snapshot: np.ndarray, increments: _Increments) -> None:
        # Spill the raw 32-bit accumulators as four rows, byte j of every
        # lane in row (base + j).
        base = self.addr_regs[op.dst_addr_reg]
        if self._san is not None:
            self._san.on_row_write("data", base, 4, self.total_cycles, self.pc)
        raw = np.ascontiguousarray(self.acc_int).view(np.uint8).reshape(-1, 4)
        for j in range(4):
            self.data_ram.write_row(base + j, np.ascontiguousarray(raw[:, j]))
        if op.dst_increment:
            increments.append((op.dst_addr_reg, 4))

    # ------------------------------------------------------------------
    # Sequencer
    # ------------------------------------------------------------------

    def _execute_seq(self, seq: SeqOp, pc: int) -> int:
        """Execute a sequencer op; returns the next pc."""
        opcode = seq.opcode
        if opcode is SeqOpcode.NOP:
            return pc + 1
        if opcode is SeqOpcode.SET_ADDR:
            self.addr_regs[seq.arg] = seq.arg2
            return pc + 1
        if opcode is SeqOpcode.HALT:
            self.halted = True
            return pc + 1
        if opcode is SeqOpcode.LOOP_BEGIN:
            if len(self.loop_stack) >= NUM_LOOP_COUNTERS:
                raise ExecutionError(
                    f"hardware loop nesting exceeds {NUM_LOOP_COUNTERS} counters"
                )
            self.loop_stack.append(_LoopFrame(body_start=pc + 1, remaining=seq.arg2))
            return pc + 1
        if opcode is SeqOpcode.LOOP_END:
            if not self.loop_stack:
                raise ExecutionError("endloop without a matching loop begin")
            frame = self.loop_stack[-1]
            frame.remaining -= 1
            if frame.remaining > 0:
                return frame.body_start
            self.loop_stack.pop()
            return pc + 1
        if opcode is SeqOpcode.ADD_ADDR:
            self.addr_regs[seq.arg] += seq.arg2
            return pc + 1
        if opcode is SeqOpcode.DMA_START:
            descriptor = self.dma_descriptors[seq.arg]
            if descriptor is None:
                raise ExecutionError(f"DMA descriptor {seq.arg} not configured")
            engine = self.dma_write if descriptor.write_to_dram else self.dma_read
            if self._san is not None:
                self._san.note_pc(pc)
            engine.start(descriptor, self.data_ram, self.weight_ram, self.total_cycles)
            return pc + 1
        if opcode is SeqOpcode.DMA_WAIT:
            if seq.arg not in SeqOp.DMA_WAIT_GROUPS:
                # An unknown engine group would wait on no engine at all —
                # silently skipping the synchronization point.
                raise ExecutionError(
                    f"DMA_WAIT engine group {seq.arg} is not a valid encoding (0..3)"
                )
            engines = [getattr(self, name) for name in SeqOp.DMA_WAIT_GROUPS[seq.arg]]
            ready = max((e.busy_until for e in engines), default=0)
            stall = max(0, ready - self.total_cycles)
            self.total_cycles += stall
            self.dma_stall_cycles += stall
            self.perf_counters["dma_stall"].add(stall)
            if self._san is not None:
                self._san.on_dma_wait([e.name for e in engines], self.total_cycles)
            return pc + 1
        if opcode is SeqOpcode.EVENT:
            self.event_log.record(self.total_cycles, seq.arg, pc)
            return pc + 1
        if opcode is SeqOpcode.BREAK:
            self._pending_break = "breakpoint"
            return pc + 1
        raise ExecutionError(f"unknown sequencer opcode {opcode}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Top-level run loop
    # ------------------------------------------------------------------

    def _execute_instruction(self, instruction: Instruction, units: _Units, cycles: int,
                             latch: bool) -> bool:
        """Execute the hardware-repeated issues of one decoded instruction,
        ``cycles`` clocks each (``latch``: copy n0 for DLAST first).

        Returns False when a breakpoint (perf-counter wraparound or n-step)
        pauses execution *mid-repeat*; the remaining iterations resume on
        the next :meth:`run` call, matching the hardware's ability to
        pause inside a long fused loop.
        """
        if instruction.repeat > 1 and instruction.seq.opcode is not SeqOpcode.NOP:
            raise ExecutionError(
                "sequencer ops cannot be combined with a hardware repeat count"
            )
        start = 0
        if self._resume_repeat is not None and self._resume_repeat[0] == self.pc:
            start = self._resume_repeat[1]
        self._resume_repeat = None
        cycle_counter = self.perf_counters["cycles"]
        for iteration in range(start, instruction.repeat):
            increments: _Increments = []
            dlast_snapshot = self.ndu_regs[0].copy() if latch else self.ndu_regs[0]
            for handler, op in units:
                handler(self, op, dlast_snapshot, increments)
            for reg, amount in increments:
                self.addr_regs[reg] += amount
            self.total_cycles += cycles
            self.total_issues += 1
            if cycle_counter.add(cycles):
                self._pending_break = "perf_counter"
            if (self.n_step is not None and self._next_step_break is not None
                    and self.total_cycles >= self._next_step_break):
                self._next_step_break = self.total_cycles + self.n_step
                self._pending_break = self._pending_break or "n_step"
            if self._pending_break is not None and iteration + 1 < instruction.repeat:
                self._resume_repeat = (self.pc, iteration + 1)
                return False
        return True

    # The datapath never traps: on bf16 lanes a signalling NaN, Inf - Inf,
    # Inf * 0 or an overflow yields a quiet NaN / Inf that propagates
    # (through data_shift, the NPU op, the accumulator and the OUT unit)
    # on the interpreter, which runs every bf16 issue (the fast path fuses
    # 8-bit integer lanes only) — so numpy must not warn about them either.
    @np.errstate(invalid="ignore", over="ignore")
    def step(self, budget_cycles: int = 100_000_000) -> MachineRunResult:
        """Execute from the current pc for at most ``budget_cycles``.

        The resumable core of the sequencer: all state (pc, loop stack,
        mid-repeat position, debug breakpoints) lives on the machine, so
        calling ``step`` again continues exactly where the previous call
        stopped — whether it stopped on the cycle budget (checked between
        words), a breakpoint, an n-step window or a halt.
        """
        start_cycles = self.total_cycles
        start_instructions = self.total_instructions
        start_issues = self.total_issues
        start_macs = self.total_macs
        start_dma_stall = self.dma_stall_cycles
        self._pending_break: str | None = None
        if self.n_step is not None and self._next_step_break is None:
            self._next_step_break = self.total_cycles + self.n_step
        self.running = True
        stop_reason = "halt"
        table = self._decoded[self.iram.active_bank]
        fused = self._fastpath_tables[self.iram.active_bank]
        try:
            while not self.halted:
                if self.total_cycles - start_cycles >= budget_cycles:
                    stop_reason = "cycle_budget"
                    break
                pc = self.pc
                if pc in fused and self._resume_repeat is None:
                    trace = fused[pc]
                    if trace is None:
                        note_stat(self.obs, "ncore.fastpath", self.fastpath_stats, "misses")
                    elif self._run_fused(trace, budget_cycles - (self.total_cycles - start_cycles)):
                        continue
                instruction, units, cycles, latch = (
                    table[pc] if 0 <= pc < len(table) else _decode(self.iram.fetch(pc))  # ROM
                )
                completed = self._execute_instruction(instruction, units, cycles, latch)
                if not completed:
                    # Paused mid-repeat: the pc stays put; the remaining
                    # iterations resume on the next step() call.
                    stop_reason = self._pending_break or "n_step"
                    break
                self.total_instructions += 1
                if self.perf_counters["instructions"].add(1):
                    self._pending_break = "perf_counter"
                self.pc = self._execute_seq(instruction.seq, pc)
                if self._pending_break is not None:
                    stop_reason = self._pending_break
                    break
                if self.halted:
                    # A halt ends the n-step window below naturally; the
                    # loop condition reports it as "halt".
                    continue
                if self.n_step is not None and self.total_cycles >= self._next_step_break:
                    self._next_step_break = self.total_cycles + self.n_step
                    stop_reason = "n_step"
                    break
        finally:
            self.running = False
        return MachineRunResult(
            cycles=self.total_cycles - start_cycles,
            instructions=self.total_instructions - start_instructions,
            issues=self.total_issues - start_issues,
            halted=self.halted,
            # Report the *actual* stop reason: a perf-counter or n-step
            # break that coincides with a halt must not be masked, or the
            # debugger misses the breakpoint it configured.
            stop_reason=stop_reason,
            macs=self.total_macs - start_macs,
            dma_stall_cycles=self.dma_stall_cycles - start_dma_stall,
        )

    def run(self, max_cycles: int = 100_000_000) -> MachineRunResult:
        """Execute until halt, breakpoint or budget: one traced step."""
        start_cycles = self.total_cycles
        result = self.step(max_cycles)
        tracer, metrics = self.obs
        if tracer.enabled:
            tracer.add_cycle_span(
                "ncore.run", "ncore", start_cycles, self.total_cycles,
                args={
                    "instructions": result.instructions,
                    "issues": result.issues,
                    "stop_reason": result.stop_reason,
                    "macs": result.macs,
                    "dma_stall_cycles": result.dma_stall_cycles,
                },
            )
        if metrics.enabled:
            metrics.counter("ncore.cycles", unit="cycles").inc(result.cycles)
            metrics.counter("ncore.instructions").inc(result.instructions)
            metrics.counter("ncore.issues").inc(result.issues)
            metrics.counter("ncore.macs").inc(result.macs)
            metrics.counter("ncore.dma_stall_cycles", unit="cycles").inc(
                result.dma_stall_cycles
            )
            metrics.counter("ncore.runs").inc()
            if self._san is not None:
                self._san.publish_metrics(metrics)
        return result

    def execute_program(
        self, program: list[Instruction], max_cycles: int = 100_000_000
    ) -> MachineRunResult:
        """Convenience: load a program, run it to completion."""
        self.load_program(program)
        return self.run(max_cycles=max_cycles)

    # ------------------------------------------------------------------
    # Bus-side access helpers (x86 / runtime view)
    # ------------------------------------------------------------------

    def write_data_ram(self, offset: int, payload: bytes) -> None:
        if self._san is not None:
            self._san.on_host_write("data", offset, len(payload))
        self.data_ram.write_bytes(offset, payload)

    def read_data_ram(self, offset: int, length: int) -> bytes:
        return self.data_ram.read_bytes(offset, length)

    def write_weight_ram(self, offset: int, payload: bytes) -> None:
        if self._san is not None:
            self._san.on_host_write("weight", offset, len(payload))
        self.weight_ram.write_bytes(offset, payload)

    def read_weight_ram(self, offset: int, length: int) -> bytes:
        return self.weight_ram.read_bytes(offset, length)


#: Opcode -> handler; NDU handlers get the op's source row already read.
_HANDLERS: dict[Any, Callable[..., Any]] = {
    NDUOpcode.BYPASS: lambda m, op, src, *_: ndu_unit.bypass(src),
    NDUOpcode.ROTATE: lambda m, op, src, *_: ndu_unit.rotate(src, op.amount, op.direction),
    NDUOpcode.BROADCAST64: Ncore._broadcast64,
    # The decompressor fills elided positions with the weight zero offset,
    # so pruned quantized weights expand to the code the NPU's offset
    # subtraction maps to zero.
    NDUOpcode.EXPAND: lambda m, op, src, *_: ndu_unit.expand(
        src, m.config.row_bytes, zero=m.weight_zero_offset
    ),
    NDUOpcode.MERGE: lambda m, op, src, dlast, increments: ndu_unit.masked_merge(
        src, m.ndu_regs[op.dst], m._raw_row(op.src2, dlast, increments)
    ),
    OutOpcode.REQUANT: Ncore._requant,
    OutOpcode.STORE: Ncore._store,
    OutOpcode.STORE_ACC: Ncore._store_acc,
}


def _decode(instruction: Instruction) -> _Decoded:
    """Bind each unit field's handler once; the issue loop calls them in
    pipeline order.  Nothing is read from machine state here, so a
    malformed field still raises at its issue."""
    units: list[tuple[Callable[..., None], Any]] = []
    npu = instruction.npu
    latch = (any(op.dst == 0 for op in instruction.ndu_ops) and npu is not None
             and OperandKind.DLAST in (npu.data.kind, npu.weight.kind))
    if instruction.ndu_ops:
        ops = tuple((_HANDLERS[op.opcode], op) for op in instruction.ndu_ops)
        units.append((Ncore._execute_ndu_ops, ops))
    if npu is not None and npu.opcode is not NPUOpcode.NOP:
        narrow = (npu.dtype in (NcoreDType.UINT8, NcoreDType.INT8) and npu.predicate is None
                  and npu.opcode in npu_unit.NARROW_OPCODES and not npu.data_shift
                  and not npu.from_neighbor)  # what npu.execute_int8 covers
        units.append((Ncore._execute_int8 if narrow else Ncore._execute_npu, npu))
    out = instruction.out
    if out is not None and out.opcode is not OutOpcode.NOP:
        units.append((_HANDLERS[out.opcode], out))
    return instruction, tuple(units), instruction.issue_cycles(), latch
