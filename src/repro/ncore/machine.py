"""The Ncore machine: instruction sequencer and execution pipeline.

Ties together the SRAMs, the NDU / NPU / OUT units, the DMA engines and
the debug facilities into one executable coprocessor model.  The paper's
own design methodology used exactly such an instruction simulator as the
golden model for hardware verification (section V-E); this module is that
simulator rebuilt from the paper's description.

Execution semantics of one instruction issue (one clock for 8-bit work):

1. ``dlast`` is snapshotted — the NPU's DLAST operand reads the value the
   latch held *entering* the cycle, which is why Fig. 6's inner loop can
   MAC the pre-rotation row while the NDU rotates it for the next
   iteration.
2. All NDU ops read their sources from pre-instruction state and commit to
   distinct NDU registers; a write to NDU register n0 re-arms ``dlast``
   with the new value (``dlast`` shadows n0).
3. The NPU reads its operands (NDU registers observe the *new* values —
   the pipeline flows NDU -> NPU within a cycle) and updates the
   accumulators under optional predication.
4. The OUT unit requantizes the post-NPU accumulator and/or stores.
5. Post-increments on address registers are applied, so a hardware-repeated
   instruction streams through rows one iteration per clock.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # One fused-trace table per IRAM bank, rebuilt on load_program.
        self._fastpath_tables: list[dict[int, fastpath_mod.FusedTrace]] = [{}, {}]
        self.fastpath_stats: dict[str, int] = {
            "compiled": 0,
            "rejected": 0,
            "hits": 0,
            "misses": 0,
            "fallbacks": 0,
            "fused_trips": 0,
        }
        # Recycled block temporaries (see _Evaluator.scratch); purely an
        # allocation cache, never part of architectural state.
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
        self.dlast = np.zeros(cfg.row_bytes, dtype=np.uint8)
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

    def _raw_row(
        self,
        operand: Operand,
        ndu_view: np.ndarray,
        dlast_snapshot: np.ndarray,
        increments: list[tuple[int, int]],
    ) -> np.ndarray:
        """Fetch one raw 4096-byte row for an NDU source."""
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
        if kind is OperandKind.IMMEDIATE:
            return np.full(self.config.row_bytes, operand.index, dtype=np.uint8)
        if kind is OperandKind.NDU_REG:
            return ndu_view[operand.index].copy()
        if kind is OperandKind.OUT_LOW:
            return self.out_low.copy()
        if kind is OperandKind.OUT_HIGH:
            return self.out_high.copy()
        if kind is OperandKind.DLAST:
            return dlast_snapshot.copy()
        if kind is OperandKind.ZERO:
            return np.zeros(self.config.row_bytes, dtype=np.uint8)
        raise ExecutionError(f"operand kind {kind.name} is not a row source")

    def _npu_lanes(
        self,
        operand: Operand,
        dtype: NcoreDType,
        dlast_snapshot: np.ndarray,
        increments: list[tuple[int, int]],
    ) -> np.ndarray:
        """Fetch and interpret one NPU operand as lane values."""
        info = dtype_info(dtype)
        if info.bytes_per_element == 1:
            raw = self._raw_row(operand, self.ndu_regs, dlast_snapshot, increments)
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

    def _execute_ndu_ops(
        self,
        ops: tuple[NDUOp, ...],
        dlast_snapshot: np.ndarray,
        increments: list[tuple[int, int]],
    ) -> None:
        if not ops:
            return
        pre_state = self.ndu_regs.copy()
        results: list[tuple[int, np.ndarray]] = []
        for op in ops:
            src = self._raw_row(op.src, pre_state, dlast_snapshot, increments)
            if op.opcode is NDUOpcode.BYPASS:
                result = ndu_unit.bypass(src)
            elif op.opcode is NDUOpcode.ROTATE:
                result = ndu_unit.rotate(src, op.amount, op.direction)
            elif op.opcode is NDUOpcode.BROADCAST64:
                index = self.addr_regs[op.index_reg]
                result = ndu_unit.broadcast64(src, index)
                if op.index_increment:
                    increments.append((op.index_reg, 1))
            elif op.opcode is NDUOpcode.EXPAND:
                # The decompressor fills elided positions with the weight
                # zero offset, so pruned quantized weights expand to the
                # code the NPU's offset subtraction maps to zero.
                result = ndu_unit.expand(
                    src, self.config.row_bytes, zero=self.weight_zero_offset
                )
            elif op.opcode is NDUOpcode.MERGE:
                mask = self._raw_row(op.src2, pre_state, dlast_snapshot, increments)
                result = ndu_unit.masked_merge(src, pre_state[op.dst], mask)
            else:  # pragma: no cover - enum is closed
                raise ExecutionError(f"unknown NDU opcode {op.opcode}")
            results.append((op.dst, result))
        for dst, result in results:
            self.ndu_regs[dst] = result
            if dst == 0:
                # dlast shadows NDU register n0 (Fig. 6's d0_mov_reg /
                # d_last_latched pair): DLAST reads see the value n0 held
                # entering the cycle, writes to n0 re-arm the latch.
                self.dlast = result.copy()

    def _execute_npu(
        self,
        op: NPUOp,
        dlast_snapshot: np.ndarray,
        increments: list[tuple[int, int]],
    ) -> None:
        if op.opcode is NPUOpcode.NOP:
            return
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
            self.total_macs += self.config.lanes
            if self.perf_counters["macs"].add(self.config.lanes):
                self._pending_break = "perf_counter"

    def _execute_out(self, op: OutOp, increments: list[tuple[int, int]]) -> None:
        if op.opcode is OutOpcode.NOP:
            return
        if op.opcode is OutOpcode.REQUANT:
            info = dtype_info(op.dtype)
            if info.is_float:
                self.out_low, self.out_high = out_unit.float_output_rows(
                    self.acc_float, self.float_scale, op.activation
                )
            else:
                values = out_unit.requantize_lanes(
                    self.acc_int,
                    self.requant_multiplier,
                    self.requant_shift,
                    self.requant_offset,
                    op.dtype,
                )
                values = out_unit.apply_integer_activation(
                    values,
                    op.activation,
                    self.requant_offset,
                    self.act_qmax,
                    self.act_lut,
                    op.dtype,
                )
                self.out_low, self.out_high = out_unit.narrow_to_rows(values, op.dtype)
            return
        if op.opcode is OutOpcode.STORE:
            row = self.addr_regs[op.dst_addr_reg]
            source = self.out_high if op.source_high else self.out_low
            if self._san is not None:
                self._san.on_row_write("data", row, 1, self.total_cycles, self.pc)
            self.data_ram.write_row(row, source)
            if op.dst_increment:
                increments.append((op.dst_addr_reg, 1))
            return
        # STORE_ACC: spill the raw 32-bit accumulators as four rows, byte
        # j of every lane in row (base + j).
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
        if opcode is SeqOpcode.SET_ADDR:
            self.addr_regs[seq.arg] = seq.arg2
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

    def _execute_instruction(self, instruction: Instruction) -> bool:
        """Execute the hardware-repeated issues of one instruction.

        Returns False when a breakpoint (perf-counter wraparound or n-step)
        pauses execution *mid-repeat*; the remaining iterations resume on
        the next :meth:`run` call, matching the hardware's ability to
        pause inside a long fused loop.
        """
        if instruction.repeat > 1 and instruction.seq.opcode is not SeqOpcode.NOP:
            raise ExecutionError(
                "sequencer ops cannot be combined with a hardware repeat count"
            )
        issue_cycles = instruction.issue_cycles()
        start = 0
        if self._resume_repeat is not None and self._resume_repeat[0] == self.pc:
            start = self._resume_repeat[1]
        self._resume_repeat = None
        count = instruction.repeat - start
        # Below the floor (a short repeat, or the short tail of a resumed
        # one) the interpreter is faster: neither a hit nor a miss.
        if self.fastpath and count >= fastpath_mod.MIN_FUSED_TRIPS:
            entry = self._fastpath_tables[self.iram.active_bank].get(self.pc)
            if entry is None:
                note_stat(self.obs, "ncore.fastpath", self.fastpath_stats, "misses")
            elif entry.preflight(self, count) is None:
                done = entry.run(self, count)
                start += done
                note_stat(self.obs, "ncore.fastpath", self.fastpath_stats, "hits")
                note_stat(self.obs, "ncore.fastpath", self.fastpath_stats, "fused_trips", done)
                if done < count:  # saturation: interpret the rest
                    note_stat(self.obs, "ncore.fastpath", self.fastpath_stats, "fallbacks")
            else:
                note_stat(self.obs, "ncore.fastpath", self.fastpath_stats, "fallbacks")
        for iteration in range(start, instruction.repeat):
            increments: list[tuple[int, int]] = []
            dlast_snapshot = self.dlast
            self._execute_ndu_ops(instruction.ndu_ops, dlast_snapshot, increments)
            if instruction.npu is not None:
                self._execute_npu(instruction.npu, dlast_snapshot, increments)
            if instruction.out is not None:
                self._execute_out(instruction.out, increments)
            for reg, amount in increments:
                self.addr_regs[reg] += amount
            self.total_cycles += issue_cycles
            self.total_issues += 1
            if self.perf_counters["cycles"].add(issue_cycles):
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
        stopped — whether it stopped on the cycle budget, a breakpoint,
        an n-step window or a halt.  This is what lets a discrete-event
        engine interleave many Ncore instances under one clock: each
        gets a slice of cycles per turn instead of a blocking loop.
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
        try:
            while not self.halted:
                if self.total_cycles - start_cycles >= budget_cycles:
                    stop_reason = "cycle_budget"
                    break
                instruction = self.iram.fetch(self.pc)
                pc = self.pc
                completed = self._execute_instruction(instruction)
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
