"""Fast-path execution tier for the Ncore simulator: trace-fused repeats.

The interpreter in :mod:`repro.ncore.machine` pays one Python dispatch per
hardware-loop iteration — the dominant cost of every simulated workload.
This module evaluates the one loop form the machine's programs run — a
single 8-bit VLIW instruction under a hardware repeat count of at least
:data:`MIN_FUSED_TRIPS` (paper §IV-B, Fig. 6: ``broadcast64 | mac dlast |
rotl``) — as (trips, row_bytes) matrices, a block of trips per handful of
numpy calls, producing **bit-identical, cycle-exact** machine state.
Shorter repeats and multi-instruction ``LOOP_BEGIN``…``LOOP_END`` loops
are interpreted (a repeated instruction inside such a loop still fuses).

Legality (:func:`fusion_blockers`, the one statement of it) leaves each
NDU register the trip writes in one of two forms:

- a *stream*: BYPASS / ROTATE / BROADCAST64 of a RAM row that advances by
  its address register's stride each trip;
- a *self-rotation* ``r <- rot(r, s)``: after trip ``t`` it is row
  ``s*(t+1)`` of the sliding windows over ``r`` tiled, a strided view.

The NPU issue reads RAM rows, ``zero``, those registers after commit, or
``dlast`` (the live latch for trip 0, n0 after the previous trip after
that) and folds through :func:`repro.ncore.npu.fold_int8`.  Any trip the
static model cannot prove exact (RAM bounds, pending ECC corrections,
perf-counter wraparound breakpoints, n-step windows, a block whose
accumulation could saturate) is interpreted — possibly *mid-repeat*,
after committing the blocks proven exact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np
import numpy.typing as npt

from repro.dtypes import NcoreDType
from repro.isa.instruction import (
    Instruction,
    NDUOp,
    NDUOpcode,
    NPUOpcode,
    OutOpcode,
    RotateDirection,
    SeqOpcode,
)
from repro.isa.operands import NUM_ADDR_REGS, RAM_KINDS, Operand, OperandKind
from repro.ncore.config import CHA_NCORE
from repro.ncore.ndu import BROADCAST_GROUP
from repro.ncore.npu import NARROW_OPCODES, fold_int8, scratch
from repro.obs import Observation, note_stat

if TYPE_CHECKING:
    from repro.ncore.config import NcoreConfig
    from repro.ncore.machine import Ncore

Array = npt.NDArray[Any]

#: Flat bytes of trip state per execution block: bounds peak matrix memory
#: while keeping the vectorization factor high enough that numpy dominates
#: dispatch cost.  Equals 1024 trips at the CHA row width; wider configs
#: get proportionally fewer trips per block so memory stays bounded.
_BLOCK_TARGET_BYTES = 1024 * CHA_NCORE.row_bytes

#: Fewest trips fused.  A fused repeat has a fixed cost (trace build at
#: load, preflight, block set-up), so the break-even on the Fig. 6 body is
#: about 9 trips (sweep in docs/simulator-performance.md); 4 is kept for
#: the ledger's exact rows.
#: Read where a trip count is known: ``compile_program`` and ``Ncore._execute_instruction``.
MIN_FUSED_TRIPS = 4


# ----------------------------------------------------------------------
# Legality
# ----------------------------------------------------------------------

# NDU operations whose effect on a row is a pure, statically known
# function of (source row, address registers): EXPAND consumes a
# variable-length stream (data-dependent), MERGE reads back the
# destination register's previous value through a runtime mask.
TRACE_NDU_OPCODES = frozenset(
    {NDUOpcode.BYPASS, NDUOpcode.ROTATE, NDUOpcode.BROADCAST64}
)

# A trace is one hardware-repeated instruction, and a repeat count
# cannot combine with an active sequencer op (the machine raises).
TRACE_SEQ_OPCODES = frozenset({SeqOpcode.NOP})

# The NPU issue of Fig. 6's inner loop and the NKL kernels: an
# accumulating arithmetic or pooling fold over 8-bit integer lanes, the
# issues the NPU's saturation proof covers.
_TRACE_NPU_DTYPES = frozenset({NcoreDType.UINT8, NcoreDType.INT8})

# Rows an NPU operand of a fused trip may read: a streamed RAM row, the
# zero row, an NDU register after commit, or the dlast latch.
_TRACE_NPU_SOURCES = RAM_KINDS | {OperandKind.ZERO, OperandKind.NDU_REG, OperandKind.DLAST}


def _self_rotation(op: NDUOp) -> bool:
    return (op.opcode is NDUOpcode.ROTATE and op.src.kind is OperandKind.NDU_REG
            and op.src.index == op.dst)


def fusion_blockers(instruction: Instruction) -> tuple[str, ...]:
    """Why ``instruction``'s hardware repeat cannot be fused.

    An empty tuple means every NDU op streams a RAM row or rotates its own
    register, its NPU issue is the 8-bit accumulating form over the rows
    :data:`_TRACE_NPU_SOURCES` names, and its sequencer field is ``NOP``.
    Each entry names the blocking unit/op (``ndu.source.<KIND>`` /
    ``npu.source.<KIND>`` for a row the trip cannot stream), so
    diagnostics can say *why* a repeat stays on the interpreter.
    """
    reasons: list[str] = []
    for op in instruction.ndu_ops:
        if op.opcode not in TRACE_NDU_OPCODES:
            reasons.append(f"ndu.{op.opcode.value}")
        elif op.src.kind not in RAM_KINDS and not _self_rotation(op):
            reasons.append(f"ndu.source.{op.src.kind.name}")
    npu = instruction.npu
    if npu is not None and npu.opcode is not NPUOpcode.NOP:
        # CMPGT rewrites a predicate register mid-trace; the logical ops
        # and a non-accumulating issue replace the accumulator instead of
        # folding into it.
        if npu.opcode not in NARROW_OPCODES:
            reasons.append(f"npu.{npu.opcode.value}")
        if not npu.accumulate:
            reasons.append("npu.noacc")
        if npu.dtype not in _TRACE_NPU_DTYPES:
            reasons.append(f"npu.{npu.dtype.value}")
        if npu.predicate is not None:
            reasons.append("npu.predicate")
        if npu.data_shift:
            reasons.append("npu.data-shift")
        if npu.from_neighbor:
            reasons.append("npu.from-neighbor")
        reasons += [
            f"npu.source.{operand.kind.name}"
            for operand in (npu.data, npu.weight)
            if operand.kind not in _TRACE_NPU_SOURCES
        ]
    out = instruction.out
    if out is not None and out.opcode is not OutOpcode.NOP:
        # OUT ops read intermediate accumulator values (REQUANT) or
        # write RAM rows that later iterations may read back (STORE).
        reasons.append(f"out.{out.opcode.value}")
    if instruction.seq.opcode not in TRACE_SEQ_OPCODES:
        reasons.append(f"seq.{instruction.seq.opcode.value}")
    return tuple(reasons)


# ----------------------------------------------------------------------
# The fused trace
# ----------------------------------------------------------------------


class FusedTrace:
    """All trips of one hardware-repeated instruction that
    :func:`fusion_blockers` passes, evaluated a block of trips at a time.

    What a trip touches — the RAM rows it reads and how far each address
    register steps — is the ISA's own table
    (:meth:`Instruction.row_accesses` / ``addr_steps``), not re-derived.
    """

    def __init__(self, instruction: Instruction, row_bytes: int) -> None:
        self.instruction = instruction
        self.row_bytes = row_bytes
        steps = instruction.addr_steps()
        self.strides = tuple(steps.get(reg, 0) for reg in range(NUM_ADDR_REGS))
        self.accesses = instruction.row_accesses()
        self.reads_data = sum(a.rows for a in self.accesses if a.ram == "data")
        self.reads_weight = sum(a.rows for a in self.accesses if a.ram == "weight")
        self.cycles_per_trip = instruction.issue_cycles()
        # Each written register and its op (parallel NDU ops write distinct ones).
        self.writes = {op.dst: op for op in instruction.ndu_ops}
        npu = instruction.npu
        self.npu = npu if npu is not None and npu.opcode is not NPUOpcode.NOP else None
        mac = self.npu is not None and self.npu.opcode is NPUOpcode.MAC
        self.macs_per_trip = row_bytes if mac else 0

    def preflight(self, machine: "Ncore", count: int) -> str | None:
        """Why ``count`` trips cannot be fused from the current state
        (None = safe).  Every check mirrors a condition under which the
        interpreter would deviate from the static model: pending ECC
        corrections, RAM bounds faults, perf-counter wraparound
        breakpoints and n-step windows landing inside the trace."""
        if self.reads_data and machine.data_ram._injected:
            return "ecc"
        if self.reads_weight and machine.weight_ram._injected:
            return "ecc"
        for access in self.accesses:
            ram = machine.data_ram if access.ram == "data" else machine.weight_ram
            first = machine.addr_regs[access.reg]
            last = first + self.strides[access.reg] * (count - 1)
            if min(first, last) < 0 or max(first, last) + access.rows > ram.rows:
                return "bounds"
        cycles = self.cycles_per_trip * count
        # The instruction retires after its last trip, outside the trace.
        for name, delta in (("cycles", cycles), ("macs", self.macs_per_trip * count)):
            counter = machine.perf_counters[name]
            if counter.break_on_wrap and counter.value + delta >= (1 << counter.bits):
                return "perf_counter"
        if machine.n_step is not None:
            next_break = machine._next_step_break
            if next_break is None or machine.total_cycles + cycles >= next_break:
                return "n_step"
        return None

    def run(self, machine: "Ncore", count: int) -> int:
        """Execute up to ``count`` fused trips; returns trips committed.

        A partial return means a block's accumulation could saturate: the
        block is not committed, so the machine state is exactly the
        interpreter's at that block boundary, and the interpreter runs the
        rest of the repeat.
        """
        per_block = max(1, _BLOCK_TARGET_BYTES // self.row_bytes)
        done = 0
        while done < count:
            nb = min(per_block, count - done)
            if not self._run_block(machine, nb):
                break
            done += nb
        return done

    def _run_block(self, m: "Ncore", nb: int) -> bool:
        regs: dict[int, Array] = {}  # written registers after each trip
        npu = self.npu
        if npu is not None:
            zeros = (m.data_zero_offset, m.weight_zero_offset) if npu.zero_offset else (0, 0)
            data = self._npu_rows(m, npu.data, nb, regs)
            weight = self._npu_rows(m, npu.weight, nb, regs)
            acc = fold_int8(npu, data, weight, *zeros, m.acc_int, m._fastpath_scratch)
            if acc is None:
                return False
            m.acc_int = acc
        # Every end value reads the live rows before any is written back.
        ends = [(dst, self._reg(m, dst, nb, regs)[-1].copy()) for dst in self.writes]
        for dst, row in ends:
            m.ndu_regs[dst] = row
            if dst == 0:
                m.dlast = row  # dlast shadows n0; only dlast keeps this copy
        for reg, stride in enumerate(self.strides):
            m.addr_regs[reg] += stride * nb
        cycles = self.cycles_per_trip * nb
        macs = self.macs_per_trip * nb
        m.total_cycles += cycles
        m.total_issues += nb
        m.total_macs += macs
        m.data_ram.reads += self.reads_data * nb
        m.weight_ram.reads += self.reads_weight * nb
        # preflight ruled out a wraparound breakpoint inside the trace.
        m.perf_counters["cycles"].add(cycles)
        m.perf_counters["macs"].add(macs)
        return True

    def _ram_rows(self, m: "Ncore", operand: Operand, nb: int) -> Array:
        """The RAM row ``operand`` reads on each trip: a view."""
        ram = m.data_ram if operand.kind is OperandKind.DATA_RAM else m.weight_ram
        first, stride = m.addr_regs[operand.index], self.strides[operand.index]
        if stride == 0:
            return np.broadcast_to(ram.data[first], (nb, self.row_bytes))
        return ram.data[first : first + stride * nb : stride]

    def _npu_rows(self, m: "Ncore", operand: Operand, nb: int, regs: dict[int, Array]) -> Array:
        """The row an NPU operand reads on each trip."""
        kind = operand.kind
        if kind in RAM_KINDS:
            return self._ram_rows(m, operand, nb)
        if kind is OperandKind.NDU_REG:
            if operand.index in self.writes:
                return self._reg(m, operand.index, nb, regs)
            return np.broadcast_to(m.ndu_regs[operand.index], (nb, self.row_bytes))
        if kind is OperandKind.ZERO:
            return np.broadcast_to(np.uint8(0), (nb, self.row_bytes))
        # DLAST: the live latch entering trip 0, then n0 after each trip.
        if 0 not in self.writes:
            return np.broadcast_to(m.dlast, (nb, self.row_bytes))
        rows = scratch(m._fastpath_scratch, "dlast", (nb, self.row_bytes), np.uint8)
        rows[0] = m.dlast
        rows[1:] = self._reg(m, 0, nb, regs)[:-1]
        return rows

    def _reg(self, m: "Ncore", dst: int, nb: int, regs: dict[int, Array]) -> Array:
        """NDU register ``dst`` after each of the block's trips."""
        if dst not in regs:
            regs[dst] = self._written(m, self.writes[dst], nb)
        return regs[dst]

    def _written(self, m: "Ncore", op: NDUOp, nb: int) -> Array:
        """``op``'s result on each of the block's trips."""
        row_bytes = self.row_bytes
        # Bytes a rotation moves toward lane 0 per trip.
        left = op.amount if op.direction is RotateDirection.LEFT else -op.amount
        if _self_rotation(op):
            live = m.ndu_regs[op.dst]
            if left % row_bytes == 0:
                return np.broadcast_to(live, (nb, row_bytes))
            # After trip t, window left*(t+1) of live tiled: enough copies
            # that every window is whole, the origin high enough that a
            # right rotation stays at or above zero.
            copies = -(-abs(left) * nb // row_bytes) + 1
            origin = (copies - 1) * row_bytes if left < 0 else 0
            windows = np.lib.stride_tricks.sliding_window_view(np.tile(live, copies), row_bytes)
            return windows[origin + left :: left][:nb]
        rows = self._ram_rows(m, op.src, nb)
        if op.opcode is NDUOpcode.BYPASS:
            return rows
        out = scratch(m._fastpath_scratch, (op.opcode, op.dst), rows.shape, np.uint8)
        if op.opcode is NDUOpcode.ROTATE:
            split = left % row_bytes
            out[:, : row_bytes - split] = rows[:, split:]
            out[:, row_bytes - split :] = rows[:, :split]
            return out
        # BROADCAST64, the last of TRACE_NDU_OPCODES.
        first, stride = m.addr_regs[op.index_reg], self.strides[op.index_reg]
        index = (first + stride * np.arange(nb)) % BROADCAST_GROUP
        groups = rows.reshape(nb, -1, BROADCAST_GROUP)
        out.reshape(groups.shape)[:] = np.take_along_axis(groups, index[:, None, None], axis=2)
        return out


def compile_program(
    program: Sequence[Instruction],
    config: "NcoreConfig",
    stats: dict[str, int],
    obs: Observation,
) -> dict[int, FusedTrace]:
    """Compile every repeat worth fusing (``repeat >= MIN_FUSED_TRIPS``
    and no fusion blocker); keyed by the repeated instruction's pc.
    Counts ``compiled`` / ``rejected`` into ``stats`` (mirrored to
    ``obs``)."""
    table: dict[int, FusedTrace] = {}
    rejected = 0
    for pc, instruction in enumerate(program):
        if instruction.repeat < MIN_FUSED_TRIPS:
            continue
        if fusion_blockers(instruction):
            rejected += 1
        else:
            table[pc] = FusedTrace(instruction, config.row_bytes)
    note_stat(obs, "ncore.fastpath", stats, "compiled", len(table))
    note_stat(obs, "ncore.fastpath", stats, "rejected", rejected)
    return table


__all__ = [
    "MIN_FUSED_TRIPS",
    "FusedTrace",
    "compile_program",
    "fusion_blockers",
]
