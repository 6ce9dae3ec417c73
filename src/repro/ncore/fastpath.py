"""Fast-path execution tier for the Ncore simulator: trace-fused repeats.

The interpreter in :mod:`repro.ncore.machine` pays one Python dispatch per
hardware-loop iteration — the dominant cost of every simulated workload.
This module compiles the one loop form the machine's programs run — a
single 8-bit VLIW instruction under a hardware repeat count of at least
:data:`MIN_FUSED_TRIPS` (paper §IV-B, Fig. 6) — into a *fused trace*: a
closed-form recurrence over (RAM rows, NDU registers, address-register
strides) that executes all N iterations as a handful of vectorized numpy
calls while producing **bit-identical, cycle-exact** machine state.
Shorter repeats and multi-instruction ``LOOP_BEGIN``…``LOOP_END`` loops
are interpreted (a repeated instruction inside such a loop still fuses).

Legality (:func:`fusion_blockers`, the one statement of it): BYPASS /
ROTATE / BROADCAST64 NDU ops, no OUT or sequencer op, and an NPU issue,
if any, that accumulates MAC / ADD / SUB / MIN / MAX over ``uint8`` /
``int8`` lanes with no predicate, ``data_shift`` or ``from_neighbor``.
Every register recurrence must classify as one of:

- *invariant* — never written in the trip;
- *self-rotation* — ``r <- rot(r, s)``, closed form ``rot(r0, s*t)``;
- *derived* — ``q <- rot(p, s)`` with ``p`` invariant or self-rotating;
- *stream* — a pure function of RAM rows / constants at trip ``t``.

Anything else is interpreted, and so is any trip the static model cannot
prove exact (RAM bounds, pending ECC corrections, perf-counter wraparound
breakpoints, n-step windows, a block whose accumulation could saturate) —
possibly *mid-repeat*, after committing the blocks proven exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.dtypes import ACC_MAX, NcoreDType
from repro.isa.instruction import (
    Instruction,
    NDUOpcode,
    NPUOp,
    NPUOpcode,
    OutOpcode,
    RotateDirection,
    SeqOpcode,
)
from repro.isa.operands import NUM_ADDR_REGS, Operand, OperandKind
from repro.ncore.config import CHA_NCORE
from repro.ncore.ndu import BROADCAST_GROUP
from repro.ncore.npu import COMBINE
from repro.obs import Observation, note_stat

if TYPE_CHECKING:
    from repro.ncore.config import NcoreConfig
    from repro.ncore.debug import PerfCounter
    from repro.ncore.machine import Ncore
    from repro.ncore.sram import RowMemory

Array = npt.NDArray[Any]

#: dlast's slot in the 5-element state vector (after NDU registers n0..n3).
_DLAST = 4

#: Flat bytes of trip state per execution block: bounds peak matrix memory
#: while keeping the vectorization factor high enough that numpy dominates
#: dispatch cost.  Equals 1024 trips at the CHA row width; wider configs
#: get proportionally fewer trips per block so memory stays bounded.
_BLOCK_TARGET_BYTES = 1024 * CHA_NCORE.row_bytes

#: Fewest trips worth fusing.  A fused repeat costs a flat ~170 us (trace
#: compile at load, preflight, evaluator) against ~44 us per interpreted
#: trip: measured on the Fig. 6 body, 0.85x at 3 trips, break-even at 4
#: (sweep in docs/simulator-performance.md).  Read where a trip count is
#: known: ``compile_program`` and ``Ncore._execute_instruction``.
MIN_FUSED_TRIPS = 4


class UnsupportedTrace(Exception):
    """Raised at compile time when a loop cannot be legally fused."""


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
# accumulating arithmetic or pooling fold over 8-bit integer lanes.
_TRACE_NPU_OPCODES = frozenset(
    {NPUOpcode.MAC, NPUOpcode.ADD, NPUOpcode.SUB, NPUOpcode.MIN, NPUOpcode.MAX}
)
_TRACE_NPU_DTYPES = frozenset({NcoreDType.UINT8, NcoreDType.INT8})


def fusion_blockers(instruction: Instruction) -> tuple[str, ...]:
    """Why ``instruction``'s hardware repeat cannot be fused.

    An empty tuple means every unit op is analyzable as a pure function
    of (RAM rows, NDU registers, address-register strides), its NPU
    issue is the 8-bit accumulating form the trace evaluates, and its
    sequencer field is ``NOP``.  Each entry names the blocking unit/op,
    so diagnostics can say *why* a repeat stays on the interpreter.
    """
    reasons = [
        f"ndu.{op.opcode.value}"
        for op in instruction.ndu_ops
        if op.opcode not in TRACE_NDU_OPCODES
    ]
    npu = instruction.npu
    if npu is not None and npu.opcode is not NPUOpcode.NOP:
        # CMPGT rewrites a predicate register mid-trace; the logical ops
        # and a non-accumulating issue replace the accumulator instead of
        # folding into it.
        if npu.opcode not in _TRACE_NPU_OPCODES:
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
    out = instruction.out
    if out is not None and out.opcode is not OutOpcode.NOP:
        # OUT ops read intermediate accumulator values (REQUANT) or
        # write RAM rows that later iterations may read back (STORE).
        reasons.append(f"out.{out.opcode.value}")
    if instruction.seq.opcode not in TRACE_SEQ_OPCODES:
        reasons.append(f"seq.{instruction.seq.opcode.value}")
    return tuple(reasons)


# ----------------------------------------------------------------------
# Symbolic row expressions (per-trip closed forms)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Init:
    """Value of state element ``index`` entering the trip (0..3 = NDU
    registers, 4 = dlast)."""

    index: int


@dataclass(frozen=True)
class _RamRow:
    """RAM row ``addr[reg] + stride[reg] * t`` at trip ``t``."""

    ram: str  # "data" | "weight"
    reg: int


@dataclass(frozen=True)
class _Const:
    """A row that is constant across the whole trace."""

    kind: str  # "imm" | "zero" | "out_low" | "out_high"
    value: int = 0


@dataclass(frozen=True)
class _Rot:
    """``np.roll(src, shift)`` with the shift normalized into [1, R)."""

    src: "_Expr"
    shift: int


@dataclass(frozen=True)
class _Bcast:
    """broadcast64 of ``src`` with byte index ``addr[reg] + stride[reg] * t``
    (mod 64) at trip ``t``."""

    src: "_Expr"
    reg: int


_Expr = Union[_Init, _RamRow, _Const, _Rot, _Bcast]


def _has_init(expr: _Expr) -> bool:
    if isinstance(expr, _Init):
        return True
    if isinstance(expr, (_Rot, _Bcast)):
        return _has_init(expr.src)
    return False


@dataclass(frozen=True)
class _RegPlan:
    """Closed-form recurrence of one state element across trips."""

    mode: str  # "inv" | "selfrot" | "derived" | "stream"
    shift: int = 0  # selfrot: per-trip shift; derived: final rotation
    base: int = 0  # derived: source state element
    base_mode: str = ""  # derived: "inv" | "selfrot"
    base_shift: int = 0  # derived: base's per-trip self-rotation
    expr: _Expr | None = None  # stream: end-of-trip expression


def _classify(ends: list[_Expr]) -> tuple[_RegPlan, ...]:
    """Classify each state element's end-of-trip expression, or reject."""
    prelim: list[_RegPlan] = []
    for q, expr in enumerate(ends):
        if isinstance(expr, _Init):
            if expr.index == q:
                prelim.append(_RegPlan("inv"))
            else:
                prelim.append(_RegPlan("derived", shift=0, base=expr.index))
        elif isinstance(expr, _Rot) and isinstance(expr.src, _Init):
            p = expr.src.index
            if p == q:
                prelim.append(_RegPlan("selfrot", shift=expr.shift))
            else:
                prelim.append(_RegPlan("derived", shift=expr.shift, base=p))
        elif not _has_init(expr):
            prelim.append(_RegPlan("stream", expr=expr))
        else:
            raise UnsupportedTrace(f"recurrence.state{q}")
    plans: list[_RegPlan] = []
    for q, plan in enumerate(prelim):
        if plan.mode != "derived":
            plans.append(plan)
            continue
        base = prelim[plan.base]
        if base.mode == "inv":
            plans.append(replace(plan, base_mode="inv"))
        elif base.mode == "selfrot":
            plans.append(replace(plan, base_mode="selfrot", base_shift=base.shift))
        else:
            raise UnsupportedTrace(f"recurrence.state{q}")
    return tuple(plans)


# ----------------------------------------------------------------------
# The trip's NPU issue
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _NpuSpec:
    """The trip's NPU issue, its operands resolved to row expressions."""

    opcode: NPUOpcode
    signed: bool  # int8 lanes (else uint8)
    data: _Expr
    weight: _Expr
    zero_offset: bool


# ----------------------------------------------------------------------
# Trip builder (compile time)
# ----------------------------------------------------------------------


class _TripBuilder:
    """Symbolically executes one trip: one issue of the instruction."""

    def __init__(self, config: "NcoreConfig") -> None:
        self.row_bytes = config.row_bytes
        self.lanes = config.lanes
        self.regs: list[_Expr] = [_Init(i) for i in range(4)]
        self.dlast: _Expr = _Init(_DLAST)
        self.npu: _NpuSpec | None = None

    def _row_source(
        self, operand: Operand, regs: list[_Expr], dlast_snapshot: _Expr
    ) -> _Expr:
        kind = operand.kind
        if kind is OperandKind.DATA_RAM:
            return _RamRow("data", operand.index)
        if kind is OperandKind.WEIGHT_RAM:
            return _RamRow("weight", operand.index)
        if kind is OperandKind.IMMEDIATE:
            return _Const("imm", operand.index)
        if kind is OperandKind.NDU_REG:
            return regs[operand.index]
        if kind is OperandKind.OUT_LOW:
            return _Const("out_low")
        if kind is OperandKind.OUT_HIGH:
            return _Const("out_high")
        if kind is OperandKind.DLAST:
            return dlast_snapshot
        if kind is OperandKind.ZERO:
            return _Const("zero")
        # ACC and anything else: the interpreter raises ExecutionError, so
        # reject and let it do so at the architecturally correct point.
        raise UnsupportedTrace(f"operand.{kind.name}")

    def _add_npu(self, op: NPUOp, dlast_snapshot: _Expr) -> None:
        if self.lanes != self.row_bytes:
            raise UnsupportedTrace("npu.lane-geometry")
        # NPU reads NDU registers *post-commit*, dlast pre-issue.
        self.npu = _NpuSpec(
            opcode=op.opcode,
            signed=op.dtype is NcoreDType.INT8,
            data=self._row_source(op.data, self.regs, dlast_snapshot),
            weight=self._row_source(op.weight, self.regs, dlast_snapshot),
            zero_offset=op.zero_offset,
        )

    def trace(self, instruction: Instruction) -> "FusedTrace":
        """Symbolically execute one issue of ``instruction``.

        What the issue touches — the RAM rows it reads and how far each
        address register steps — is the ISA's own table
        (:meth:`Instruction.row_accesses` / ``addr_steps``), not re-derived.
        """
        dlast_snapshot = self.dlast
        pre_regs = list(self.regs)
        results: list[tuple[int, _Expr]] = []
        for op in instruction.ndu_ops:
            src = self._row_source(op.src, pre_regs, dlast_snapshot)
            if op.opcode is NDUOpcode.BYPASS:
                expr = src
            elif op.opcode is NDUOpcode.ROTATE:
                shift = -op.amount if op.direction is RotateDirection.LEFT else op.amount
                shift %= self.row_bytes
                expr = _Rot(src, shift) if shift else src
            else:  # BROADCAST64, the last of TRACE_NDU_OPCODES
                if self.row_bytes % BROADCAST_GROUP:
                    raise UnsupportedTrace("ndu.broadcast-geometry")
                expr = _Bcast(src, op.index_reg)
            results.append((op.dst, expr))
        for dst, expr in results:
            self.regs[dst] = expr
            if dst == 0:
                self.dlast = expr  # dlast shadows n0
        npu = instruction.npu
        if npu is not None and npu.opcode is not NPUOpcode.NOP:
            self._add_npu(npu, dlast_snapshot)
        npu = self.npu
        steps = instruction.addr_steps()
        ram_leaves = tuple(
            (access.ram, access.reg, offset)
            for access in instruction.row_accesses()
            for offset in range(access.rows)
        )
        data_reads = sum(name == "data" for name, _, _ in ram_leaves)
        return FusedTrace(
            row_bytes=self.row_bytes,
            cycles_per_trip=instruction.issue_cycles(),
            strides=tuple(steps.get(reg, 0) for reg in range(NUM_ADDR_REGS)),
            reads_data=data_reads,
            reads_weight=len(ram_leaves) - data_reads,
            macs_per_trip=(
                self.lanes if npu is not None and npu.opcode is NPUOpcode.MAC else 0
            ),
            ram_leaves=ram_leaves,
            plans=_classify([*self.regs, self.dlast]),
            npu=npu,
        )


# ----------------------------------------------------------------------
# Runtime evaluation
# ----------------------------------------------------------------------


def _rotation_windows(live: Array) -> Array:
    """All rotations of ``live`` as rows of one strided view.

    ``_rotation_windows(live)[o][col] == live[(o + col) % R]``, so the
    rotation ``roll(live, s)`` is row ``(-s) % R`` — selecting rows is a
    plain gather instead of an (nb, R) modular index matrix.
    """
    doubled = np.concatenate((live, live))
    return np.lib.stride_tricks.sliding_window_view(doubled, live.shape[0])


class _Evaluator:
    """Evaluates trip expressions as (nb, row_bytes) matrices for one
    block of ``nb`` consecutive trips, anchored at the machine's current
    (live) state."""

    def __init__(self, trace: "FusedTrace", machine: "Ncore", nb: int) -> None:
        self.trace = trace
        self.m = machine
        self.nb = nb
        self.live_addr = list(machine.addr_regs)
        self.live: list[Array] = [np.asarray(machine.ndu_regs[i]) for i in range(4)]
        self.live.append(machine.dlast)
        self.memo: dict[_Expr, Array] = {}

    def scratch(self, tag: object, shape: tuple[int, ...], dtype: Any) -> Array:
        """A reusable per-machine buffer for this (tag, shape, dtype) slot.

        Fused blocks repeatedly allocate multi-MB temporaries; recycling
        them keeps the pages warm.  Callers must overwrite the buffer fully
        and never publish it into machine state without copying.
        """
        pool = self.m._fastpath_scratch
        key = (tag, shape, np.dtype(dtype).str)
        buf = pool.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            pool[key] = buf
        return buf

    def row_index(self, reg: int) -> Array:
        stride = self.trace.strides[reg]
        return self.live_addr[reg] + stride * np.arange(self.nb, dtype=np.int64)

    def eval(self, expr: _Expr) -> Array:
        got = self.memo.get(expr)
        if got is not None:
            return got
        out = self._eval(expr)
        self.memo[expr] = out
        return out

    def _eval(self, expr: _Expr) -> Array:
        nb = self.nb
        row_bytes = self.trace.row_bytes
        if isinstance(expr, _Const):
            if expr.kind == "imm":
                row = np.full(row_bytes, expr.value, dtype=np.uint8)
            elif expr.kind == "zero":
                row = np.zeros(row_bytes, dtype=np.uint8)
            elif expr.kind == "out_low":
                row = self.m.out_low
            else:
                row = self.m.out_high
            return np.broadcast_to(row, (nb, row_bytes))
        if isinstance(expr, _RamRow):
            ram = self.m.data_ram if expr.ram == "data" else self.m.weight_ram
            if self.trace.strides[expr.reg] == 0:
                # The same row every trip: a broadcast view, no gather.
                row = ram.data[self.live_addr[expr.reg]]
                return np.broadcast_to(row, (nb, row_bytes))
            return ram.data[self.row_index(expr.reg)]
        if isinstance(expr, _Rot):
            src = self.eval(expr.src)
            if src.ndim == 2 and src.strides[0] == 0:
                return np.broadcast_to(np.roll(src[0], expr.shift), (nb, row_bytes))
            return np.roll(src, expr.shift, axis=1)
        if isinstance(expr, _Bcast):
            src = self.eval(expr.src)
            idx = self.row_index(expr.reg) % BROADCAST_GROUP
            groups_per_row = row_bytes // BROADCAST_GROUP
            if src.strides[0] == 0:
                g = src[0].reshape(groups_per_row, BROADCAST_GROUP)
                picked = g[:, idx].T
            else:
                groups = src.reshape(nb, groups_per_row, BROADCAST_GROUP)
                picked = groups[
                    np.arange(nb)[:, None],
                    np.arange(groups_per_row)[None, :],
                    idx[:, None],
                ]
            buf = self.scratch(("bcast", expr), (nb, row_bytes), src.dtype)
            buf.reshape(nb, groups_per_row, BROADCAST_GROUP)[:] = picked[:, :, None]
            return buf
        return self._entering(expr.index)

    def _entering(self, q: int) -> Array:
        """Matrix of state element ``q``'s value entering trips 0..nb-1."""
        plan = self.trace.plans[q]
        nb = self.nb
        row_bytes = self.trace.row_bytes
        live = self.live[q]
        if plan.mode == "inv":
            return np.broadcast_to(live, (nb, row_bytes))
        if plan.mode == "selfrot":
            # roll(live, s*t)[col] == live[(col - s*t) % R]: gather whole
            # rotations as rows of a sliding window over a doubled buffer
            # instead of materializing an (nb, R) index matrix.
            offs = (-plan.shift * np.arange(nb, dtype=np.int64)) % row_bytes
            return _rotation_windows(live)[offs]
        if plan.mode == "derived":
            if nb == 1:
                return live[None, :].copy()
            base = self.live[plan.base]
            buf = self.scratch(("ent", q), (nb, row_bytes), live.dtype)
            buf[0] = live
            if plan.base_mode == "inv":
                buf[1:] = np.roll(base, plan.shift)
            else:
                t = np.arange(1, nb, dtype=np.int64)
                offs = (-(plan.shift + plan.base_shift * (t - 1))) % row_bytes
                buf[1:] = _rotation_windows(base)[offs]
            return buf
        assert plan.expr is not None
        if nb == 1:
            return live[None, :].copy()
        vals = self.eval(plan.expr)
        buf = self.scratch(("ent", q), (nb, row_bytes), live.dtype)
        buf[0] = live
        buf[1:] = vals[: nb - 1]
        return buf

    def end_value(self, q: int) -> Array | None:
        """State element ``q`` after the block's trips (None = unchanged)."""
        plan = self.trace.plans[q]
        n = self.nb
        live = self.live[q]
        row_bytes = self.trace.row_bytes
        if plan.mode == "inv":
            return None
        if plan.mode == "selfrot":
            return np.roll(live, (plan.shift * n) % row_bytes)
        if plan.mode == "derived":
            base = self.live[plan.base]
            shift = plan.shift
            if plan.base_mode == "selfrot":
                shift += plan.base_shift * (n - 1)
            return np.roll(base, shift % row_bytes)
        assert plan.expr is not None
        return self.eval(plan.expr)[n - 1].copy()


def _bound(spec: _NpuSpec, machine: "Ncore") -> int:
    """A static bound on the magnitude of any one combined lane value."""
    lane = 128 if spec.signed else 255
    dbound = wbound = lane
    if spec.zero_offset:
        dbound += abs(machine.data_zero_offset)
        wbound += abs(machine.weight_zero_offset)
    if spec.opcode is NPUOpcode.MAC:
        return dbound * wbound
    if spec.opcode is NPUOpcode.ADD or spec.opcode is NPUOpcode.SUB:
        return dbound + wbound
    return max(dbound, wbound)


def _combined(ev: _Evaluator, spec: _NpuSpec, bound: int) -> Array:
    """The NPU issue's per-trip combined values, exact integers in the
    narrowest dtype that holds every value under ``bound`` (``bound``
    must fit int32): SIMD throughput on this path scales with element
    width, and the 8-bit lanes widen once, inside the combining ufunc.
    """
    machine = ev.m
    data = ev.eval(spec.data)
    weight = ev.eval(spec.weight)
    if spec.signed:
        data, weight = data.view(np.int8), weight.view(np.int8)
    nonneg = not (spec.signed or spec.zero_offset) and spec.opcode is not NPUOpcode.SUB
    cdtype: type
    if nonneg and bound <= 65535:
        cdtype = np.uint16
    elif bound <= 32767:
        cdtype = np.int16
    else:
        cdtype = np.int32
    if spec.zero_offset:
        # subtract() with an explicit dtype casts the operands first, so
        # the narrow lanes widen exactly once.
        data = np.subtract(data, machine.data_zero_offset, dtype=cdtype)
        weight = np.subtract(weight, machine.weight_zero_offset, dtype=cdtype)
    out = ev.scratch("comb", (ev.nb, ev.trace.row_bytes), cdtype)
    return COMBINE[spec.opcode](data, weight, dtype=cdtype, out=out)


def _accumulated(ev: _Evaluator, spec: _NpuSpec) -> Array | None:
    """The accumulator after the block's trips of the NPU issue, or None
    when the static no-overflow bound fails (the interpreter then runs
    the rest of the repeat, saturating where it must).

    Under the bound no clip can fire — clip is the identity on in-range
    accumulators — so the order-free int32 sum (or min/max reduction)
    of the trips equals the interpreter's sequential saturating fold.
    """
    acc = ev.m.acc_int
    bound = _bound(spec, ev.m)
    summing = spec.opcode not in (NPUOpcode.MIN, NPUOpcode.MAX)
    peak = bound
    if summing:
        peak = max(-int(acc.min()), int(acc.max())) + ev.nb * bound
    if peak > ACC_MAX:
        return None
    comb = _combined(ev, spec, bound)
    if summing:
        return acc + comb.sum(axis=0, dtype=np.int32)
    fold = COMBINE[spec.opcode]
    return fold(acc, fold.reduce(comb, axis=0)).astype(np.int32, copy=False)


def _bulk_add(counter: "PerfCounter", amount: int) -> None:
    """Apply many increments at once, reproducing wraparound semantics."""
    if amount <= 0:
        return
    before = counter.value
    modulus = 1 << counter.bits
    counter.value = (before + amount) % modulus
    if before + amount >= modulus:
        counter.wrapped = True


# ----------------------------------------------------------------------
# The compiled trace
# ----------------------------------------------------------------------


@dataclass
class FusedTrace:
    """All iterations of one hardware-repeated instruction, compiled."""

    row_bytes: int
    cycles_per_trip: int
    strides: tuple[int, ...]
    reads_data: int
    reads_weight: int
    macs_per_trip: int
    ram_leaves: tuple[tuple[str, int, int], ...]
    plans: tuple[_RegPlan, ...]
    npu: _NpuSpec | None

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
        for name, reg, offset in self.ram_leaves:
            ram: "RowMemory" = machine.data_ram if name == "data" else machine.weight_ram
            first = machine.addr_regs[reg] + offset
            last = first + self.strides[reg] * (count - 1)
            if min(first, last) < 0 or max(first, last) >= ram.rows:
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

    def _run_block(self, machine: "Ncore", nb: int) -> bool:
        ev = _Evaluator(self, machine, nb)
        if self.npu is not None:
            acc = _accumulated(ev, self.npu)
            if acc is None:
                return False
            machine.acc_int = acc
        # Every end value reads the live rows before any is written back.
        ends = [(q, ev.end_value(q)) for q in range(5)]
        for q, value in ends:
            if value is None:
                continue
            if q == _DLAST:
                machine.dlast = value.astype(np.uint8, copy=False).copy()
            else:
                machine.ndu_regs[q] = value
        for reg in range(NUM_ADDR_REGS):
            stride = self.strides[reg]
            if stride:
                machine.addr_regs[reg] += stride * nb
        cycles = self.cycles_per_trip * nb
        macs = self.macs_per_trip * nb
        machine.total_cycles += cycles
        machine.total_issues += nb
        machine.total_macs += macs
        machine.data_ram.reads += self.reads_data * nb
        machine.weight_ram.reads += self.reads_weight * nb
        _bulk_add(machine.perf_counters["cycles"], cycles)
        _bulk_add(machine.perf_counters["macs"], macs)
        return True


# ----------------------------------------------------------------------
# Program compilation
# ----------------------------------------------------------------------


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
            continue
        try:
            table[pc] = _TripBuilder(config).trace(instruction)
        except UnsupportedTrace:
            rejected += 1
    note_stat(obs, "ncore.fastpath", stats, "compiled", len(table))
    note_stat(obs, "ncore.fastpath", stats, "rejected", rejected)
    return table


__all__ = [
    "MIN_FUSED_TRIPS",
    "FusedTrace",
    "UnsupportedTrace",
    "compile_program",
    "fusion_blockers",
]
