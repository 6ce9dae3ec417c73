"""Fast-path execution tier for the Ncore simulator: trace-fused repeats.

The interpreter in :mod:`repro.ncore.machine` pays one Python dispatch per
hardware-loop iteration — the dominant cost of every simulated workload.
This module compiles the one loop form the NKL emits — a single
side-effect-analyzable instruction under a hardware repeat count of at
least :data:`MIN_FUSED_TRIPS` — into a *fused trace*: a closed-form
recurrence over (RAM rows, NDU registers, address-register strides) that
executes all N iterations as a handful of vectorized numpy calls while
producing **bit-identical, cycle-exact** machine state.  Shorter repeats
and multi-instruction ``LOOP_BEGIN``…``LOOP_END`` loops are interpreted
(a repeated instruction inside such a loop still fuses).

Legality (see :meth:`repro.isa.Instruction.fusion_blockers`): only BYPASS /
ROTATE / BROADCAST64 NDU ops, non-CMPGT NPU ops and no OUT ops.  Every
register recurrence must classify as one of:

- *invariant* — never written in the trip;
- *self-rotation* — ``r <- rot(r, s)``, closed form ``rot(r0, s*t)``;
- *derived* — ``q <- rot(p, s)`` with ``p`` invariant or self-rotating;
- *stream* — a pure function of RAM rows / constants at trip ``t``.

Anything else (and any condition the static model cannot prove: RAM bounds,
pending ECC corrections, perf-counter wraparound breakpoints, n-step
windows, accumulator saturation) falls back to the interpreter — possibly
*mid-trace*, committing only the iterations proven exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.dtypes import ACC_MAX, ACC_MIN, NcoreDType, dtype_info
from repro.isa.instruction import (
    Instruction,
    NDUOpcode,
    NPUOp,
    NPUOpcode,
    RotateDirection,
)
from repro.isa.operands import NUM_ADDR_REGS, Operand, OperandKind
from repro.ncore.config import CHA_NCORE
from repro.ncore.ndu import BROADCAST_GROUP
from repro.ncore.npu import COMBINE, FLOAT_OPCODES, SLICE_LANES, fold_class
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

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


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
    """RAM row ``addr[reg] + offset + stride[reg] * t`` at trip ``t``."""

    ram: str  # "data" | "weight"
    reg: int
    offset: int


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
class _LaneSource:
    """One NPU operand: an 8-bit row expression or a 16-bit RAM row pair."""

    kind: str  # "row8" | "ram16" | "zero16"
    expr: _Expr | None = None
    low: _Expr | None = None
    high: _Expr | None = None


@dataclass(frozen=True)
class _NpuSpec:
    """The trip's NPU issue, fully resolved to lane expressions."""

    opcode: NPUOpcode
    dtype: NcoreDType
    is_float: bool
    accumulate: bool
    data: _LaneSource
    weight: _LaneSource
    zero_offset: bool
    data_shift: int
    from_neighbor: bool
    predicate: int | None


# ----------------------------------------------------------------------
# Trip builder (compile time)
# ----------------------------------------------------------------------


def _ram_row(operand: Operand, offset: int = 0) -> _RamRow:
    name = "data" if operand.kind is OperandKind.DATA_RAM else "weight"
    return _RamRow(name, operand.index, offset)


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
        if kind is OperandKind.DATA_RAM or kind is OperandKind.WEIGHT_RAM:
            return _ram_row(operand)
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

    def _lane_source(
        self, operand: Operand, dtype: NcoreDType, dlast_snapshot: _Expr
    ) -> _LaneSource:
        info = dtype_info(dtype)
        if info.bytes_per_element == 1:
            # NPU reads NDU registers *post-commit*, dlast pre-issue.
            expr = self._row_source(operand, self.regs, dlast_snapshot)
            return _LaneSource("row8", expr=expr)
        if operand.kind is OperandKind.ZERO:
            return _LaneSource("zero16")
        if operand.kind not in (OperandKind.DATA_RAM, OperandKind.WEIGHT_RAM):
            raise UnsupportedTrace(f"npu16.{operand.kind.name}")
        return _LaneSource(
            "ram16", low=_ram_row(operand), high=_ram_row(operand, offset=1)
        )

    def _add_npu(self, op: NPUOp, dlast_snapshot: _Expr) -> None:
        info = dtype_info(op.dtype)
        if op.opcode is NPUOpcode.CMPGT:
            raise UnsupportedTrace("npu.cmpgt")
        if info.is_float and op.zero_offset:
            raise UnsupportedTrace("npu.float-zero-offset")
        if info.is_float and op.opcode not in FLOAT_OPCODES:
            raise UnsupportedTrace("npu.float-logical")
        if (
            info.is_float
            and op.predicate is not None
            and fold_class(op.opcode, op.accumulate) == "sum"
        ):
            # A masked lane keeps its accumulator bit-exactly; adding a zero
            # contribution would turn -0.0 into +0.0.
            raise UnsupportedTrace("npu.float-predicated-sum")
        if self.lanes != self.row_bytes:
            raise UnsupportedTrace("npu.lane-geometry")
        data = self._lane_source(op.data, op.dtype, dlast_snapshot)
        weight = self._lane_source(op.weight, op.dtype, dlast_snapshot)
        self.npu = _NpuSpec(
            opcode=op.opcode,
            dtype=op.dtype,
            is_float=info.is_float,
            accumulate=op.accumulate,
            data=data,
            weight=weight,
            zero_offset=op.zero_offset,
            data_shift=op.data_shift,
            from_neighbor=op.from_neighbor,
            predicate=op.predicate,
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
            elif op.opcode is NDUOpcode.BROADCAST64:
                if self.row_bytes % BROADCAST_GROUP:
                    raise UnsupportedTrace("ndu.broadcast-geometry")
                expr = _Bcast(src, op.index_reg)
            else:
                raise UnsupportedTrace(f"ndu.{op.opcode.value}")
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
            lanes=self.lanes,
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

    def row_index(self, reg: int, offset: int) -> Array:
        stride = self.trace.strides[reg]
        base = self.live_addr[reg] + offset
        return base + stride * np.arange(self.nb, dtype=np.int64)

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
                row = ram.data[self.live_addr[expr.reg] + expr.offset]
                return np.broadcast_to(row, (nb, row_bytes))
            rows = self.row_index(expr.reg, expr.offset)
            return ram.data[rows]
        if isinstance(expr, _Rot):
            src = self.eval(expr.src)
            if src.ndim == 2 and src.strides[0] == 0:
                return np.broadcast_to(np.roll(src[0], expr.shift), (nb, row_bytes))
            return np.roll(src, expr.shift, axis=1)
        if isinstance(expr, _Bcast):
            src = self.eval(expr.src)
            idx = self.row_index(expr.reg, 0) % BROADCAST_GROUP
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

    def end_value(self, q: int, n: int) -> Array | None:
        """State element ``q`` after ``n`` full trips (None = unchanged)."""
        plan = self.trace.plans[q]
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


def _lanes(
    ev: _Evaluator, source: _LaneSource, dtype: NcoreDType
) -> tuple[Array, int, bool]:
    """Operand lanes in their *native* width, a static magnitude bound
    and whether the lanes are provably non-negative.

    Keeping int operands narrow (int8/uint8/int16) lets ``_combined`` widen
    once, inside the combining ufunc, instead of materializing int64 copies;
    the bound lets ``_apply_npu`` prove no intermediate clip can fire.
    """
    if source.kind == "zero16":
        if dtype is NcoreDType.BF16:
            return np.zeros((ev.nb, ev.trace.row_bytes), dtype=np.float32), 0, False
        return np.zeros((ev.nb, ev.trace.row_bytes), dtype=np.int16), 0, True
    if source.kind == "row8":
        assert source.expr is not None
        raw = ev.eval(source.expr)
        if dtype is NcoreDType.INT8:
            return raw.view(np.int8), 128, False
        return raw, 255, True
    assert source.low is not None and source.high is not None
    low = ev.eval(source.low)
    high = ev.eval(source.high)
    bits = low.astype(np.uint16) | (high.astype(np.uint16) << np.uint16(8))
    if dtype is NcoreDType.INT16:
        return bits.view(np.int16), 32768, False
    return (bits.astype(np.uint32) << np.uint32(16)).view(np.float32).copy(), 0, False


def _combined(ev: _Evaluator, spec: _NpuSpec) -> tuple[Array, Array | None, int]:
    """The NPU issue's per-trip combined values, predicate mask and a
    static magnitude bound on any combined value.

    Integer math widens only as far as the bound requires (int32 when the
    combine provably fits, int64 otherwise) — values are exact integers in
    either width, mirroring ``npu.execute_int``'s int64 semantics.  Float
    results stay float32.
    """
    machine = ev.m
    data, dbound, dnonneg = _lanes(ev, spec.data, spec.dtype)
    weight, wbound, wnonneg = _lanes(ev, spec.weight, spec.dtype)
    op = spec.opcode
    combine = COMBINE[op]
    mask = None if spec.predicate is None else machine.pred_regs[spec.predicate]
    if spec.is_float:
        if spec.data_shift:
            data = data * np.float32(2.0 ** -spec.data_shift)
        if spec.from_neighbor:
            data = np.roll(data, SLICE_LANES, axis=1)
        return combine(data, weight), mask, 0
    if spec.zero_offset:
        dbound += abs(int(machine.data_zero_offset))
        wbound += abs(int(machine.weight_zero_offset))
        dnonneg = wnonneg = False
    if op is NPUOpcode.MAC:
        bound = dbound * wbound
    elif op is NPUOpcode.ADD or op is NPUOpcode.SUB:
        bound = dbound + wbound
    else:
        bound = max(dbound, wbound)
    nonneg = dnonneg and wnonneg and op is not NPUOpcode.SUB
    # The narrowest dtype that holds every combined value exactly: SIMD
    # throughput on this path scales with element width.  The uint16 tier
    # additionally needs unsigned *inputs* — a signed operand array (e.g.
    # the int16 zero16 source) cannot cast to uint16 under numpy's
    # same-kind rule even when its values are provably non-negative.
    cdtype: type
    if (
        nonneg
        and bound <= 65535
        and data.dtype.kind == "u"
        and weight.dtype.kind == "u"
    ):
        cdtype = np.uint16
    elif bound <= 32767:
        cdtype = np.int16
    elif bound <= ACC_MAX:
        cdtype = np.int32
    else:
        cdtype = np.int64
    if spec.zero_offset:
        # subtract() with an explicit dtype casts the operands first, so
        # the narrow lanes widen exactly once.
        data = np.subtract(data, machine.data_zero_offset, dtype=cdtype)
        weight = np.subtract(weight, machine.weight_zero_offset, dtype=cdtype)
    if spec.data_shift:
        data = data >> spec.data_shift
    if spec.from_neighbor:
        data = np.roll(data, SLICE_LANES, axis=1)
    out = ev.scratch("comb", (ev.nb, ev.trace.row_bytes), cdtype)
    return combine(data, weight, dtype=cdtype, out=out), mask, bound


def _apply_npu(ev: _Evaluator, trace: "FusedTrace", nb: int) -> tuple[int, Array | None]:
    """Fold the block's trips of the NPU issue into the accumulator.

    Returns ``(n_ok, new_acc)``: the number of trips whose accumulation is
    proven bit-exact (saturation inside the block truncates it) and the
    accumulator after those trips (None when the trip has no NPU work).
    """
    spec = trace.npu
    if spec is None:
        return nb, None
    machine = ev.m
    comb, mask, bound = _combined(ev, spec)
    klass = fold_class(spec.opcode, spec.accumulate)
    if klass == "sum":
        if spec.is_float:
            stacked = np.vstack([machine.acc_float[None, :], comb])
            acc = np.add.accumulate(stacked, axis=0, dtype=np.float32)[-1]
            return nb, acc.astype(np.float32)
        # Fast path: when |acc| plus the worst-case drift over the whole
        # block provably stays inside int32, no intermediate clip can fire
        # (clip is the identity on in-range accumulators), so a plain sum —
        # order-free exact integer addition, itself inside int32 — replaces
        # the prefix scan.
        acc64 = machine.acc_int.astype(np.int64)
        if int(np.abs(acc64).max()) + nb * bound <= ACC_MAX:
            total = comb.sum(axis=0, dtype=np.int32)
            if mask is not None:
                # A masked lane's acc is unchanged: zero its whole sum.
                total = np.where(mask, total, np.int32(0))
            return nb, (acc64 + total).astype(np.int32)
        if mask is not None:
            # Exact: a masked lane's acc is unchanged and clip() is the
            # identity on in-range int32 accumulators.
            comb = np.where(mask[None, :], comb, np.int64(0))
        prefix = acc64[None, :] + np.cumsum(comb, axis=0, dtype=np.int64)
        bad = ((prefix < ACC_MIN) | (prefix > ACC_MAX)).any(axis=1)
        if bad.any():
            n_ok = int(np.argmax(bad))
            if n_ok == 0:
                return 0, None
            return n_ok, prefix[n_ok - 1].astype(np.int32)
        return nb, prefix[-1].astype(np.int32)
    live: Array = machine.acc_float if spec.is_float else machine.acc_int
    if klass == "minmax":
        fold = COMBINE[spec.opcode]
        if spec.is_float:
            # Sequential, accumulator first: float min/max is order-sensitive
            # in its signed zeros and NaN payloads.
            value = fold.reduce(np.vstack([live[None, :], comb]), axis=0)
        else:
            # Integer min/max is associative and commutative: the narrow
            # trips reduce first, then fold into the accumulator.
            value = fold(live, fold.reduce(comb, axis=0))
    else:
        # replace: only the final trip's values (per-lane last write) survive.
        value = comb[nb - 1]
        if not spec.is_float:
            value = np.clip(value, ACC_MIN, ACC_MAX)
    value = value.astype(live.dtype)
    return nb, value if mask is None else np.where(mask, value, live)


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
    lanes: int
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

        A partial return means accumulator saturation was detected — the
        machine state is exactly the interpreter's at that trip boundary,
        and the interpreter picks up the saturating iteration.
        """
        per_block = max(1, _BLOCK_TARGET_BYTES // self.row_bytes)
        done = 0
        while done < count:
            nb = min(per_block, count - done)
            ok = self._run_block(machine, nb)
            done += ok
            if ok < nb:
                break
        return done

    def _run_block(self, machine: "Ncore", nb: int) -> int:
        ev = _Evaluator(self, machine, nb)
        n_ok, acc = _apply_npu(ev, self, nb)
        if n_ok == 0:
            return 0
        ends: list[tuple[int, Array]] = []
        for q in range(5):
            value = ev.end_value(q, n_ok)
            if value is not None:
                ends.append((q, value))
        for q, value in ends:
            if q == _DLAST:
                machine.dlast = value.astype(np.uint8, copy=False).copy()
            else:
                machine.ndu_regs[q] = value
        if acc is not None:
            assert self.npu is not None
            if self.npu.is_float:
                machine.acc_float = acc
            else:
                machine.acc_int = acc
        for reg in range(NUM_ADDR_REGS):
            stride = self.strides[reg]
            if stride:
                machine.addr_regs[reg] += stride * n_ok
        cycles = self.cycles_per_trip * n_ok
        macs = self.macs_per_trip * n_ok
        machine.total_cycles += cycles
        machine.total_issues += n_ok
        machine.total_macs += macs
        machine.data_ram.reads += self.reads_data * n_ok
        machine.weight_ram.reads += self.reads_weight * n_ok
        _bulk_add(machine.perf_counters["cycles"], cycles)
        _bulk_add(machine.perf_counters["macs"], macs)
        return n_ok


# ----------------------------------------------------------------------
# Program compilation
# ----------------------------------------------------------------------


def compile_repeat(instruction: Instruction, config: "NcoreConfig") -> FusedTrace:
    """Compile a hardware-repeated instruction into a fused trace."""
    blockers = instruction.fusion_blockers()
    if blockers:
        raise UnsupportedTrace(";".join(blockers))
    return _TripBuilder(config).trace(instruction)


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
        try:
            table[pc] = compile_repeat(instruction, config)
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
    "compile_repeat",
]
