"""Fast-path execution tier for the Ncore simulator: trace-fused runs.

The interpreter in :mod:`repro.ncore.machine` pays one Python dispatch per
issue.  This module evaluates a *run*: a maximal straight-line sequence of
words that :func:`fusion_blockers` passes, with at least
:data:`MIN_FUSED_TRIPS` issues (trips) in all.  Only sequencer control flow
(a hardware loop, ``halt``, DMA, an event, a breakpoint) or an unsupported
op ends a run, so one spans whole Fig. 7 passes: ``setaddr`` / ``addaddr``,
the accumulator clear (a non-accumulating issue over ``zero, zero``), the
Fig. 6 taps and latch words of one accumulating NPU issue form (§IV-B),
and the OUT unit's integer ``requant`` and ``store`` (§IV-D.5).  Each
catalog program over the floor runs as one run per IRAM chunk.  Trips are
evaluated as (trips, row_bytes) matrices, producing **bit-identical,
cycle-exact** machine state.

The model is a few tables built at ``load_program``.  After each trip,
each address register is its entry or last ``setaddr`` value plus the
steps since, and each NDU register the run writes is a *window*
``(source, shift)``: its live row at entry or a row of its RAM stream,
rotated left (``broadcast64``: the index register's byte).  The NPU reads
RAM rows, ``zero``, those registers after commit, or ``dlast`` (n0 as the
trip began), so each operand of a block is one gather, or a strided view
where its rows advance evenly (a broadcast register a ``(trips, groups,
1)`` operand, never widened), and :func:`repro.ncore.npu.fold_int8` folds
the block.  Each clear starts an *epoch*: its accumulating trips fold into
its own accumulator (the first epoch's is the live one), each ``requant``
reads it as it stands, all of a run's requants are one call of the
machine's per-lane requantizer, and its stores are one assignment.

A run commits whole or not at all.  When the interpreter would stop or
deviate inside it (a RAM bounds fault, a stored row read back, a pending
ECC correction, a perf-counter wraparound breakpoint, an n-step window,
the end of ``step()``'s cycle budget) or a block's accumulation could
saturate, nothing is committed and the interpreter runs the whole run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np
import numpy.typing as npt

from repro.dtypes import NcoreDType, dtype_info
from repro.isa.instruction import (
    Activation,
    Instruction,
    NDUOp,
    NDUOpcode,
    NPUOp,
    NPUOpcode,
    OutOp,
    OutOpcode,
    RotateDirection,
    SeqOpcode,
)
from repro.isa.operands import NUM_ADDR_REGS, RAM_KINDS, Operand, OperandKind
from repro.ncore.config import CHA_NCORE
from repro.ncore.ndu import BROADCAST_GROUP, broadcast64
from repro.ncore.npu import NARROW_OPCODES, fold_int8
from repro.obs import Observation, note_stat

if TYPE_CHECKING:
    from repro.ncore.config import NcoreConfig
    from repro.ncore.machine import Ncore

Array = npt.NDArray[Any]

#: Bytes of block scratch: a block of trips takes at most 4 bytes per lane
#: and trip (the int16 products of both operands, or the float32 data), so
#: 64 trips at the CHA row width, which keeps a block's working set inside
#: a core's L2; wider configs get proportionally fewer trips per block.
_BLOCK_TARGET_BYTES = 256 * CHA_NCORE.row_bytes

#: Fewest trips a run fuses.  A fused run has a fixed cost (its tables at
#: load, preflight, block set-up) that shorter runs do not earn back: 18 is
#: above the catalog's short kinds (sweep in CHANGES.md) and at or below
#: the ``repro run --trace`` microkernel's 19-trip run.  Read where a run's
#: trip count is known: ``compile_program``.
MIN_FUSED_TRIPS = 18


# ----------------------------------------------------------------------
# Legality
# ----------------------------------------------------------------------

# NDU operations whose effect on a row is a pure, statically known
# function of (source row, address registers): EXPAND consumes a
# variable-length stream (data-dependent), MERGE reads back the
# destination register's previous value through a runtime mask.
TRACE_NDU_OPCODES = frozenset({NDUOpcode.BYPASS, NDUOpcode.ROTATE, NDUOpcode.BROADCAST64})

# A run is straight-line code: the sequencer may only write address
# registers, and a repeat count cannot combine with an active sequencer op
# (the machine raises).
TRACE_SEQ_OPCODES = frozenset({SeqOpcode.NOP, SeqOpcode.SET_ADDR, SeqOpcode.ADD_ADDR})

# The NPU issue of Fig. 6's inner loop and the NKL kernels: an
# accumulating arithmetic or pooling fold over 8-bit integer lanes, the
# issues the NPU's saturation proof covers.
_TRACE_NPU_DTYPES = frozenset({NcoreDType.UINT8, NcoreDType.INT8})

# Rows an NPU operand of a fused trip may read: a streamed RAM row, the
# zero row, an NDU register after commit, or the dlast latch.
_TRACE_NPU_SOURCES = RAM_KINDS | {OperandKind.ZERO, OperandKind.NDU_REG, OperandKind.DLAST}

# The OUT unit's integer requantize clamps in the quantized domain (a LUT
# activation reads a table the run does not model), and a row store.
_TRACE_ACTIVATIONS = frozenset({Activation.NONE, Activation.RELU, Activation.RELU6})


def _self_rotation(op: NDUOp) -> bool:
    return (op.opcode is NDUOpcode.ROTATE and op.src.kind is OperandKind.NDU_REG
            and op.src.index == op.dst)


def fusion_blockers(instruction: Instruction) -> tuple[str, ...]:
    """Why ``instruction`` cannot be a word of a fused run.

    An empty tuple means every NDU op streams a RAM row or rotates its own
    register; its NPU issue, if any, is the 8-bit accumulating form over
    the rows :data:`_TRACE_NPU_SOURCES` names or the accumulator clear; its
    OUT op, if any, is an integer ``requant`` (no LUT activation) or a row
    ``store``; and its sequencer field is ``NOP``, ``setaddr`` or
    ``addaddr`` (unrepeated).  Each entry names the blocking unit/op
    (``ndu.source.<KIND>`` / ``npu.source.<KIND>`` for a row the trip
    cannot stream), so diagnostics can say *why* a word stays on the
    interpreter.
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
        # folding into it, but for the clear: over ``zero, zero`` without
        # offsets, every lane becomes 0.
        if npu.opcode not in NARROW_OPCODES:
            reasons.append(f"npu.{npu.opcode.value}")
        if not npu.accumulate and (npu.zero_offset or npu.data.kind is not OperandKind.ZERO
                                   or npu.weight.kind is not OperandKind.ZERO):
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
    if out is not None and out.opcode not in (OutOpcode.NOP, OutOpcode.STORE) and (
            out.opcode is OutOpcode.STORE_ACC or dtype_info(out.dtype).is_float
            or out.activation not in _TRACE_ACTIVATIONS):
        reasons.append(f"out.{out.opcode.value}")
    seq = instruction.seq.opcode
    if seq not in TRACE_SEQ_OPCODES or (seq is not SeqOpcode.NOP and instruction.repeat > 1):
        reasons.append(f"seq.{seq.value}")
    return tuple(reasons)


def _left(op: NDUOp, row_bytes: int) -> int:
    """Bytes ``op`` moves toward lane 0: a left rotation, 0 if no rotation."""
    if op.opcode is not NDUOpcode.ROTATE:
        return 0
    return (op.amount if op.direction is RotateDirection.LEFT else -op.amount) % row_bytes


#: A register's window form in a run: (broadcast, RAM stream as (kind,
#: address register) or None for a self-rotation, broadcast index register).
_Form = tuple[bool, tuple[OperandKind, int] | None, int]


class _Word:
    """One instruction object as a word of a run (an emitted program shares
    one object per distinct line, so each is read once)."""

    def __init__(self, instruction: Instruction) -> None:
        self.instruction, self.repeat = instruction, instruction.repeat
        self.blockers = fusion_blockers(instruction)
        npu = instruction.npu
        issues = npu is not None and npu.opcode is not NPUOpcode.NOP
        self.clear = issues and npu is not None and not npu.accumulate
        self.npu = npu if issues and npu is not None and npu.accumulate else None
        self.forms: dict[int, _Form] = {
            op.dst: (op.opcode is NDUOpcode.BROADCAST64,
                     None if _self_rotation(op) else (op.src.kind, op.src.index),
                     op.index_reg if op.opcode is NDUOpcode.BROADCAST64 else 0)
            for op in instruction.ndu_ops}

    def joins(self, forms: dict[int, _Form], npu: NPUOp | None) -> bool:
        """Whether this word extends a run whose accumulating NPU issue is
        ``npu`` (None before its first) and whose registers hold ``forms``
        (updated when it does): a run folds one accumulating issue form, a
        register keeps one form, stream and index register, and a
        broadcast one is written before the NPU first reads it (dlast reads
        n0 as the trip began, so never a broadcast n0 first written in the
        word that reads it)."""
        if self.blockers or None not in (npu, self.npu) and self.npu != npu:
            return False
        reader = npu or self.npu
        operands = () if reader is None else (reader.data, reader.weight)
        dlast = any(o.kind is OperandKind.DLAST for o in operands)
        added: dict[int, _Form] = {}
        for dst, form in self.forms.items():
            known = forms.get(dst)
            if known is None:
                read = dlast and dst == 0 or any(
                    o.kind is OperandKind.NDU_REG and o.index == dst for o in operands)
                if form[0] and read and (npu is not None or dst == 0 and dlast):
                    return False
            elif form[0] != known[0] or (None not in (form[1], known[1]) and form != known):
                return False
            if known is None or known[1] is None:
                added[dst] = form
        forms.update(added)
        return True


# ----------------------------------------------------------------------
# The fused run
# ----------------------------------------------------------------------


class _Register:
    """One NDU register a run writes: its window after each trip (index
    t = after t trips, 0 = at entry).  ``at`` is the trip that wrote the
    window's source row (-1: the live row); ``src`` 0 is the live row,
    ``src`` k > 0 the k-th distinct stream row, read at trip
    ``row_at[k - 1]``; ``shift`` is the left rotation (a broadcast reads
    its index register at trip ``at``)."""

    def __init__(self, dst: int, form: _Form, at: Array, shift: Array, offsets: Array,
                 fixed: Array, row_bytes: int) -> None:
        self.dst, self.at, self.shift = dst, at, shift
        self.broadcast, self.stream, self.index_reg = form
        # Stream rows in the order the run reads them, one per run of equal
        # addresses (an address is its offset and whether a setaddr fixed it).
        written = np.flatnonzero(at >= 0)
        reg = 0 if self.stream is None else self.stream[1]
        key = offsets[at[written], reg] * 2 + fixed[at[written], reg]
        new = np.concatenate(([True], key[1:] != key[:-1]))[: len(key)]
        self.row_at = at[written][new]
        self.src = np.zeros(len(at), dtype=np.intp)
        self.src[written] = np.cumsum(new)
        # A rotation window's first byte in the source rows, each extended
        # cyclically by ``width`` bytes and laid end to end.
        self.width = 0 if self.broadcast else int(shift.max())
        self.window = self.src * (row_bytes + self.width) + shift

    def rows(self, m: "Ncore", addr: Array, src: int | None = None) -> Array:
        """Source row ``src``, or all of them — the live row, then the
        stream rows — each extended cyclically by ``width`` bytes."""
        live = m.ndu_regs[self.dst]
        if src == 0:
            return live
        kind, reg = self.stream or (OperandKind.DATA_RAM, 0)
        data = (m.data_ram if kind is OperandKind.DATA_RAM else m.weight_ram).data
        if src is not None:
            return data[addr[self.row_at[src - 1], reg]]
        rows = np.empty((len(self.row_at) + 1, len(live) + self.width), np.uint8)
        rows[0, : len(live)] = live
        np.take(data, addr[self.row_at, reg], axis=0, out=rows[1:, : len(live)])
        filled = len(live)
        while filled < rows.shape[1]:
            more = min(filled, rows.shape[1] - filled)
            rows[:, filled : filled + more] = rows[:, :more]
            filled += more
        return rows


class FusedTrace:
    """One run of words that :func:`fusion_blockers` passes, evaluated a
    block of trips at a time (see the module docstring).  It holds no pc:
    the machine dispatches it at the run's first word.

    What a trip touches — the RAM rows it reads and writes and how far
    each address register steps — is the ISA's own table
    (:meth:`Instruction.row_accesses` / ``addr_steps``), not re-derived.
    """

    def __init__(self, words: Sequence[_Word], numbers: Sequence[int], row_bytes: int) -> None:
        """The run of ``words[n]`` for each ``n`` of ``numbers``."""
        self.row_bytes = row_bytes
        # A run repeats a few instruction objects: read each once.
        used = sorted(set(numbers))
        local = np.empty(used[-1] + 1, np.intp)
        local[used] = np.arange(len(used))
        kinds = local[list(numbers)]
        distinct = [words[number] for number in used]
        self.npu = next((word.npu for word in distinct if word.npu is not None), None)
        repeats = np.array([word.repeat for word in distinct])[kinds]
        self.words, self.trips = len(kinds), int(repeats.sum())
        per_trip = np.repeat(kinds, repeats)  # each trip's word
        dsts = sorted({dst for word in distinct for dst in word.forms})
        accesses = [word.instruction.row_accesses() for word in distinct]
        keys = sorted({(a.ram, a.reg) for issue in accesses for a in issue if not a.write})
        # Per word, from the ISA's own table, in three groups of columns:
        # the summed ones (cycles, data and weight rows read, MAC lanes,
        # rows stored, each address step, per written register its
        # self-rotation); the ones whose last trip counts (each setaddr, per
        # register whether the word streams a RAM row into it); then each
        # setaddr value, the rotation of each streamed row, the rows each
        # stream reads at once, and whether the word folds an accumulating
        # issue, clears, or has an OUT op.
        r, d = NUM_ADDR_REGS, len(dsts)
        summed, latest = 5 + r + d, 5 + 2 * r + 2 * d
        columns: list[list[int]] = []
        for word, issue in zip(distinct, accesses, strict=True):
            ins, seq = word.instruction, word.instruction.seq
            reads = [a for a in issue if not a.write]
            values = [ins.issue_cycles(),
                      *(sum(a.rows for a in reads if a.ram == ram) for ram in ("data", "weight")),
                      row_bytes if ins.npu is not None and ins.npu.opcode is NPUOpcode.MAC
                      else 0, sum(a.rows for a in issue if a.write), *[0] * (3 * r + 3 * d)]
            for reg, step in ins.addr_steps(issue).items():
                values[5 + reg] = step
            if seq.opcode is SeqOpcode.ADD_ADDR:
                values[5 + seq.arg] += seq.arg2
            elif seq.opcode is SeqOpcode.SET_ADDR:
                values[summed + seq.arg], values[latest + seq.arg] = 1, seq.arg2
            for op in ins.ndu_ops:
                j, streams = dsts.index(op.dst), not _self_rotation(op)
                values[summed + r + j] = streams
                values[(latest + r if streams else 5 + r) + j] = _left(op, row_bytes)
            values += [max((a.rows for a in reads if (a.ram, a.reg) == key), default=0)
                       for key in keys]
            columns.append([*values, word.npu is not None, word.clear, ins.out is not None])
        table = np.repeat(np.array(columns, dtype=np.int64)[kinds], repeats, axis=0)
        trips = np.arange(self.trips + 1)
        sums = np.zeros((self.trips + 1, summed), np.int64)  # over the first t trips
        np.cumsum(table[:, :summed], axis=0, out=sums[1:])
        last = np.zeros((self.trips + 1, r + d), np.intp)  # trips through the last one
        np.maximum.accumulate(np.where(table[:, summed:latest] > 0, trips[1:, None], 0),
                              axis=0, out=last[1:])
        self.cycles, self.data_reads, self.weight_reads, self.macs, self.writes = (
            sums[-1, :5].tolist())
        # Each address register after t trips: ``offsets`` plus, unless a
        # setaddr ``fixed`` it, its entry value.
        stepped, setv = sums[:, 5 : 5 + r], table[:, latest : latest + r]
        self.fixed = last[:, :r] > 0
        flat = (last[:, :r] * r + np.arange(r)).ravel()
        self.offsets = stepped + np.where(
            self.fixed, (np.take(setv, flat - r) - np.take(stepped, flat)).reshape(-1, r), 0)
        self.streams = {key: (rows.nonzero()[0], int(rows.max())) for key, rows in
                        zip(keys, table[:, latest + r + d : -3].T, strict=True)}
        self.acc_trips, clears, outs = (np.flatnonzero(flag) for flag in table[:, -3:].T)
        ops = [(t, distinct[k].instruction.out)
               for t, k in zip(outs.tolist(), per_trip[outs].tolist())]
        requants = [(t, op) for t, op in ops if op is not None and op.opcode is OutOpcode.REQUANT]
        stores = [(t, op) for t, op in ops if op is not None and op.opcode is OutOpcode.STORE]
        self.requant_trips = np.array([t for t, _ in requants], dtype=np.intp)
        self.requant_ops: list[OutOp] = [op for _, op in requants]
        self.store_trips = np.array([t for t, _ in stores], dtype=np.intp)
        self.store_regs = np.array([op.dst_addr_reg for _, op in stores], dtype=np.intp)
        self.store_high = np.array([op.source_high for _, op in stores], dtype=np.intp)
        # The data rows read after the first store (it must not read one back).
        first = stores[0][0] if stores else self.trips
        self.reread = {reg: reads[reads > first] for (ram, reg), (reads, _) in self.streams.items()
                       if ram == "data" and reads[-1] > first}
        # Epoch events in trip order: (trip, clear, acc trips folded before
        # it) — a clear folds the trips before it, a requant its own too.
        self.events = sorted(
            [*zip(clears.tolist(), [True] * len(clears),
                  np.searchsorted(self.acc_trips, clears).tolist()),
             *zip(self.requant_trips.tolist(), [False] * len(requants),
                  np.searchsorted(self.acc_trips, self.requant_trips, side="right").tolist())],
            key=lambda event: (event[0], not event[1]))
        # Each written register's window after every trip: its last stream
        # write ``at`` (or the entry row) and the rotations since.  Left
        # rotations are kept below 8 rows' worth: windows over a source
        # extended that far stay a strided view over trips as long as the
        # shift grows evenly (Fig. 6's 64 bytes a trip, for 512 trips).
        at, turned = last[:, r:] - 1, sums[:, 5 + r :]
        flat = (at * d + np.arange(d)).ravel()
        streamed = np.take(table[:, latest + r : latest + r + d], flat).reshape(at.shape)
        rotation = (np.where(at >= 0, streamed, 0) + turned
                    - np.take(turned, flat + d).reshape(at.shape)) % (8 * row_bytes)
        self.registers: dict[int, _Register] = {}
        for j, dst in enumerate(dsts):
            forms = [word.forms[dst] for word in distinct if dst in word.forms]
            form = next((f for f in forms if f[1] is not None), forms[0])  # its stream, if any
            self.registers[dst] = _Register(
                dst, form, at[:, j], rotation[:, j], self.offsets, self.fixed, row_bytes)
        npu = self.npu
        self.operands = () if npu is None else (self._plan(npu.data), self._plan(npu.weight))

    def _plan(self, operand: Operand) -> tuple[Any, ...]:
        """How a block reads one NPU operand over the accumulating trips:
        ``("zero",)``, ``("live", reg)`` (a register the run leaves alone),
        ``("broadcast", register, index)`` (its windows ``index``),
        ``("ram", kind, reg, trips)`` (the rows that address register holds
        at those trips) or ``("window", register, positions)`` (its windows
        over the extended source rows)."""
        kind, trips = operand.kind, self.acc_trips
        register = self.registers.get(0 if kind is OperandKind.DLAST else operand.index)
        if kind in RAM_KINDS:
            return ("ram", kind, operand.index, trips)
        if kind is OperandKind.ZERO or register is None:
            return ("zero",) if kind is OperandKind.ZERO else ("live", operand.index)
        index = trips if kind is OperandKind.DLAST else trips + 1
        if register.broadcast:
            return ("broadcast", register, index)
        if register.src[index].all() and not register.shift[index].any():
            # A copy of its stream row on every trip: read the RAM directly.
            assert register.stream is not None
            return ("ram", *register.stream, register.at[index])
        return ("window", register, register.window[index])

    def addresses(self, regs: Sequence[int]) -> Array:
        """Every address register after each trip, from ``regs`` at entry."""
        return self.offsets + np.where(self.fixed, 0, np.asarray(regs, dtype=np.int64))

    def preflight(self, machine: "Ncore", addr: Array, budget_cycles: int) -> str | None:
        """Why the run cannot be fused from the current state (None =
        safe).  Every check names a stop or a deviation from the static
        model that the interpreter would meet inside the run: pending ECC
        corrections, RAM bounds faults, a stored row read back later in the
        run, a perf-counter wraparound breakpoint, an n-step window, or the
        end of ``step()``'s remaining ``budget_cycles``."""
        for (name, reg), (trips, rows) in self.streams.items():
            ram = machine.data_ram if name == "data" else machine.weight_ram
            if ram._injected:
                return "ecc"
            rows_read = addr[trips, reg]
            if rows_read.min() < 0 or rows_read.max() + rows > ram.rows:
                return "bounds"
        if len(self.store_trips):
            stored = addr[self.store_trips, self.store_regs]
            if stored.min() < 0 or stored.max() >= machine.data_ram.rows:
                return "bounds"
            rows_stored = set(stored.tolist())
            if any(not rows_stored.isdisjoint(addr[trips, reg].tolist())
                   for reg, trips in self.reread.items()):
                return "store"
        deltas = (("cycles", self.cycles), ("macs", self.macs), ("instructions", self.words))
        for name, delta in deltas:
            counter = machine.perf_counters[name]
            if counter.break_on_wrap and counter.value + delta >= (1 << counter.bits):
                return "perf_counter"
        if machine.n_step is not None:
            next_break = machine._next_step_break
            if next_break is None or machine.total_cycles + self.cycles >= next_break:
                return "n_step"
        if self.cycles > budget_cycles:
            return "budget"
        return None

    def run(self, machine: "Ncore", addr: Array) -> bool:
        """Execute the whole run and commit it; ``addr`` is
        :meth:`addresses` at entry.  Returns False, committing nothing,
        when a block's accumulation could saturate: the interpreter then
        runs the whole run."""
        m, npu = machine, self.npu
        groups = self.row_bytes // BROADCAST_GROUP
        acc = m.acc_int.reshape(groups, BROADCAST_GROUP)
        ev, events = 0, self.events
        snapshots: list[Array] = []

        def settle(folded: int) -> None:
            """Apply the clears and requants whose trips are all folded."""
            nonlocal acc, ev
            while ev < len(events) and events[ev][2] <= folded:
                if events[ev][1]:
                    acc = np.zeros_like(acc)
                else:
                    snapshots.append(acc)
                ev += 1

        settle(0)
        k, stop = 0, len(self.acc_trips)
        per_block = max(1, _BLOCK_TARGET_BYTES // (4 * self.row_bytes))
        zeros = (m.data_zero_offset, m.weight_zero_offset) if npu and npu.zero_offset else (0, 0)
        cache: dict[int, Any] = {}
        while k < stop and npu is not None:
            # One block of trips, within an epoch and before its next requant.
            end = min(k + per_block, stop, *(event[2] for event in events[ev : ev + 1]))
            folded = fold_int8(npu, *(self._rows(m, plan, k, end, addr, cache)
                                      for plan in self.operands),
                               *zeros, acc, m._fastpath_scratch)
            if folded is None:  # the block could saturate
                return False
            acc, k = folded, end
            settle(k)
        m.acc_int = acc.reshape(-1)
        # Commit the state after the run: registers, addresses, the OUT
        # registers and the stored rows, the last after every RAM read.
        for register in self.registers.values():
            src, shift = int(register.src[-1]), int(register.shift[-1])
            if src == 0 and (shift == 0 or register.broadcast):
                continue  # not written, or back where it started
            row, shift = register.rows(m, addr, src), shift % self.row_bytes
            m.ndu_regs[register.dst] = (
                broadcast64(row, int(addr[register.at[-1], register.index_reg]))
                if register.broadcast else np.concatenate((row[shift:], row[:shift])))
        self._requant_and_store(m, snapshots, addr)
        m.addr_regs[:] = addr[-1].tolist()
        m.total_cycles += self.cycles
        m.total_issues += self.trips
        m.total_macs += self.macs
        m.total_instructions += self.words
        m.data_ram.reads += self.data_reads
        m.weight_ram.reads += self.weight_reads
        m.data_ram.writes += self.writes
        # preflight ruled out a wraparound breakpoint inside the run.
        m.perf_counters["cycles"].add(self.cycles)
        m.perf_counters["macs"].add(self.macs)
        m.perf_counters["instructions"].add(self.words)
        m.pc += self.words  # dispatched at the run's first word
        return True

    def _requant_and_store(self, m: "Ncore", snapshots: list[Array], addr: Array) -> None:
        """Requantize every snapshot of the accumulator at once, leave the
        last in the OUT registers and write each store (a store writes
        what the last ``requant`` before it left)."""
        out = np.empty((len(snapshots) + 1, 2, self.row_bytes), np.uint8)
        out[0] = m.out_low, m.out_high  # the OUT registers at entry
        for op in dict.fromkeys(self.requant_ops):
            chosen = [i for i, each in enumerate(self.requant_ops) if each == op]
            low_high = m._requant_rows(op, np.stack([snapshots[i].reshape(-1) for i in chosen]))
            out[[i + 1 for i in chosen]] = np.stack(low_high, axis=1)
        if snapshots:
            m.out_low, m.out_high = out[-1, 0].copy(), out[-1, 1].copy()
        if not len(self.store_trips):
            return
        rows = addr[self.store_trips, self.store_regs].tolist()
        source = np.searchsorted(self.requant_trips, self.store_trips)
        keep = list({row: i for i, row in enumerate(rows)}.values())  # the last store to a row wins
        m.data_ram.data[[rows[i] for i in keep]] = out[source[keep], self.store_high[keep]]
        for i in keep if m.data_ram._injected else ():
            m.data_ram._injected.pop(rows[i], None)  # a fresh write re-encodes the ECC

    def _rows(self, m: "Ncore", plan: tuple[Any, ...], start: int, stop: int,
              addr: Array, cache: dict[int, Any]) -> Array:
        """One NPU operand over accumulating trips ``start:stop``:
        (trips | 1, groups | 1, 64 | 1)."""
        nb, groups = stop - start, self.row_bytes // BROADCAST_GROUP
        shape = (nb, groups, BROADCAST_GROUP)
        if plan[0] == "zero":
            return np.broadcast_to(np.uint8(0), (nb, 1, 1))
        if plan[0] == "live":
            return np.broadcast_to(m.ndu_regs[plan[1]].reshape(1, groups, -1), shape)
        if plan[0] == "broadcast":
            register, index = plan[1], plan[2][start:stop]
            rows = cache.get(register.dst)
            if rows is None:
                rows = cache[register.dst] = register.rows(m, addr).reshape(
                    -1, groups, BROADCAST_GROUP)
            lanes = addr[register.at[index], register.index_reg] % BROADCAST_GROUP
            return rows[register.src[index], :, lanes][:, :, None]
        if plan[0] == "window":
            register = plan[1]
            if register.dst not in cache:  # the windows over its extended source rows
                source = register.rows(m, addr)
                flat = source.reshape(-1)
                cache[register.dst] = (np.ndarray(
                    (len(flat) - self.row_bytes + 1, self.row_bytes), np.uint8, flat, 0, (1, 1)),
                    self._tiled(source))
            rows, tiled = cache[register.dst]
            positions = plan[2][start:stop]
        else:
            _, kind, reg, trips = plan
            rows = (m.data_ram if kind is OperandKind.DATA_RAM else m.weight_ram).data
            if id(plan) not in cache:  # over the rows it reads
                read = addr[trips, reg]
                cache[id(plan)] = self._tiled(rows[read.min() : read.max() + 1])
            tiled, positions = cache[id(plan)], addr[trips[start:stop], reg]
        if tiled:  # each group's lanes are group 0's: read those alone
            rows, shape = rows[:, :BROADCAST_GROUP], (nb, 1, BROADCAST_GROUP)
        first = int(positions[0])
        stride = int(positions[1] - first) if nb > 1 else 0
        if stride < 0 or (nb > 2 and (np.diff(positions) != stride).any()):
            return rows[positions].reshape(shape)
        if stride == 0:
            return np.broadcast_to(rows[first].reshape(1, -1, BROADCAST_GROUP), shape)
        return rows[first : first + stride * nb : stride].reshape(shape)

    def _tiled(self, rows: Array) -> bool:
        """Whether each of ``rows`` repeats its first 64 bytes across the
        row (the NKL's data layout), so every broadcast group reads the same
        lanes."""
        words = rows[:, : self.row_bytes].view(np.uint64).reshape(len(rows), -1, 8)
        return np.array_equal(words[:, 1], words[:, 0]) and bool((words == words[:, :1]).all())


def compile_program(
    program: Sequence[Instruction],
    config: "NcoreConfig",
    stats: dict[str, int],
    obs: Observation,
) -> dict[int, FusedTrace | None]:
    """Compile every run worth fusing (at least ``MIN_FUSED_TRIPS`` trips),
    keyed by its first pc; a word of ``MIN_FUSED_TRIPS`` or more trips that
    no run covers maps to None (the machine counts it a miss).  Counts
    ``compiled`` / ``rejected`` into ``stats`` (mirrored to ``obs``)."""
    if sum(ins.repeat for ins in program) < MIN_FUSED_TRIPS:
        return {}  # no run reaches the floor
    index: dict[int, int] = {}
    words: list[_Word] = []  # one per distinct instruction object
    numbers: list[int] = []
    for ins in program:
        number = index.get(id(ins))
        if number is None:
            number = index[id(ins)] = len(words)
            words.append(_Word(ins))
        numbers.append(number)
    runs: list[tuple[int, int]] = []  # [first pc, past the last)
    first: int | None = None
    forms: dict[int, _Form] = {}
    npu: NPUOp | None = None  # the run's accumulating issue
    members: set[int] = set()  # a run's words, which join it again as they are
    for pc, number in enumerate(numbers):
        word = words[number]
        if first is not None and (number in members or word.joins(forms, npu)):
            members.add(number)
        else:
            if first is not None:
                runs.append((first, pc))
            forms, members, npu = {}, {number}, None
            first = pc if word.joins(forms, None) else None
        npu = npu or word.npu
    if first is not None:
        runs.append((first, len(numbers)))
    repeats = np.array([word.repeat for word in words], dtype=np.int64)[numbers]
    ends = np.concatenate(([0], np.cumsum(repeats)))
    covered = np.zeros(len(numbers), bool)
    table: dict[int, FusedTrace | None] = {}
    for start, stop in runs:
        if ends[stop] - ends[start] >= MIN_FUSED_TRIPS:
            table[start] = FusedTrace(words, numbers[start:stop], config.row_bytes)
            covered[start:stop] = True
    rejected = np.flatnonzero((repeats >= MIN_FUSED_TRIPS) & ~covered).tolist()
    note_stat(obs, "ncore.fastpath", stats, "compiled", len(table))
    note_stat(obs, "ncore.fastpath", stats, "rejected", len(rejected))
    table.update(dict.fromkeys(rejected))
    return table


__all__ = [
    "MIN_FUSED_TRIPS",
    "FusedTrace",
    "compile_program",
    "fusion_blockers",
]
