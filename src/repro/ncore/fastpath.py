"""Fast-path execution tier for the Ncore simulator: trace-fused runs.

The interpreter in :mod:`repro.ncore.machine` pays one Python dispatch per
issue — the dominant cost of every simulated workload.  This module
evaluates a *run*: a maximal straight-line sequence of 8-bit VLIW words
that :func:`fusion_blockers` passes and that carry one NPU issue form,
with at least :data:`MIN_FUSED_TRIPS` issues (trips) in all.  That is the
loop the machine's programs run (paper §IV-B, Fig. 6: ``broadcast64 | mac
dlast | rotl``, packed per Fig. 7 into short repeats and latch words); a
lone hardware repeat is a run of one word.  Trips are evaluated as
(trips, row_bytes) matrices, a block of trips per handful of numpy calls,
producing **bit-identical, cycle-exact** machine state.  Multi-instruction
``LOOP_BEGIN``…``LOOP_END`` loops are interpreted (a run in the body still
fuses).

The register model is one table, built at ``load_program``: after each
trip, every NDU register the run writes is a *window* ``(source, shift)``.
The source is the register's live row at run entry or a row of its RAM
stream (relative to the entry address); the shift is a left rotation, or
for ``broadcast64`` the byte index each 64-byte group broadcasts.  The NPU
issue reads RAM rows, ``zero``, those registers after commit, or
``dlast`` (n0 as the trip began), so each operand of a block is one
gather over the table, or a strided view where its rows advance evenly —
a broadcast register a ``(trips, groups, 1)`` operand, never widened —
and :func:`repro.ncore.npu.fold_int8` folds the block.  Any trip the
static model cannot prove exact (RAM bounds, pending ECC corrections,
perf-counter wraparound breakpoints, n-step windows, a block whose
accumulation could saturate) is interpreted, from a trip where the state
equals the interpreter's.
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
    NPUOp,
    NPUOpcode,
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

#: Flat bytes of trip state per execution block: bounds peak matrix memory
#: while keeping the vectorization factor high enough that numpy dominates
#: dispatch cost.  Equals 1024 trips at the CHA row width; wider configs
#: get proportionally fewer trips per block so memory stays bounded.
_BLOCK_TARGET_BYTES = 1024 * CHA_NCORE.row_bytes

#: Fewest trips a run fuses.  A fused run has a fixed cost (its table at
#: load, preflight, block set-up), so with a fresh machine per run the
#: break-even is about 20 trips, on the Fig. 6 body and on a line of
#: one-trip latch words alike (sweep in docs/simulator-performance.md);
#: identical runs of one program share a table.  4 is kept for the
#: ledger's exact rows.  Read where a run's trip count is known:
#: ``compile_program``.
MIN_FUSED_TRIPS = 4


# ----------------------------------------------------------------------
# Legality
# ----------------------------------------------------------------------

# NDU operations whose effect on a row is a pure, statically known
# function of (source row, address registers): EXPAND consumes a
# variable-length stream (data-dependent), MERGE reads back the
# destination register's previous value through a runtime mask.
TRACE_NDU_OPCODES = frozenset({NDUOpcode.BYPASS, NDUOpcode.ROTATE, NDUOpcode.BROADCAST64})

# A run is straight-line code, and a repeat count cannot combine with an
# active sequencer op (the machine raises).
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
    """Why ``instruction`` cannot be a word of a fused run.

    An empty tuple means every NDU op streams a RAM row or rotates its own
    register, its NPU issue is the 8-bit accumulating form over the rows
    :data:`_TRACE_NPU_SOURCES` names, and its sequencer field is ``NOP``.
    Each entry names the blocking unit/op (``ndu.source.<KIND>`` /
    ``npu.source.<KIND>`` for a row the trip cannot stream), so
    diagnostics can say *why* a word stays on the interpreter.
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


def _left(op: NDUOp | None, row_bytes: int) -> int:
    """Bytes ``op`` moves toward lane 0: a left rotation, 0 if no rotation."""
    if op is None or op.opcode is not NDUOpcode.ROTATE:
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
        self.npu = npu if npu is not None and npu.opcode is not NPUOpcode.NOP else None
        self.forms: dict[int, _Form] = {
            op.dst: (op.opcode is NDUOpcode.BROADCAST64,
                     None if _self_rotation(op) else (op.src.kind, op.src.index),
                     op.index_reg if op.opcode is NDUOpcode.BROADCAST64 else 0)
            for op in instruction.ndu_ops}

    def joins(self, forms: dict[int, _Form], npu: NPUOp | None, first: bool) -> bool:
        """Whether this word extends a run whose NPU issue is ``npu`` and
        whose registers hold ``forms`` (updated when it does): a register
        keeps one form, stream and index register, and a broadcast one is
        written before the NPU first reads it (dlast reads n0 as the run
        entered, so never a broadcast n0)."""
        if self.blockers or (not first and self.npu != npu):
            return False
        operands = () if npu is None else (npu.data, npu.weight)
        dlast = any(o.kind is OperandKind.DLAST for o in operands)
        added: dict[int, _Form] = {}
        for dst, form in self.forms.items():
            known = forms.get(dst)
            if known is None:
                read = dlast and dst == 0 or any(
                    o.kind is OperandKind.NDU_REG and o.index == dst for o in operands)
                if form[0] and read and (not first or dst == 0 and dlast):
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
    t = after t trips, 0 = at entry).  ``src`` 0 is the live row, ``src``
    k > 0 the stream row at entry address + ``rels[k - 1]``; ``shift`` is
    the left rotation, or for a broadcast the index register's offset."""

    def __init__(self, dst: int, form: _Form, rel: Array, live: Array, shift: Array,
                 row_bytes: int) -> None:
        self.dst, self.shift = dst, shift
        self.broadcast, self.stream, self.index_reg = form
        # Stream rows in the order the run reads them (offsets never
        # decrease: every address step is a post-increment).
        read = rel[~live]
        new = np.concatenate(([True], read[1:] != read[:-1]))[: len(read)]
        self.rels = read[new]
        self.src = np.zeros(len(rel), dtype=np.intp)
        self.src[~live] = np.cumsum(new)
        # A rotation window's first byte in the source rows, each extended
        # cyclically by ``width`` bytes and laid end to end.
        self.width = 0 if self.broadcast else int(shift.max())
        self.window = self.src * (row_bytes + self.width) + shift

    def rows(self, m: "Ncore", entry: Sequence[int], src: int | None = None) -> Array:
        """Source row ``src``, or all of them — the live row, then the
        stream rows — each extended cyclically by ``width`` bytes."""
        live = m.ndu_regs[self.dst]
        if src == 0:
            return live
        data = (m.data_ram if self.stream is None or self.stream[0] is OperandKind.DATA_RAM
                else m.weight_ram).data
        base = 0 if self.stream is None else entry[self.stream[1]]
        if src is not None:
            return data[base + int(self.rels[src - 1])]
        rows = np.empty((len(self.rels) + 1, len(live) + self.width), np.uint8)
        rows[0, : len(live)] = live
        np.take(data, base + self.rels, axis=0, out=rows[1:, : len(live)])
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

    What a trip touches — the RAM rows it reads and how far each address
    register steps — is the ISA's own table
    (:meth:`Instruction.row_accesses` / ``addr_steps``), not re-derived.
    """

    def __init__(self, words: Sequence[_Word], row_bytes: int) -> None:
        self.row_bytes, self.npu = row_bytes, words[0].npu
        # A run repeats a few instruction objects: read each once.
        index: dict[int, int] = {}
        kinds = np.array([index.setdefault(id(word), len(index)) for word in words])
        distinct = [word.instruction for word in {id(word): word for word in words}.values()]
        repeats = np.array([ins.repeat for ins in distinct])[kinds]
        self.word_ends = np.cumsum(repeats)  # trips through each word
        self.trips = int(self.word_ends[-1])
        dsts = sorted({op.dst for ins in distinct for op in ins.ndu_ops})
        keys = sorted({(a.ram, a.reg) for ins in distinct for a in ins.row_accesses()})
        # Per word: cycles, data and weight rows read, each address step;
        # per written register whether the word streams a RAM row into it
        # and its left rotation; per stream, the rows it reads.
        columns: list[list[int]] = []
        for ins in distinct:
            accesses, steps = ins.row_accesses(), ins.addr_steps()
            ops = {op.dst: op for op in ins.ndu_ops}
            columns.append([
                ins.issue_cycles(),
                *(sum(a.rows for a in accesses if a.ram == ram) for ram in ("data", "weight")),
                *(steps.get(reg, 0) for reg in range(NUM_ADDR_REGS)),
                *(dst in ops and not _self_rotation(ops[dst]) for dst in dsts),
                *(_left(ops.get(dst), row_bytes) for dst in dsts),
                *(max((a.rows for a in accesses if (a.ram, a.reg) == key), default=0)
                  for key in keys)])
        per_trip = np.array(columns)[np.repeat(kinds, repeats)]
        counts, d = 3 + NUM_ADDR_REGS, len(dsts)
        totals = np.zeros((self.trips + 1, counts), np.int64)  # over the first t trips
        np.cumsum(per_trip[:, :counts], axis=0, out=totals[1:])
        self.cycles, self.reads, self.offsets = totals[:, 0], totals[:, 1:3].T, totals[:, 3:].T
        self.word_cycles = self.cycles[self.word_ends]
        # The lowest and past-the-highest row each stream reads (offsets
        # never decrease, so its first and last reads bound it).
        self.spans: dict[tuple[str, int], tuple[int, int]] = {}
        for (ram, reg), rows in zip(keys, per_trip[:, counts + 2 * d :].T, strict=True):
            reading = rows.nonzero()[0]
            self.spans[ram, reg] = (int(self.offsets[reg, reading[0]]),
                                    int(self.offsets[reg, reading[-1]] + rows.max()))
        mac = self.npu is not None and self.npu.opcode is NPUOpcode.MAC
        self.macs_per_trip = row_bytes if mac else 0
        # Each written register's window after every trip: its last stream
        # write (or the entry row) and the rotations since.
        stream = per_trip[:, counts : counts + d].astype(bool)
        left = per_trip[:, counts + d : counts + 2 * d]
        last = np.maximum.accumulate(np.where(stream, np.arange(self.trips)[:, None], -1), axis=0)
        written, at = last >= 0, np.maximum(last, 0)
        turned = np.cumsum(np.where(stream, 0, left), axis=0)  # self-rotations through each trip
        column = np.arange(d)
        # Left rotations, kept below 8 rows' worth: windows over a source
        # extended that far stay a strided view over trips as long as the
        # shift grows evenly (Fig. 6's 64 bytes a trip, for 512 trips).
        rotation = np.where(written, left[at, column] + turned - turned[at, column],
                            turned) % (8 * row_bytes)
        self.registers: dict[int, _Register] = {}
        for j, dst in enumerate(dsts):
            forms = [word.forms[dst] for word in words if dst in word.forms]
            form = next((f for f in forms if f[1] is not None), forms[0])  # its stream, if any
            broadcast, source, index_reg = form
            rel = self.offsets[source[1], at[:, j]] if source is not None else at[:, j]
            shift = self.offsets[index_reg, at[:, j]] if broadcast else rotation[:, j]
            self.registers[dst] = _Register(
                dst, form, np.concatenate(([0], rel)), np.concatenate(([True], ~written[:, j])),
                np.concatenate(([0], shift)), row_bytes)
        npu = self.npu
        self.operands = () if npu is None else (self._plan(npu.data), self._plan(npu.weight))

    def _plan(self, operand: Operand) -> tuple[Any, ...]:
        """How a block reads one NPU operand: ``("zero",)``, ``("live",
        reg)`` (a register the run leaves alone), ``("broadcast",
        register, index)`` (its table at ``index`` per trip), or
        ``("rows", table, base register, positions, stride)``: the rows of
        a RAM (``table`` its kind) at entry address + ``positions``, or of
        a register's windows (``table`` the register); ``stride`` when the
        positions are evenly spaced, so a block is a view."""
        kind, trips = operand.kind, np.arange(self.trips)
        register = self.registers.get(0 if kind is OperandKind.DLAST else operand.index)
        table: OperandKind | _Register
        reg: int | None
        if kind in RAM_KINDS:
            table, reg, positions = kind, operand.index, self.offsets[operand.index, :-1]
        elif kind is OperandKind.ZERO or register is None:
            return ("zero",) if kind is OperandKind.ZERO else ("live", operand.index)
        else:
            index = trips if kind is OperandKind.DLAST else trips + 1
            src = register.src[index]
            if register.broadcast:
                return ("broadcast", register, index)
            if src.all() and not register.shift[index].any():
                # A copy of its stream row on every trip: read the RAM directly.
                assert register.stream is not None
                (table, reg), positions = register.stream, register.rels[src - 1]
            else:
                table, reg, positions = register, None, register.window[index]
        steps = np.diff(positions)
        even = not len(steps) or (steps == steps[0]).all()
        stride = (int(steps[0]) if len(steps) else 0) if even else None
        return ("rows", table, reg, positions, stride)

    def preflight(self, machine: "Ncore") -> str | None:
        """Why the run cannot be fused from the current state (None =
        safe).  Every check mirrors a condition under which the
        interpreter would deviate from the static model: pending ECC
        corrections, RAM bounds faults, perf-counter wraparound
        breakpoints and n-step windows landing inside the run."""
        for (name, reg), (lo, hi) in self.spans.items():
            ram = machine.data_ram if name == "data" else machine.weight_ram
            if ram._injected:
                return "ecc"
            if machine.addr_regs[reg] + lo < 0 or machine.addr_regs[reg] + hi > ram.rows:
                return "bounds"
        cycles = int(self.cycles[-1])
        deltas = (("cycles", cycles), ("macs", self.macs_per_trip * self.trips),
                  ("instructions", len(self.word_ends)))
        for name, delta in deltas:
            counter = machine.perf_counters[name]
            if counter.break_on_wrap and counter.value + delta >= (1 << counter.bits):
                return "perf_counter"
        if machine.n_step is not None:
            next_break = machine._next_step_break
            if next_break is None or machine.total_cycles + cycles >= next_break:
                return "n_step"
        return None

    def run(self, machine: "Ncore", limit: int) -> int:
        """Execute up to ``limit`` fused trips and commit them; returns
        the trips committed.

        A short return means a block's accumulation could saturate: that
        block is not committed, so the machine state is exactly the
        interpreter's at that trip, and the interpreter runs the rest.
        """
        m = machine
        entry = list(m.addr_regs)
        done = 0
        npu = self.npu
        if npu is None:
            done = limit
        else:
            zeros = (m.data_zero_offset, m.weight_zero_offset) if npu.zero_offset else (0, 0)
            per_block = max(1, _BLOCK_TARGET_BYTES // self.row_bytes)
            cache: dict[int, Array] = {}
            while done < limit:
                block = slice(done, min(done + per_block, limit))
                data, weight = (self._rows(m, plan, block, entry, cache) for plan in self.operands)
                acc = fold_int8(npu, data, weight, *zeros, m.acc_int.reshape(-1, BROADCAST_GROUP),
                                m._fastpath_scratch)
                if acc is None:
                    break
                m.acc_int = acc.reshape(-1)
                done = block.stop
        if not done:
            return 0
        # Commit the state after ``done`` trips (mid-word: the interpreter
        # resumes the repeat).
        for register in self.registers.values():
            src, shift = int(register.src[done]), int(register.shift[done])
            if src == 0 and (shift == 0 or register.broadcast):
                continue  # not yet written, or back where it started
            row, shift = register.rows(m, entry, src), shift % self.row_bytes
            m.ndu_regs[register.dst] = (
                broadcast64(row, entry[register.index_reg] + shift) if register.broadcast
                else np.concatenate((row[shift:], row[:shift])))
        m.addr_regs[:] = [a + b for a, b in zip(entry, self.offsets[:, done].tolist(), strict=True)]
        cycles, macs = int(self.cycles[done]), self.macs_per_trip * done
        m.total_cycles += cycles
        m.total_issues += done
        m.total_macs += macs
        m.data_ram.reads += int(self.reads[0, done])
        m.weight_ram.reads += int(self.reads[1, done])
        # preflight ruled out a wraparound breakpoint inside the run.
        m.perf_counters["cycles"].add(cycles)
        m.perf_counters["macs"].add(macs)
        words = int(np.searchsorted(self.word_ends, done, side="right"))
        m.total_instructions += words
        m.perf_counters["instructions"].add(words)
        m.pc += words  # dispatched at the run's first word
        into = done - (int(self.word_ends[words - 1]) if words else 0)
        m._resume_repeat = (m.pc, into) if into else None
        return done

    def _rows(self, m: "Ncore", plan: tuple[Any, ...], block: slice,
              entry: Sequence[int], cache: dict[int, Array]) -> Array:
        """One NPU operand over ``block``: (trips | 1, groups | 1, 64 | 1)."""
        nb, groups = block.stop - block.start, self.row_bytes // BROADCAST_GROUP
        shape = (nb, groups, BROADCAST_GROUP)
        if plan[0] == "zero":
            return np.broadcast_to(np.uint8(0), (nb, 1, 1))
        if plan[0] == "live":
            return np.broadcast_to(m.ndu_regs[plan[1]].reshape(1, groups, -1), shape)
        if plan[0] == "broadcast":
            register, index = plan[1], plan[2][block]
            rows = cache.get(register.dst)
            if rows is None:
                rows = cache[register.dst] = register.rows(m, entry).reshape(
                    -1, groups, BROADCAST_GROUP)
            lane = (entry[register.index_reg] + register.shift[index]) % BROADCAST_GROUP
            return rows[register.src[index], :, lane][:, :, None]
        _, table, reg, positions, stride = plan
        if isinstance(table, _Register):
            rows = cache.get(table.dst)
            if rows is None:  # the windows over its extended source rows
                flat = table.rows(m, entry).reshape(-1)
                rows = cache[table.dst] = np.ndarray(
                    (len(flat) - self.row_bytes + 1, self.row_bytes), np.uint8, flat, 0, (1, 1))
            base = 0
        else:
            rows = (m.data_ram if table is OperandKind.DATA_RAM else m.weight_ram).data
            base = entry[reg]
        first = base + int(positions[block.start])
        if stride is None:
            return rows[base + positions[block]].reshape(shape)
        if stride == 0:
            return np.broadcast_to(rows[first].reshape(1, groups, -1), shape)
        return rows[first : first + stride * nb : stride].reshape(shape)


def compile_program(
    program: Sequence[Instruction],
    config: "NcoreConfig",
    stats: dict[str, int],
    obs: Observation,
) -> dict[int, FusedTrace | None]:
    """Compile every run worth fusing (at least ``MIN_FUSED_TRIPS`` trips),
    keyed by its first pc; a word of ``MIN_FUSED_TRIPS`` or more trips that
    no run covers maps to None (the machine counts it a miss).  Runs of the
    same instruction objects share one trace.  Counts ``compiled`` /
    ``rejected`` into ``stats`` (mirrored to ``obs``)."""
    facts: dict[int, _Word] = {}
    words = [facts.get(id(ins)) or facts.setdefault(id(ins), _Word(ins)) for ins in program]
    traces: dict[tuple[int, ...], FusedTrace] = {}
    table: dict[int, FusedTrace | None] = {}
    runs: list[list[int]] = []
    forms: dict[int, _Form] = {}
    members: set[int] = set()  # a run's words, which join it again as they are
    for pc, word in enumerate(words):
        if runs and runs[-1] and (id(word) in members
                                  or word.joins(forms, words[runs[-1][0]].npu, False)):
            runs[-1].append(pc)
            members.add(id(word))
        else:
            forms, members = {}, {id(word)}
            runs.append([pc] if word.joins(forms, word.npu, True) else [])
    for run in runs:
        if sum(words[pc].repeat for pc in run) >= MIN_FUSED_TRIPS:
            key = tuple(id(words[pc]) for pc in run)
            if key not in traces:
                traces[key] = FusedTrace([words[pc] for pc in run], config.row_bytes)
            table[run[0]] = traces[key]
    covered = {pc for run in runs if run and run[0] in table for pc in run}
    rejected = [pc for pc, word in enumerate(words)
                if word.repeat >= MIN_FUSED_TRIPS and pc not in covered]
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
