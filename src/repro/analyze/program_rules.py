"""Program verifier: abstract interpretation of assembled Ncore programs.

Re-checks a ``list[Instruction]`` against the architectural limits and the
target :class:`~repro.ncore.config.NcoreConfig` without running the
simulator.  Address registers are tracked as ``int | None`` (``None`` =
statically unknown); hardware loops are interpreted until the address state
reaches a fixpoint, after which changing registers are widened to unknown —
so every reported out-of-bounds access is real, and unknowable accesses are
simply not reported.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.isa.instruction import (
    MAX_NDU_OPS,
    MAX_REPEAT,
    MAX_ROTATE_PER_CLOCK,
    Instruction,
    NDUOp,
    NDUOpcode,
    OutOp,
    RowAccess,
    SeqOp,
    SeqOpcode,
)
from repro.isa.operands import (
    INDEX_LIMITS,
    NUM_ADDR_REGS,
    NUM_DMA_DESCRIPTORS,
    NUM_LOOP_COUNTERS,
    NUM_NDU_REGS,
    NUM_PRED_REGS,
    Operand,
)
from repro.ncore.config import NcoreConfig

from repro.analyze.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Rule,
    Severity,
    diag,
    register_rule,
)

NDU_OPS = register_rule(
    "isa.ndu-ops", Severity.ERROR, "too many parallel NDU micro-ops",
    f"An instruction packs more than {MAX_NDU_OPS} NDU operations, or two "
    "parallel NDU ops write the same output register.",
)
REPEAT = register_rule(
    "isa.repeat", Severity.ERROR, "repeat count outside the 16-bit field",
    f"The hardware repeat count must be in 1..{MAX_REPEAT}.",
)
ROTATE = register_rule(
    "isa.rotate", Severity.ERROR, "rotate distance beyond the barrel width",
    f"The NDU rotates at most {MAX_ROTATE_PER_CLOCK} bytes per clock; larger "
    "logical rotations must be composed via the repeat field.",
)
REGISTER = register_rule(
    "isa.register", Severity.ERROR, "register index out of range",
    "An operand or unit field names a register beyond the architectural "
    "register file (addr a0..a7, NDU n0..n3, predicate p0..p7).",
)
REPEAT_SEQ = register_rule(
    "isa.repeat-seq", Severity.ERROR, "sequencer op under a hardware repeat",
    "repeat > 1 cannot be combined with a non-NOP sequencer op; the machine "
    "rejects this at issue time.",
)
LOOP_DEPTH = register_rule(
    "isa.loop-depth", Severity.ERROR, "hardware loop nesting too deep",
    f"Loops nest deeper than the {NUM_LOOP_COUNTERS} hardware loop counters.",
)
LOOP_STRUCTURE = register_rule(
    "isa.loop-structure", Severity.ERROR, "unbalanced hardware loop",
    "An endloop has no matching loop begin, or a loop is still open when "
    "the program halts.",
)
DMA_DESCRIPTOR = register_rule(
    "isa.dma-descriptor", Severity.ERROR, "DMA descriptor index out of range",
    f"dmastart references a descriptor slot beyond {NUM_DMA_DESCRIPTORS}.",
)
DMA_WAIT = register_rule(
    "isa.dma-wait", Severity.ERROR, "DMA wait group out of range",
    "dmawait names an engine group outside 0..3; the hardware would wait "
    "on no engine at all, silently skipping the synchronization.",
)
SRAM_BOUNDS = register_rule(
    "isa.sram-bounds", Severity.ERROR, "RAM access outside the scratchpad",
    "A statically-known address register walks a RAM row outside the "
    "configured scratchpad during the instruction's repeat issues.",
)
NO_HALT = register_rule(
    "isa.no-halt", Severity.ERROR, "program never halts",
    "Execution can fall off the end of the instruction memory; every "
    "program must end every path with halt.",
)
IRAM_OVERFLOW = register_rule(
    "isa.iram-overflow", Severity.ERROR, "program exceeds instruction RAM",
    "The program has more instructions than the IRAM holds.",
)
BUDGET = register_rule(
    "isa.budget", Severity.INFO, "analysis budget exhausted",
    "Abstract interpretation stopped early; later instructions were only "
    "structurally checked.",
)

# Abstract-interpretation step budget.  Real kernels converge in far fewer
# steps because loop bodies reach an address fixpoint (or widen to unknown)
# within a few iterations.
_MAX_STEPS = 200_000

# Iterations of a hardware loop interpreted precisely before the registers
# it changes are widened to unknown.
_LOOP_WIDEN_AFTER = 4


def _check_operand(
    operand: Operand, name: str, unit: str, index: int
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    limit = INDEX_LIMITS[operand.kind]
    if not 0 <= operand.index < limit:
        findings.append(diag(
            REGISTER,
            f"{unit} operand {operand.kind.value!r} index {operand.index} "
            f"exceeds limit {limit}",
            artifact=name, element=unit, index=index,
        ))
    return findings


def _check_structure(
    program: list[Instruction], name: str, config: NcoreConfig
) -> list[Diagnostic]:
    """Per-instruction structural limits, independent of control flow."""
    findings: list[Diagnostic] = []
    if len(program) > config.iram_instructions:
        findings.append(diag(
            IRAM_OVERFLOW,
            f"program has {len(program)} instructions but the IRAM holds "
            f"{config.iram_instructions}",
            artifact=name, element="program",
        ))
    for index, instruction in enumerate(program):
        if len(instruction.ndu_ops) > MAX_NDU_OPS:
            findings.append(diag(
                NDU_OPS,
                f"{len(instruction.ndu_ops)} parallel NDU ops exceed the "
                f"limit of {MAX_NDU_OPS}",
                artifact=name, element="ndu", index=index,
            ))
        dsts = [op.dst for op in instruction.ndu_ops]
        if len(dsts) != len(set(dsts)):
            findings.append(diag(
                NDU_OPS,
                "parallel NDU ops write the same output register",
                artifact=name, element="ndu", index=index,
            ))
        if not 1 <= instruction.repeat <= MAX_REPEAT:
            findings.append(diag(
                REPEAT,
                f"repeat count {instruction.repeat} outside 1..{MAX_REPEAT}",
                artifact=name, element="repeat", index=index,
            ))
        if instruction.repeat > 1 and instruction.seq.opcode is not SeqOpcode.NOP:
            findings.append(diag(
                REPEAT_SEQ,
                f"sequencer op {instruction.seq.opcode.value!r} combined with "
                f"repeat {instruction.repeat}",
                artifact=name, element="seq", index=index,
                hint="split the sequencer op into its own instruction",
            ))
        findings.extend(_check_ndu_ops(instruction.ndu_ops, name, index))
        if instruction.npu is not None:
            npu = instruction.npu
            findings.extend(_check_operand(npu.data, name, "npu", index))
            findings.extend(_check_operand(npu.weight, name, "npu", index))
            if npu.predicate is not None and not 0 <= npu.predicate < NUM_PRED_REGS:
                findings.append(diag(
                    REGISTER,
                    f"NPU predicate register {npu.predicate} exceeds "
                    f"{NUM_PRED_REGS}",
                    artifact=name, element="npu", index=index,
                ))
        if instruction.out is not None:
            findings.extend(_check_out(instruction.out, name, index))
        findings.extend(_check_seq(instruction, name, index))
    return findings


def _check_ndu_ops(
    ops: tuple[NDUOp, ...], name: str, index: int
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    for op in ops:
        if not 0 <= op.dst < NUM_NDU_REGS:
            findings.append(diag(
                REGISTER,
                f"NDU destination register n{op.dst} exceeds {NUM_NDU_REGS}",
                artifact=name, element="ndu", index=index,
            ))
        if not 0 <= op.index_reg < NUM_ADDR_REGS:
            findings.append(diag(
                REGISTER,
                f"NDU index register a{op.index_reg} exceeds {NUM_ADDR_REGS}",
                artifact=name, element="ndu", index=index,
            ))
        if op.opcode is NDUOpcode.ROTATE and not 0 <= op.amount <= MAX_ROTATE_PER_CLOCK:
            findings.append(diag(
                ROTATE,
                f"rotate amount {op.amount} exceeds {MAX_ROTATE_PER_CLOCK} "
                "bytes per clock",
                artifact=name, element="ndu", index=index,
                hint="compose large rotations with the repeat field",
            ))
        findings.extend(_check_operand(op.src, name, "ndu", index))
        if op.src2 is not None:
            findings.extend(_check_operand(op.src2, name, "ndu", index))
    return findings


def _check_out(out: OutOp, name: str, index: int) -> list[Diagnostic]:
    if not 0 <= out.dst_addr_reg < NUM_ADDR_REGS:
        return [diag(
            REGISTER,
            f"OUT store address register a{out.dst_addr_reg} exceeds "
            f"{NUM_ADDR_REGS}",
            artifact=name, element="out", index=index,
        )]
    return []


def _check_seq(
    instruction: Instruction, name: str, index: int
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    seq = instruction.seq
    if (seq.opcode in (SeqOpcode.SET_ADDR, SeqOpcode.ADD_ADDR)
            and not 0 <= seq.arg < NUM_ADDR_REGS):
        findings.append(diag(
            REGISTER,
            f"sequencer address register a{seq.arg} exceeds {NUM_ADDR_REGS}",
            artifact=name, element="seq", index=index,
        ))
    if (seq.opcode is SeqOpcode.DMA_START
            and not 0 <= seq.arg < NUM_DMA_DESCRIPTORS):
        findings.append(diag(
            DMA_DESCRIPTOR,
            f"DMA descriptor {seq.arg} exceeds {NUM_DMA_DESCRIPTORS} slots",
            artifact=name, element="seq", index=index,
        ))
    if seq.opcode is SeqOpcode.DMA_WAIT and seq.arg not in SeqOp.DMA_WAIT_GROUPS:
        findings.append(diag(
            DMA_WAIT,
            f"DMA wait group {seq.arg} is not a valid engine group (0..3)",
            artifact=name, element="seq", index=index,
        ))
    return findings


@dataclass
class _LoopFrame:
    body_start: int
    remaining: int
    iterations_seen: int = 0
    entry_addr: tuple[int | None, ...] = ()


class AddressWalk:
    """The abstract interpreter of address registers, shared by every
    program pass.

    Iterating yields ``(pc, instruction, accesses)`` per interpreted
    instruction, where ``accesses`` holds ``(access, first_row, span)`` for
    each of :meth:`Instruction.row_accesses` whose register exists (a
    forged one is ``isa.register``'s to report): ``first_row`` is the
    register's value entering the instruction (``None`` = statically
    unknown) and ``span`` the rows its repeat issues cover from there.
    Hardware loops are re-walked until the registers reach a fixpoint or,
    after ``_LOOP_WIDEN_AFTER`` changing trips, the changed ones widen to
    unknown; a sequencer op under a repeat is skipped (``isa.repeat-seq``).

    Once exhausted, ``stop`` says why — ``halt``, ``end`` (fell off the
    program), ``budget``, ``loop-depth`` or ``loop-structure`` (endloop
    without a loop) — ``pc`` where, and ``open_loops`` how many hardware
    loops were still open.
    """

    def __init__(self, program: list[Instruction]) -> None:
        self.program = program
        self.addr: list[int | None] = [0] * NUM_ADDR_REGS
        self.stop, self.pc, self.open_loops = "end", 0, 0

    def __iter__(self) -> Iterator[
        tuple[int, Instruction, list[tuple[RowAccess, int | None, int]]]
    ]:
        program, addr = self.program, self.addr
        loops: list[_LoopFrame] = []
        stop = "end"
        pc = steps = 0
        while 0 <= pc < len(program):
            steps += 1
            if steps > _MAX_STEPS:
                stop = "budget"
                break
            instruction = program[pc]
            repeat = max(1, min(instruction.repeat, MAX_REPEAT))
            per_issue = instruction.addr_steps()
            yield pc, instruction, [
                (access, addr[access.reg],
                 access.rows + (repeat - 1) * per_issue.get(access.reg, 0))
                for access in instruction.row_accesses()
                if 0 <= access.reg < NUM_ADDR_REGS
            ]
            for reg, step in per_issue.items():
                if 0 <= reg < NUM_ADDR_REGS and addr[reg] is not None:
                    addr[reg] += step * repeat  # type: ignore[operator]

            seq = instruction.seq
            opcode = SeqOpcode.NOP if instruction.repeat > 1 else seq.opcode
            next_pc = pc + 1
            if opcode is SeqOpcode.HALT:
                stop = "halt"
                break
            if opcode is SeqOpcode.LOOP_BEGIN:
                if len(loops) >= NUM_LOOP_COUNTERS:
                    stop = "loop-depth"
                    break
                loops.append(_LoopFrame(
                    body_start=pc + 1,
                    remaining=max(1, seq.arg2),
                    entry_addr=tuple(addr),
                ))
            elif opcode is SeqOpcode.LOOP_END:
                if not loops:
                    stop = "loop-structure"
                    break
                frame = loops[-1]
                frame.remaining -= 1
                frame.iterations_seen += 1
                moving = frame.remaining > 0 and tuple(addr) != frame.entry_addr
                if moving and frame.iterations_seen < _LOOP_WIDEN_AFTER:
                    frame.entry_addr = tuple(addr)
                    next_pc = frame.body_start
                else:
                    if moving:  # no fixpoint within the precise trips: widen
                        for reg, before in enumerate(frame.entry_addr):
                            if addr[reg] != before:
                                addr[reg] = None
                    loops.pop()
            elif opcode is SeqOpcode.SET_ADDR:
                if 0 <= seq.arg < NUM_ADDR_REGS:
                    addr[seq.arg] = seq.arg2
            elif opcode is SeqOpcode.ADD_ADDR:
                if 0 <= seq.arg < NUM_ADDR_REGS and addr[seq.arg] is not None:
                    addr[seq.arg] += seq.arg2  # type: ignore[operator]
            pc = next_pc
        self.stop, self.pc, self.open_loops = stop, pc, len(loops)


def _interpret(
    program: list[Instruction], name: str, config: NcoreConfig
) -> list[Diagnostic]:
    """Bounds-check every access of one :class:`AddressWalk`.

    Reports ``isa.sram-bounds`` only for statically-known addresses, then
    the walk's own ending: ``isa.loop-*``, ``isa.no-halt`` or the
    ``isa.budget`` note.
    """
    findings: list[Diagnostic] = []
    reported: set[tuple[str, int]] = set()

    def report(rule: Rule, message: str, element: str, index: int, hint: str = "") -> None:
        key = (rule.id, index)
        if key in reported:  # one finding per rule per instruction
            return
        reported.add(key)
        findings.append(diag(
            rule, message, artifact=name, element=element, index=index, hint=hint,
        ))

    walk = AddressWalk(program)
    for pc, _, accesses in walk:
        for access, row, span in accesses:
            if row is not None and (row < 0 or row + span > config.sram_rows):
                verb = "stores" if access.write else "reads"
                report(
                    SRAM_BOUNDS,
                    f"{access.unit} {verb} {access.ram} RAM rows [{row}, "
                    f"{row + span - 1}] via a{access.reg}, but the RAM has "
                    f"{config.sram_rows} rows",
                    access.unit, pc,
                )
    if walk.stop == "end":
        report(
            NO_HALT,
            "execution falls off the end of the program without a halt",
            "program", max(0, len(program) - 1),
            hint="end the program with a halt instruction",
        )
    elif walk.stop == "halt" and walk.open_loops:
        report(
            LOOP_STRUCTURE,
            f"{walk.open_loops} hardware loop(s) still open at halt",
            "seq", walk.pc,
        )
    elif walk.stop == "loop-structure":
        report(
            LOOP_STRUCTURE, "endloop without a matching loop begin", "seq", walk.pc,
        )
    elif walk.stop == "loop-depth":
        report(
            LOOP_DEPTH,
            f"loop nesting exceeds the {NUM_LOOP_COUNTERS} hardware loop counters",
            "seq", walk.pc,
        )
    elif walk.stop == "budget":
        report(
            BUDGET,
            f"stopped after {_MAX_STEPS} interpreted issues; remaining "
            "instructions were only structurally checked",
            "program", walk.pc,
        )
    return findings


def analyze_program(
    program: list[Instruction],
    config: NcoreConfig | None = None,
    name: str = "program",
    suppress: tuple[str, ...] = (),
) -> AnalysisReport:
    """Run the full program pass stack over one assembled program."""
    config = config or NcoreConfig()
    report = AnalysisReport()
    report.extend(_check_structure(program, name, config))
    report.extend(_interpret(program, name, config))
    if suppress:
        report = report.suppress(suppress)
    return report
