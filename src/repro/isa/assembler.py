"""Assembler for Ncore's internal code representation.

The paper shows a convolution inner loop in Ncore's internal code syntax
(Fig. 6) and notes "this level of code is abstracted away from the end user
via the tooling".  This assembler is that tooling layer: the NKL emits
instruction objects directly, but hand-written kernels, the instruction ROM
contents and tests use this textual form.

Grammar (one statement per line, ``;`` starts a comment)::

    setaddr a0, 5          sequencer ops
    addaddr a0, -1
    loopn 16 / endloop     multi-instruction hardware loop
    dmastart 0 / dmawait 3
    event 7 / break / nop / halt

    bypass n0, dram[a0++]          NDU ops (dst register first)
    rotl n1, n1, 64                rotate left/right by 1..64 bytes
    rotr n1, n1, 8
    broadcast64 n2, wtram[a3], a5, inc
    expand n3, wtram[a2]
    merge n0, dram[a1], n2

    mac n0>>1, n1                  NPU ops: data, weight, then flags
    add.int16 dram[a0], n2, noacc, zoff, neighbor, pred3

    requant.uint8 relu             OUT ops
    store a6, inc
    storeacc a6

    loop 3 {                       fused block: every statement inside
      broadcast64 n1, wtram[a3], a5, inc     becomes ONE instruction with
      mac dlast>>1, n1                       a hardware repeat count, as in
      rotl n0, n0, 64                        Fig. 6 of the paper
    }

Statements may also be fused explicitly on one line with ``|``::

    bypass n0, dram[a0++] | mac n0, wtram[a1++] | requant relu
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.dtypes import NcoreDType
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
    SeqOp,
    SeqOpcode,
)
from repro.isa.instruction import MAX_REPEAT
from repro.isa.operands import (
    NUM_ADDR_REGS,
    NUM_NDU_REGS,
    NUM_PRED_REGS,
    Operand,
    OperandKind,
)


class AssemblyError(ValueError):
    """Raised on malformed assembly input."""

    def __init__(self, message: str, line_no: int | None = None) -> None:
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


_OPERAND_RE = re.compile(
    r"^(?:"
    r"(?P<ram>dram|wtram)\[a(?P<areg>\d+)(?P<inc>\+\+)?\]"
    r"|n(?P<ndu>\d+)"
    r"|#(?P<imm>\d+)"
    r"|(?P<named>dlast|out_lo|out_hi|zero|acc)"
    r")$"
)


def _check_reg(index: int, limit: int, what: str, line_no: int) -> int:
    """Range-check a register index at assembly time (not at execution)."""
    if not 0 <= index < limit:
        raise AssemblyError(f"{what} {index} out of range (0..{limit - 1})", line_no)
    return index


def _addr_reg(text: str, what: str, line_no: int) -> int:
    match = re.fullmatch(r"a(\d+)", text)
    if match is None:
        raise AssemblyError(f"{what} must be an address register 'aR'", line_no)
    return _check_reg(int(match[1]), NUM_ADDR_REGS, f"{what} a-register", line_no)


def _check_repeat(count: int, what: str, line_no: int) -> int:
    if not 1 <= count <= MAX_REPEAT:
        raise AssemblyError(f"{what} {count} outside 1..{MAX_REPEAT}", line_no)
    return count

_NAMED_KINDS = {
    "dlast": OperandKind.DLAST,
    "out_lo": OperandKind.OUT_LOW,
    "out_hi": OperandKind.OUT_HIGH,
    "zero": OperandKind.ZERO,
    "acc": OperandKind.ACC,
}

_SIMPLE_SEQ = {
    "halt": SeqOpcode.HALT,
    "nop": SeqOpcode.NOP,
    "endloop": SeqOpcode.LOOP_END,
    "break": SeqOpcode.BREAK,
}

_NPU_MNEMONICS = {
    "mac": NPUOpcode.MAC,
    "add": NPUOpcode.ADD,
    "sub": NPUOpcode.SUB,
    "min": NPUOpcode.MIN,
    "max": NPUOpcode.MAX,
    "and": NPUOpcode.AND,
    "or": NPUOpcode.OR,
    "xor": NPUOpcode.XOR,
    "cmpgt": NPUOpcode.CMPGT,
}

_DTYPE_SUFFIXES = {
    "int8": NcoreDType.INT8,
    "uint8": NcoreDType.UINT8,
    "int16": NcoreDType.INT16,
    "bf16": NcoreDType.BF16,
}

_ACT_NAMES = {a.value: a for a in Activation}


def _parse_operand(text: str, line_no: int) -> Operand:
    match = _OPERAND_RE.match(text.strip())
    if match is None:
        raise AssemblyError(f"cannot parse operand {text!r}", line_no)
    if match["ram"]:
        kind = OperandKind.DATA_RAM if match["ram"] == "dram" else OperandKind.WEIGHT_RAM
        index = _check_reg(int(match["areg"]), NUM_ADDR_REGS, "address register", line_no)
        return Operand(kind, index, match["inc"] is not None)
    if match["ndu"] is not None:
        index = _check_reg(int(match["ndu"]), NUM_NDU_REGS, "NDU register", line_no)
        return Operand(OperandKind.NDU_REG, index)
    if match["imm"] is not None:
        value = int(match["imm"])
        if value > 63:
            raise AssemblyError(f"immediate {value} exceeds 63", line_no)
        return Operand(OperandKind.IMMEDIATE, value)
    return Operand(_NAMED_KINDS[match["named"]])


def _split_args(rest: str) -> list[str]:
    return [part.strip() for part in rest.split(",") if part.strip()] if rest.strip() else []


@dataclass
class _PendingInstruction:
    """Unit ops collected for one (possibly fused) instruction."""

    ndu_ops: list[NDUOp] = field(default_factory=list)
    npu: NPUOp | None = None
    out: OutOp | None = None
    seq: SeqOp | None = None
    repeat: int = 1

    def build(self, line_no: int) -> Instruction:
        try:
            return Instruction(
                ndu_ops=tuple(self.ndu_ops),
                npu=self.npu,
                out=self.out,
                seq=self.seq if self.seq is not None else SeqOp(SeqOpcode.NOP),
                repeat=self.repeat,
            )
        except ValueError as exc:
            raise AssemblyError(str(exc), line_no) from exc


def _parse_statement(stmt: str, pending: _PendingInstruction, line_no: int) -> None:
    """Parse one unit-op statement into the pending instruction."""
    parts = stmt.split(None, 1)
    mnemonic = parts[0].lower()
    rest = parts[1] if len(parts) > 1 else ""
    base, _, suffix = mnemonic.partition(".")
    dtype = None
    if suffix:
        if suffix not in _DTYPE_SUFFIXES:
            raise AssemblyError(f"unknown dtype suffix {suffix!r}", line_no)
        dtype = _DTYPE_SUFFIXES[suffix]

    if base in _SIMPLE_SEQ:
        _set_seq(pending, SeqOp(_SIMPLE_SEQ[base]), line_no)
    elif base in ("setaddr", "addaddr"):
        args = _split_args(rest)
        if len(args) != 2:
            raise AssemblyError(f"{base} expects 'aR, value'", line_no)
        reg = _addr_reg(args[0], base, line_no)
        opcode = SeqOpcode.SET_ADDR if base == "setaddr" else SeqOpcode.ADD_ADDR
        _set_seq(pending, _build_seq(opcode, reg, int(args[1]), line_no), line_no)
    elif base == "loopn":
        count = _check_repeat(int(rest.strip()), "loop trip count", line_no)
        _set_seq(pending, _build_seq(SeqOpcode.LOOP_BEGIN, 0, count, line_no), line_no)
    elif base == "dmastart":
        _set_seq(pending, _build_seq(SeqOpcode.DMA_START, int(rest.strip()), 0, line_no), line_no)
    elif base == "dmawait":
        _set_seq(pending, _build_seq(SeqOpcode.DMA_WAIT, int(rest.strip()), 0, line_no), line_no)
    elif base == "event":
        _set_seq(pending, _build_seq(SeqOpcode.EVENT, int(rest.strip()), 0, line_no), line_no)
    elif base in ("bypass", "rotl", "rotr", "broadcast64", "expand", "merge"):
        pending.ndu_ops.append(_parse_ndu(base, rest, line_no))
    elif base in _NPU_MNEMONICS:
        _set_npu(pending, _parse_npu(base, rest, dtype, line_no), line_no)
    elif base == "requant":
        _set_out(pending, _parse_requant(rest, dtype, line_no), line_no)
    elif base == "store":
        _set_out(pending, _parse_store(rest, dtype, line_no), line_no)
    elif base == "storeacc":
        args = _split_args(rest)
        if len(args) != 1:
            raise AssemblyError("storeacc expects 'aR'", line_no)
        reg = _addr_reg(args[0], "storeacc", line_no)
        _set_out(pending, OutOp(OutOpcode.STORE_ACC, dst_addr_reg=reg), line_no)
    else:
        raise AssemblyError(f"unknown mnemonic {mnemonic!r}", line_no)


def _build_seq(opcode: SeqOpcode, arg: int, arg2: int, line_no: int) -> SeqOp:
    """Construct a SeqOp, converting its ValueError into a located
    AssemblyError (DMA descriptor / address register range checks)."""
    try:
        return SeqOp(opcode, arg, arg2)
    except ValueError as exc:
        raise AssemblyError(str(exc), line_no) from exc


def _set_seq(pending: _PendingInstruction, op: SeqOp, line_no: int) -> None:
    if pending.seq is not None:
        raise AssemblyError("multiple sequencer ops in one instruction", line_no)
    pending.seq = op


def _set_npu(pending: _PendingInstruction, op: NPUOp, line_no: int) -> None:
    if pending.npu is not None:
        raise AssemblyError("multiple NPU ops in one instruction", line_no)
    pending.npu = op


def _set_out(pending: _PendingInstruction, op: OutOp, line_no: int) -> None:
    if pending.out is not None:
        raise AssemblyError("multiple OUT ops in one instruction", line_no)
    pending.out = op


def _ndu_reg(text: str, what: str, line_no: int) -> int:
    match = re.fullmatch(r"n(\d+)", text)
    if match is None:
        raise AssemblyError(f"{what} must be an NDU register 'nD'", line_no)
    return _check_reg(int(match[1]), NUM_NDU_REGS, f"{what} n-register", line_no)


def _parse_ndu(base: str, rest: str, line_no: int) -> NDUOp:
    args = _split_args(rest)
    if not args:
        raise AssemblyError(f"{base} expects an NDU destination register first", line_no)
    dst = _ndu_reg(args[0], f"{base} destination", line_no)
    try:
        if base == "bypass":
            if len(args) != 2:
                raise AssemblyError("bypass expects 'nD, src'", line_no)
            return NDUOp(NDUOpcode.BYPASS, dst, _parse_operand(args[1], line_no))
        if base in ("rotl", "rotr"):
            if len(args) != 3:
                raise AssemblyError(f"{base} expects 'nD, src, amount'", line_no)
            direction = RotateDirection.LEFT if base == "rotl" else RotateDirection.RIGHT
            return NDUOp(
                NDUOpcode.ROTATE,
                dst,
                _parse_operand(args[1], line_no),
                amount=int(args[2]),
                direction=direction,
            )
        if base == "broadcast64":
            if len(args) not in (3, 4):
                raise AssemblyError("broadcast64 expects 'nD, src, aI[, inc]'", line_no)
            index_reg = _addr_reg(args[2], "broadcast64 index", line_no)
            increment = len(args) == 4
            if increment and args[3] != "inc":
                raise AssemblyError(f"unexpected token {args[3]!r}", line_no)
            return NDUOp(
                NDUOpcode.BROADCAST64,
                dst,
                _parse_operand(args[1], line_no),
                index_reg=index_reg,
                index_increment=increment,
            )
        if base == "expand":
            if len(args) != 2:
                raise AssemblyError("expand expects 'nD, src'", line_no)
            return NDUOp(NDUOpcode.EXPAND, dst, _parse_operand(args[1], line_no))
        # merge
        if len(args) != 3:
            raise AssemblyError("merge expects 'nD, src, nMask'", line_no)
        mask = _ndu_reg(args[2], "merge mask", line_no)
        return NDUOp(
            NDUOpcode.MERGE,
            dst,
            _parse_operand(args[1], line_no),
            src2=Operand(OperandKind.NDU_REG, mask),
        )
    except ValueError as exc:
        if isinstance(exc, AssemblyError):
            raise
        raise AssemblyError(str(exc), line_no) from exc


def _parse_npu(
    base: str, rest: str, dtype: NcoreDType | None, line_no: int
) -> NPUOp:
    args = _split_args(rest)
    if len(args) < 2:
        raise AssemblyError(f"{base} expects 'data, weight[, flags...]'", line_no)
    data_text = args[0]
    data_shift = 0
    if ">>" in data_text:
        data_text, _, shift_text = data_text.partition(">>")
        data_shift = int(shift_text.strip())
    data = _parse_operand(data_text, line_no)
    weight = _parse_operand(args[1], line_no)
    accumulate, zero_offset, from_neighbor, predicate = True, False, False, None
    for flag in args[2:]:
        flag = flag.lower()
        if flag == "noacc":
            accumulate = False
        elif flag == "zoff":
            zero_offset = True
        elif flag == "neighbor":
            from_neighbor = True
        elif re.fullmatch(r"pred\d+", flag):
            predicate = _check_reg(
                int(flag[4:]), NUM_PRED_REGS, "predicate register", line_no
            )
        else:
            raise AssemblyError(f"unknown NPU flag {flag!r}", line_no)
    try:
        return NPUOp(
            _NPU_MNEMONICS[base],
            data,
            weight,
            accumulate=accumulate,
            data_shift=data_shift,
            zero_offset=zero_offset,
            from_neighbor=from_neighbor,
            predicate=predicate,
            dtype=dtype if dtype is not None else NcoreDType.INT8,
        )
    except ValueError as exc:
        raise AssemblyError(str(exc), line_no) from exc


def _parse_requant(rest: str, dtype: NcoreDType | None, line_no: int) -> OutOp:
    args = _split_args(rest)
    activation = Activation.NONE
    if args:
        if len(args) != 1 or args[0].lower() not in _ACT_NAMES:
            raise AssemblyError(f"requant expects an optional activation, got {args}", line_no)
        activation = _ACT_NAMES[args[0].lower()]
    return OutOp(
        OutOpcode.REQUANT,
        activation=activation,
        dtype=dtype if dtype is not None else NcoreDType.INT8,
    )


def _parse_store(rest: str, dtype: NcoreDType | None, line_no: int) -> OutOp:
    args = _split_args(rest)
    if not args:
        raise AssemblyError("store expects 'aR[, inc][, high]'", line_no)
    reg = _addr_reg(args[0], "store", line_no)
    increment = "inc" in [a.lower() for a in args[1:]]
    high = "high" in [a.lower() for a in args[1:]]
    for extra in args[1:]:
        if extra.lower() not in ("inc", "high"):
            raise AssemblyError(f"unknown store flag {extra!r}", line_no)
    return OutOp(
        OutOpcode.STORE,
        dst_addr_reg=reg,
        dst_increment=increment,
        source_high=high,
        dtype=dtype if dtype is not None else NcoreDType.INT8,
    )


def assemble(source: str) -> list[Instruction]:
    """Assemble source text into a list of instructions."""
    instructions: list[Instruction] = []
    fused: _PendingInstruction | None = None
    fused_start_line = 0
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue
        loop_match = re.fullmatch(r"loop\s+(\d+)\s*\{", line)
        if loop_match:
            if fused is not None:
                raise AssemblyError("nested fused loops are not supported", line_no)
            repeat = _check_repeat(int(loop_match[1]), "repeat count", line_no)
            fused = _PendingInstruction(repeat=repeat)
            fused_start_line = line_no
            continue
        if line == "}":
            if fused is None:
                raise AssemblyError("unmatched '}'", line_no)
            instructions.append(fused.build(fused_start_line))
            fused = None
            continue
        target = fused if fused is not None else _PendingInstruction()
        for stmt in line.split("|"):
            stmt = stmt.strip()
            if stmt:
                _parse_statement(stmt, target, line_no)
        if fused is None:
            instructions.append(target.build(line_no))
    if fused is not None:
        raise AssemblyError("unterminated fused loop block", fused_start_line)
    return instructions


def _format_ndu(op: NDUOp) -> str:
    if op.opcode is NDUOpcode.BYPASS:
        return f"bypass n{op.dst}, {op.src}"
    if op.opcode is NDUOpcode.ROTATE:
        mnem = "rotl" if op.direction is RotateDirection.LEFT else "rotr"
        return f"{mnem} n{op.dst}, {op.src}, {op.amount}"
    if op.opcode is NDUOpcode.BROADCAST64:
        inc = ", inc" if op.index_increment else ""
        return f"broadcast64 n{op.dst}, {op.src}, a{op.index_reg}{inc}"
    if op.opcode is NDUOpcode.EXPAND:
        return f"expand n{op.dst}, {op.src}"
    return f"merge n{op.dst}, {op.src}, n{op.src2.index}"


def _format_npu(op: NPUOp) -> str:
    mnem = {v: k for k, v in _NPU_MNEMONICS.items()}[op.opcode]
    if op.dtype is not NcoreDType.INT8:
        mnem += f".{op.dtype.value}"
    data = str(op.data)
    if op.data_shift:
        data += f">>{op.data_shift}"
    flags = []
    if not op.accumulate:
        flags.append("noacc")
    if op.zero_offset:
        flags.append("zoff")
    if op.from_neighbor:
        flags.append("neighbor")
    if op.predicate is not None:
        flags.append(f"pred{op.predicate}")
    tail = (", " + ", ".join(flags)) if flags else ""
    return f"{mnem} {data}, {op.weight}{tail}"


def _format_out(op: OutOp) -> str:
    if op.opcode is OutOpcode.REQUANT:
        suffix = "" if op.dtype is NcoreDType.INT8 else f".{op.dtype.value}"
        act = "" if op.activation is Activation.NONE else f" {op.activation.value}"
        return f"requant{suffix}{act}"
    if op.opcode is OutOpcode.STORE_ACC:
        return f"storeacc a{op.dst_addr_reg}"
    suffix = "" if op.dtype is NcoreDType.INT8 else f".{op.dtype.value}"
    flags = []
    if op.dst_increment:
        flags.append("inc")
    if op.source_high:
        flags.append("high")
    tail = (", " + ", ".join(flags)) if flags else ""
    return f"store{suffix} a{op.dst_addr_reg}{tail}"


def _format_seq(op: SeqOp) -> str | None:
    if op.opcode is SeqOpcode.NOP:
        return None
    if op.opcode is SeqOpcode.SET_ADDR:
        return f"setaddr a{op.arg}, {op.arg2}"
    if op.opcode is SeqOpcode.ADD_ADDR:
        return f"addaddr a{op.arg}, {op.arg2}"
    if op.opcode is SeqOpcode.LOOP_BEGIN:
        return f"loopn {op.arg2}"
    if op.opcode is SeqOpcode.DMA_START:
        return f"dmastart {op.arg}"
    if op.opcode is SeqOpcode.DMA_WAIT:
        return f"dmawait {op.arg}"
    if op.opcode is SeqOpcode.EVENT:
        return f"event {op.arg}"
    return {SeqOpcode.HALT: "halt", SeqOpcode.LOOP_END: "endloop", SeqOpcode.BREAK: "break"}[
        op.opcode
    ]


def disassemble(instructions: list[Instruction]) -> str:
    """Produce canonical assembly text that re-assembles to the same program."""
    lines = []
    for instruction in instructions:
        statements = [_format_ndu(op) for op in instruction.ndu_ops]
        if instruction.npu is not None:
            statements.append(_format_npu(instruction.npu))
        if instruction.out is not None:
            statements.append(_format_out(instruction.out))
        seq_text = _format_seq(instruction.seq)
        if seq_text is not None:
            statements.append(seq_text)
        if not statements:
            statements = ["nop"]
        if instruction.repeat > 1:
            lines.append(f"loop {instruction.repeat} {{")
            lines.extend(f"  {stmt}" for stmt in statements)
            lines.append("}")
        else:
            lines.append(" | ".join(statements))
    return "\n".join(lines) + "\n"
