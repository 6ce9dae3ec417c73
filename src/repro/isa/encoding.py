"""Bit-exact 128-bit encoding of Ncore instructions.

The paper states instructions are 128 bits wide (section IV-D.1) but does
not publish the field layout, so this module defines a concrete one that
fits the documented architecture into exactly 128 bits.  Field pressure is
resolved the way dense VLIW encodings usually are, with one union:

- *mode 0*: an optional OUT-unit op plus up to two NDU ops — the "typically
  two" case from section IV-D.3;
- *mode 1*: three NDU ops and no OUT op.

A handful of encodings are intentionally impossible and raise
:class:`EncodingError` (three NDU ops together with an OUT op, rotate
amounts outside 1..64, predicate register 7); the kernel library never
emits them.  The repeat field's width is ``MAX_REPEAT``, which
:class:`~repro.isa.instruction.Instruction` already enforces.

Layout (bit 0 = LSB of the 128-bit little-endian word)::

    [  0: 4] seq.opcode            [ 31:60] NPU op (29 bits)
    [  4: 8] seq.arg               [ 60:61] union mode
    [  8:20] seq.arg2 (signed)     [ 61:..] mode 0: OUT op + 2x NDU op
    [ 20:31] repeat - 1                     mode 1: 3x NDU op
"""

from __future__ import annotations

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
from repro.isa.operands import Operand, OperandKind

INSTRUCTION_BITS = 128
INSTRUCTION_BYTES = INSTRUCTION_BITS // 8

# Operand-kind code tables (3-bit fields).
_NDU_SRC_KINDS = (
    OperandKind.DATA_RAM,
    OperandKind.WEIGHT_RAM,
    OperandKind.IMMEDIATE,
    OperandKind.NDU_REG,
    OperandKind.OUT_LOW,
    OperandKind.OUT_HIGH,
    OperandKind.DLAST,
    OperandKind.ZERO,
)
_NPU_OPERAND_KINDS = (
    OperandKind.DATA_RAM,
    OperandKind.WEIGHT_RAM,
    OperandKind.NDU_REG,
    OperandKind.DLAST,
    OperandKind.ZERO,
    OperandKind.OUT_LOW,
    OperandKind.OUT_HIGH,
)

_SEQ_OPCODES = tuple(SeqOpcode)
_NPU_OPCODES = tuple(NPUOpcode)
_NDU_OPCODES = tuple(NDUOpcode)
_OUT_OPCODES = tuple(OutOpcode)
_ACTIVATIONS = tuple(Activation)
_DTYPES = (NcoreDType.INT8, NcoreDType.UINT8, NcoreDType.INT16, NcoreDType.BF16)

MAX_SEQ_ARG = (1 << 4) - 1
MAX_SEQ_ARG2 = (1 << 11) - 1         # arg2 is a 12-bit signed field
MIN_SEQ_ARG2 = -(1 << 11)


class EncodingError(ValueError):
    """Raised when an instruction has no 128-bit encoding."""


class _BitWriter:
    """Accumulates fields LSB-first into one big integer."""

    def __init__(self) -> None:
        self.value = 0
        self.position = 0

    def write(self, value: int, width: int, what: str) -> None:
        if not 0 <= value < (1 << width):
            raise EncodingError(f"{what} value {value} does not fit in {width} bits")
        self.value |= value << self.position
        self.position += width

    def write_signed(self, value: int, width: int, what: str) -> None:
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        if not lo <= value <= hi:
            raise EncodingError(f"{what} value {value} outside [{lo}, {hi}]")
        self.write(value & ((1 << width) - 1), width, what)

    def pad_to(self, position: int) -> None:
        if self.position > position:
            raise AssertionError("encoding overflowed its field budget")
        self.position = position


class _BitReader:
    """Reads fields LSB-first from one big integer."""

    def __init__(self, value: int) -> None:
        self.value = value
        self.position = 0

    def read(self, width: int) -> int:
        out = (self.value >> self.position) & ((1 << width) - 1)
        self.position += width
        return out

    def read_signed(self, width: int) -> int:
        raw = self.read(width)
        if raw >= 1 << (width - 1):
            raw -= 1 << width
        return raw

    def seek(self, position: int) -> None:
        self.position = position


def _encode_operand(
    w: _BitWriter, operand: Operand, kinds: tuple[OperandKind, ...], what: str
) -> None:
    try:
        code = kinds.index(operand.kind)
    except ValueError:
        raise EncodingError(f"{what} cannot source from {operand.kind.name}") from None
    w.write(code, 3, f"{what} kind")
    w.write(operand.index, 6, f"{what} index")
    w.write(int(operand.increment), 1, f"{what} increment")


def _decode_operand(r: _BitReader, kinds: tuple[OperandKind, ...]) -> Operand:
    kind = kinds[r.read(3) % len(kinds)]
    index = r.read(6)
    increment = bool(r.read(1))
    return Operand(kind, index, increment)


def _encode_ndu(w: _BitWriter, op: NDUOp) -> None:
    w.write(_NDU_OPCODES.index(op.opcode), 3, "NDU opcode")
    w.write(op.dst, 2, "NDU dst")
    _encode_operand(w, op.src, _NDU_SRC_KINDS, "NDU src")
    # 7-bit variant field, meaning depends on the opcode.
    if op.opcode is NDUOpcode.ROTATE:
        if not 1 <= op.amount <= 64:
            raise EncodingError(f"rotate amount {op.amount} not encodable (1..64)")
        w.write(int(op.direction is RotateDirection.RIGHT), 1, "rotate direction")
        w.write(op.amount - 1, 6, "rotate amount")
    elif op.opcode is NDUOpcode.BROADCAST64:
        w.write(op.index_reg, 3, "broadcast index reg")
        w.write(int(op.index_increment), 1, "broadcast increment")
        w.write(0, 3, "pad")
    elif op.opcode is NDUOpcode.MERGE:
        if op.src2 is None or op.src2.kind is not OperandKind.NDU_REG:
            raise EncodingError("merge mask must be an NDU register")
        w.write(op.src2.index, 2, "merge mask reg")
        w.write(0, 5, "pad")
    else:
        w.write(0, 7, "pad")


def _decode_ndu(r: _BitReader) -> NDUOp:
    opcode = _NDU_OPCODES[r.read(3) % len(_NDU_OPCODES)]
    dst = r.read(2)
    src = _decode_operand(r, _NDU_SRC_KINDS)
    if opcode is NDUOpcode.ROTATE:
        direction = RotateDirection.RIGHT if r.read(1) else RotateDirection.LEFT
        amount = r.read(6) + 1
        return NDUOp(opcode, dst, src, amount=amount, direction=direction)
    if opcode is NDUOpcode.BROADCAST64:
        index_reg = r.read(3)
        index_increment = bool(r.read(1))
        r.read(3)
        return NDUOp(
            opcode, dst, src, index_reg=index_reg, index_increment=index_increment
        )
    if opcode is NDUOpcode.MERGE:
        mask = Operand(OperandKind.NDU_REG, r.read(2))
        r.read(5)
        return NDUOp(opcode, dst, src, src2=mask)
    r.read(7)
    return NDUOp(opcode, dst, src)


def _encode_npu(w: _BitWriter, op: NPUOp | None) -> None:
    w.write(int(op is not None), 1, "NPU present")
    if op is None:
        w.pad_to(w.position + 28)
        return
    w.write(_NPU_OPCODES.index(op.opcode), 4, "NPU opcode")
    _encode_operand_narrow(w, op.data, "NPU data")
    w.write(op.data_shift, 2, "NPU data shift")
    _encode_operand_narrow(w, op.weight, "NPU weight")
    w.write(int(op.accumulate), 1, "NPU accumulate")
    w.write(int(op.zero_offset), 1, "NPU zero offset")
    w.write(int(op.from_neighbor), 1, "NPU neighbor")
    if op.predicate is not None and op.predicate >= 7:
        raise EncodingError("predicate register 7 is not encodable")
    w.write(0 if op.predicate is None else op.predicate + 1, 3, "NPU predicate")
    w.write(_DTYPES.index(op.dtype), 2, "NPU dtype")


def _encode_operand_narrow(w: _BitWriter, operand: Operand, what: str) -> None:
    """NPU operands use a 3-bit index field (registers only, no immediates)."""
    try:
        code = _NPU_OPERAND_KINDS.index(operand.kind)
    except ValueError:
        raise EncodingError(f"{what} cannot source from {operand.kind.name}") from None
    w.write(code, 3, f"{what} kind")
    w.write(operand.index, 3, f"{what} index")
    w.write(int(operand.increment), 1, f"{what} increment")


def _decode_operand_narrow(r: _BitReader) -> Operand:
    kind = _NPU_OPERAND_KINDS[r.read(3) % len(_NPU_OPERAND_KINDS)]
    index = r.read(3)
    increment = bool(r.read(1))
    return Operand(kind, index, increment)


def _decode_npu(r: _BitReader) -> NPUOp | None:
    start = r.position
    if not r.read(1):
        r.seek(start + 29)
        return None
    opcode = _NPU_OPCODES[r.read(4) % len(_NPU_OPCODES)]
    data = _decode_operand_narrow(r)
    data_shift = r.read(2)
    weight = _decode_operand_narrow(r)
    accumulate = bool(r.read(1))
    zero_offset = bool(r.read(1))
    from_neighbor = bool(r.read(1))
    pred_raw = r.read(3)
    dtype = _DTYPES[r.read(2)]
    return NPUOp(
        opcode,
        data,
        weight,
        accumulate=accumulate,
        data_shift=data_shift,
        zero_offset=zero_offset,
        from_neighbor=from_neighbor,
        predicate=None if pred_raw == 0 else pred_raw - 1,
        dtype=dtype,
    )


def _encode_out(w: _BitWriter, op: OutOp | None) -> None:
    w.write(int(op is not None), 1, "OUT present")
    if op is None:
        w.pad_to(w.position + 12)
        return
    w.write(_OUT_OPCODES.index(op.opcode), 2, "OUT opcode")
    w.write(_ACTIVATIONS.index(op.activation), 3, "OUT activation")
    w.write(op.dst_addr_reg, 3, "OUT dst reg")
    w.write(int(op.dst_increment), 1, "OUT dst increment")
    w.write(int(op.source_high), 1, "OUT high")
    w.write(_DTYPES.index(op.dtype), 2, "OUT dtype")


def _decode_out(r: _BitReader) -> OutOp | None:
    start = r.position
    if not r.read(1):
        r.seek(start + 13)
        return None
    opcode = _OUT_OPCODES[r.read(2) % len(_OUT_OPCODES)]
    activation = _ACTIVATIONS[r.read(3) % len(_ACTIVATIONS)]
    dst_addr_reg = r.read(3)
    dst_increment = bool(r.read(1))
    source_high = bool(r.read(1))
    dtype = _DTYPES[r.read(2)]
    return OutOp(opcode, activation, dst_addr_reg, dst_increment, source_high, dtype)


def encode(instruction: Instruction) -> bytes:
    """Encode an instruction into its 16-byte little-endian word."""
    w = _BitWriter()
    seq = instruction.seq
    w.write(_SEQ_OPCODES.index(seq.opcode), 4, "seq opcode")
    w.write(seq.arg, 4, "seq arg")
    w.write_signed(seq.arg2, 12, "seq arg2")
    w.write(instruction.repeat - 1, 11, "repeat")  # 1..MAX_REPEAT
    _encode_npu(w, instruction.npu)
    assert w.position == 60
    ndu_ops = instruction.ndu_ops
    if len(ndu_ops) == 3:
        if instruction.out is not None:
            raise EncodingError(
                "three NDU ops and an OUT op cannot issue in the same instruction"
            )
        w.write(1, 1, "union mode")
        for op in ndu_ops:
            _encode_ndu(w, op)
    else:
        w.write(0, 1, "union mode")
        _encode_out(w, instruction.out)
        for op in ndu_ops:
            w.write(1, 1, "NDU present")
            _encode_ndu(w, op)
        for _ in range(2 - len(ndu_ops)):
            w.write(0, 1, "NDU present")
            w.pad_to(w.position + 22)
    if w.position > INSTRUCTION_BITS:
        raise AssertionError(f"encoding used {w.position} bits")  # pragma: no cover
    return w.value.to_bytes(INSTRUCTION_BYTES, "little")


def decode(word: bytes) -> Instruction:
    """Decode a 16-byte word back into an :class:`Instruction`."""
    if len(word) != INSTRUCTION_BYTES:
        raise EncodingError(f"instruction words are {INSTRUCTION_BYTES} bytes")
    r = _BitReader(int.from_bytes(word, "little"))
    seq_opcode = _SEQ_OPCODES[r.read(4) % len(_SEQ_OPCODES)]
    seq_arg = r.read(4)
    seq_arg2 = r.read_signed(12)
    repeat = r.read(11) + 1
    npu = _decode_npu(r)
    assert r.position == 60
    ndu_ops: list[NDUOp] = []
    out = None
    if r.read(1):  # mode 1: three NDU ops
        for _ in range(3):
            ndu_ops.append(_decode_ndu(r))
    else:
        out = _decode_out(r)
        for _ in range(2):
            if r.read(1):
                ndu_ops.append(_decode_ndu(r))
            else:
                r.seek(r.position + 22)
    return Instruction(
        ndu_ops=tuple(ndu_ops),
        npu=npu,
        out=out,
        seq=SeqOp(seq_opcode, seq_arg, seq_arg2),
        repeat=repeat,
    )
