"""Tests for the 128-bit instruction encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analyze import RULES, analyze_program
from repro.dtypes import NcoreDType
from repro.isa import (
    AssemblyError,
    EncodingError,
    Instruction,
    NDUOp,
    NDUOpcode,
    NPUOp,
    NPUOpcode,
    Operand,
    OperandKind,
    OutOp,
    OutOpcode,
    SeqOp,
    SeqOpcode,
    assemble,
    decode,
    encode,
)
from repro.isa.encoding import INSTRUCTION_BYTES
from repro.isa.instruction import MAX_REPEAT, Activation, RotateDirection
from repro.ncore import Ncore
from tests.helpers import by_rule, catalog_kinds, data_ram, ndu_reg, weight_ram


def test_word_is_exactly_128_bits():
    # Section IV-D.1: Ncore instructions are 128 bits wide.
    assert INSTRUCTION_BYTES == 16
    assert len(encode(Instruction())) == 16


def test_simple_round_trips():
    cases = [
        Instruction(),
        Instruction(seq=SeqOp(SeqOpcode.HALT)),
        Instruction(seq=SeqOp(SeqOpcode.SET_ADDR, 3, 1024)),
        Instruction(seq=SeqOp(SeqOpcode.ADD_ADDR, 2, -7)),
        Instruction(seq=SeqOp(SeqOpcode.LOOP_BEGIN, 0, 100)),
        Instruction(seq=SeqOp(SeqOpcode.DMA_START, 5)),
        Instruction(repeat=2048),
        Instruction(
            npu=NPUOp(
                NPUOpcode.MAC,
                Operand(OperandKind.DLAST),
                ndu_reg(1),
                data_shift=1,
                zero_offset=True,
                dtype=NcoreDType.BF16,
            )
        ),
        Instruction(out=OutOp(OutOpcode.REQUANT, Activation.RELU)),
        Instruction(
            out=OutOp(OutOpcode.STORE, dst_addr_reg=6, dst_increment=True)
        ),
    ]
    for inst in cases:
        assert decode(encode(inst)) == inst


def test_three_ndu_ops_round_trip():
    inst = Instruction(
        ndu_ops=(
            NDUOp(NDUOpcode.BYPASS, 0, data_ram(0, True)),
            NDUOp(NDUOpcode.ROTATE, 1, ndu_reg(1), amount=64),
            NDUOp(
                NDUOpcode.BROADCAST64,
                2,
                weight_ram(3),
                index_reg=5,
                index_increment=True,
            ),
        )
    )
    assert decode(encode(inst)) == inst


def test_merge_round_trip():
    inst = Instruction(
        ndu_ops=(
            NDUOp(NDUOpcode.MERGE, 0, data_ram(1), src2=ndu_reg(2)),
        )
    )
    assert decode(encode(inst)) == inst


def test_three_ndu_plus_out_is_unencodable():
    # The dense (3-NDU) mode shares encoding space with the OUT fields.
    inst = Instruction(
        ndu_ops=tuple(NDUOp(NDUOpcode.BYPASS, i, data_ram(i)) for i in range(3)),
        out=OutOp(OutOpcode.REQUANT),
    )
    with pytest.raises(EncodingError):
        encode(inst)


def test_rotate_zero_unencodable():
    inst = Instruction(ndu_ops=(NDUOp(NDUOpcode.ROTATE, 0, ndu_reg(0), amount=0),))
    with pytest.raises(EncodingError):
        encode(inst)


def test_repeat_overflow_unencodable():
    inst = Instruction()
    object.__setattr__(inst, "repeat", MAX_REPEAT + 1)  # past Instruction's own check
    with pytest.raises(EncodingError):
        encode(inst)


def test_one_repeat_limit_is_the_encoded_field():
    # Whatever the Instruction check, the assembler and the isa.repeat
    # rule accept, the 128-bit word holds.
    encode(Instruction(repeat=MAX_REPEAT))
    with pytest.raises(ValueError, match="outside 1..2048"):
        Instruction(repeat=MAX_REPEAT + 1)
    with pytest.raises(AssemblyError, match="4000 outside 1..2048"):
        assemble("loop 4000 {\n mac.uint8 dram[a0], wtram[a1]\n}\nhalt")
    forged = Instruction()
    object.__setattr__(forged, "repeat", 4000)
    assert by_rule(analyze_program([forged]), "isa.repeat")
    # The rule's title names the width of that field: repeat - 1 in 11 bits.
    assert MAX_REPEAT == 1 << 11
    assert RULES["isa.repeat"].title == "repeat count outside the 11-bit field"


def test_predicate_seven_unencodable():
    inst = Instruction(
        npu=NPUOp(NPUOpcode.MAC, ndu_reg(0), weight_ram(0), predicate=7)
    )
    with pytest.raises(EncodingError):
        encode(inst)


def test_npu_immediate_operand_unencodable():
    inst = Instruction(
        npu=NPUOp(NPUOpcode.MAC, Operand(OperandKind.IMMEDIATE, 5), weight_ram(0))
    )
    with pytest.raises(EncodingError):
        encode(inst)


def test_wrong_length_rejected():
    with pytest.raises(EncodingError):
        decode(b"\x00" * 15)


# ---------------------------------------------------------------------------
# Property-based round-trip over randomly generated valid instructions.
# ---------------------------------------------------------------------------

_ram_operand = st.builds(
    Operand,
    kind=st.sampled_from([OperandKind.DATA_RAM, OperandKind.WEIGHT_RAM]),
    index=st.integers(0, 7),
    increment=st.booleans(),
)
_reg_operand = st.builds(Operand, kind=st.just(OperandKind.NDU_REG), index=st.integers(0, 3))
_misc_operand = st.builds(
    Operand,
    kind=st.sampled_from(
        [OperandKind.DLAST, OperandKind.ZERO, OperandKind.OUT_LOW, OperandKind.OUT_HIGH]
    ),
)
_npu_operand = st.one_of(_ram_operand, _reg_operand, _misc_operand)
_ndu_src = st.one_of(
    _npu_operand,
    st.builds(Operand, kind=st.just(OperandKind.IMMEDIATE), index=st.integers(0, 63)),
)


@st.composite
def _ndu_ops(draw, dst):
    opcode = draw(st.sampled_from(list(NDUOpcode)))
    src = draw(_ndu_src)
    if opcode is NDUOpcode.ROTATE:
        return NDUOp(
            opcode,
            dst,
            src,
            amount=draw(st.integers(1, 64)),
            direction=draw(st.sampled_from(list(RotateDirection))),
        )
    if opcode is NDUOpcode.BROADCAST64:
        return NDUOp(
            opcode,
            dst,
            src,
            index_reg=draw(st.integers(0, 7)),
            index_increment=draw(st.booleans()),
        )
    if opcode is NDUOpcode.MERGE:
        return NDUOp(opcode, dst, src, src2=draw(_reg_operand))
    return NDUOp(opcode, dst, src)


_npu_op = st.builds(
    NPUOp,
    opcode=st.sampled_from([op for op in NPUOpcode if op is not NPUOpcode.NOP]),
    data=_npu_operand,
    weight=_npu_operand,
    accumulate=st.booleans(),
    data_shift=st.integers(0, 3),
    zero_offset=st.booleans(),
    from_neighbor=st.booleans(),
    predicate=st.one_of(st.none(), st.integers(0, 6)),
    dtype=st.sampled_from(list(NcoreDType)),
)

_out_op = st.builds(
    OutOp,
    opcode=st.sampled_from([op for op in OutOpcode if op is not OutOpcode.NOP]),
    activation=st.sampled_from(list(Activation)),
    dst_addr_reg=st.integers(0, 7),
    dst_increment=st.booleans(),
    source_high=st.booleans(),
    dtype=st.sampled_from(list(NcoreDType)),
)


@st.composite
def _seq_ops(draw):
    opcode = draw(st.sampled_from(list(SeqOpcode)))
    if opcode in (SeqOpcode.SET_ADDR, SeqOpcode.ADD_ADDR):
        return SeqOp(opcode, draw(st.integers(0, 7)), draw(st.integers(-1024, 1023)))
    if opcode is SeqOpcode.LOOP_BEGIN:
        return SeqOp(opcode, 0, draw(st.integers(1, 1023)))
    if opcode is SeqOpcode.DMA_START:
        return SeqOp(opcode, draw(st.integers(0, 7)))
    if opcode is SeqOpcode.DMA_WAIT:
        # Engine groups above 3 are invalid encodings and raise at construction.
        return SeqOp(opcode, draw(st.integers(0, 3)))
    if opcode is SeqOpcode.EVENT:
        return SeqOp(opcode, draw(st.integers(0, 15)))
    return SeqOp(opcode)


@st.composite
def _instructions(draw):
    n_ndu = draw(st.integers(0, 3))
    dsts = draw(
        st.lists(st.integers(0, 3), min_size=n_ndu, max_size=n_ndu, unique=True)
    )
    ndu = tuple(draw(_ndu_ops(dst)) for dst in dsts)
    out = None if n_ndu == 3 else draw(st.one_of(st.none(), _out_op))
    return Instruction(
        ndu_ops=ndu,
        npu=draw(st.one_of(st.none(), _npu_op)),
        out=out,
        seq=draw(_seq_ops()),
        repeat=draw(st.integers(1, 2048)),
    )


@given(_instructions())
def test_encode_decode_round_trip(instruction):
    word = encode(instruction)
    assert len(word) == 16
    assert decode(word) == instruction


@given(_instructions())
def test_encoding_is_deterministic(instruction):
    assert encode(instruction) == encode(instruction)


@pytest.mark.parametrize("kind", catalog_kinds(), ids=lambda kind: kind.name)
def test_catalog_programs_round_trip(kind):
    # Every word the NKL catalog emits fits the 128-bit word.
    program, _ = kind.emit(Ncore())
    for pc, inst in enumerate(program):
        assert decode(encode(inst)) == inst, (kind.name, pc)
