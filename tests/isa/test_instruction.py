"""Tests for instruction and operand validation."""

import pytest

from repro.dtypes import NcoreDType
from repro.isa import (
    Instruction,
    NDUOp,
    NDUOpcode,
    NPUOp,
    NPUOpcode,
    Operand,
    OperandKind,
    SeqOp,
    SeqOpcode,
)
from tests.helpers import data_ram, immediate, ndu_reg, weight_ram


class TestOperand:
    def test_ram_operand_str(self):
        assert str(data_ram(3)) == "dram[a3]"
        assert str(weight_ram(1, increment=True)) == "wtram[a1++]"

    def test_ndu_reg_str(self):
        assert str(ndu_reg(2)) == "n2"

    def test_immediate_range(self):
        assert immediate(63).index == 63
        with pytest.raises(ValueError):
            immediate(64)

    def test_addr_reg_range(self):
        with pytest.raises(ValueError):
            data_ram(8)

    def test_increment_only_on_ram(self):
        with pytest.raises(ValueError):
            Operand(OperandKind.NDU_REG, 0, increment=True)

    def test_ndu_reg_range(self):
        with pytest.raises(ValueError):
            ndu_reg(4)


class TestNDUOp:
    def test_rotate_amount_limit(self):
        # NDU rotation moves at most 64 bytes per clock (section IV-D.3).
        NDUOp(NDUOpcode.ROTATE, 0, ndu_reg(0), amount=64)
        with pytest.raises(ValueError):
            NDUOp(NDUOpcode.ROTATE, 0, ndu_reg(0), amount=65)

    def test_merge_needs_mask(self):
        with pytest.raises(ValueError):
            NDUOp(NDUOpcode.MERGE, 0, data_ram(0))

    def test_dst_range(self):
        with pytest.raises(ValueError):
            NDUOp(NDUOpcode.BYPASS, 4, data_ram(0))


class TestNPUOp:
    def test_shift_is_two_bits(self):
        with pytest.raises(ValueError):
            NPUOp(NPUOpcode.MAC, ndu_reg(0), weight_ram(0), data_shift=4)

    def test_predicate_range(self):
        with pytest.raises(ValueError):
            NPUOp(NPUOpcode.MAC, ndu_reg(0), weight_ram(0), predicate=8)


class TestInstruction:
    def test_at_most_three_ndu_ops(self):
        # "up to three (typically two) of these operations in parallel".
        ops = tuple(NDUOp(NDUOpcode.BYPASS, i, data_ram(0)) for i in range(4))
        Instruction(ndu_ops=ops[:3])
        with pytest.raises(ValueError):
            Instruction(ndu_ops=ops)

    def test_parallel_ndu_writes_distinct_registers(self):
        ops = (
            NDUOp(NDUOpcode.BYPASS, 0, data_ram(0)),
            NDUOp(NDUOpcode.BYPASS, 0, weight_ram(0)),
        )
        with pytest.raises(ValueError):
            Instruction(ndu_ops=ops)

    def test_repeat_bounds(self):
        with pytest.raises(ValueError):
            Instruction(repeat=0)

    def test_halt_property(self):
        assert Instruction(seq=SeqOp(SeqOpcode.HALT)).is_halt
        assert not Instruction().is_halt


class TestCycleCounts:
    def _mac(self, dtype):
        return Instruction(
            npu=NPUOp(NPUOpcode.MAC, ndu_reg(0), weight_ram(0), dtype=dtype)
        )

    def test_int8_single_cycle(self):
        assert self._mac(NcoreDType.INT8).issue_cycles() == 1

    def test_bf16_three_cycles(self):
        assert self._mac(NcoreDType.BF16).issue_cycles() == 3

    def test_int16_four_cycles(self):
        assert self._mac(NcoreDType.INT16).issue_cycles() == 4

    def test_non_npu_instruction_single_cycle(self):
        assert Instruction(seq=SeqOp(SeqOpcode.EVENT, 3)).issue_cycles() == 1

    def test_repeat_multiplies(self):
        inst = Instruction(
            npu=NPUOp(NPUOpcode.MAC, ndu_reg(0), weight_ram(0), dtype=NcoreDType.INT16),
            repeat=10,
        )
        assert inst.total_cycles() == 40

    def test_fig6_inner_loop_one_cycle_per_iteration(self):
        # The Fig. 6 convolution inner loop: broadcast + MAC + rotate fused
        # into a single int8 instruction -> one clock per iteration.
        inst = Instruction(
            ndu_ops=(
                NDUOp(
                    NDUOpcode.BROADCAST64,
                    1,
                    weight_ram(3),
                    index_reg=5,
                    index_increment=True,
                ),
                NDUOp(NDUOpcode.ROTATE, 0, ndu_reg(0), amount=64),
            ),
            npu=NPUOp(
                NPUOpcode.MAC,
                Operand(OperandKind.DLAST),
                ndu_reg(1),
                data_shift=1,
            ),
            repeat=3,
        )
        assert inst.issue_cycles() == 1
        assert inst.total_cycles() == 3


class TestSeqOp:
    def test_set_addr_validates_register(self):
        with pytest.raises(ValueError):
            SeqOp(SeqOpcode.SET_ADDR, 9, 0)

    def test_loop_needs_positive_count(self):
        with pytest.raises(ValueError):
            SeqOp(SeqOpcode.LOOP_BEGIN, 0, 0)
        SeqOp(SeqOpcode.LOOP_BEGIN, 0, 1)

    def test_dma_descriptor_range(self):
        with pytest.raises(ValueError):
            SeqOp(SeqOpcode.DMA_START, 8)
