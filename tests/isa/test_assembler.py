"""Tests for the Ncore assembler / disassembler."""

import pytest
from hypothesis import assume, given

from repro.dtypes import NcoreDType
from repro.isa import (
    AssemblyError,
    NDUOpcode,
    NPUOpcode,
    OperandKind,
    OutOpcode,
    SeqOpcode,
    assemble,
    disassemble,
)
from tests.isa.test_encoding import _instructions


class TestBasicStatements:
    def test_halt(self):
        (inst,) = assemble("halt")
        assert inst.is_halt

    def test_comments_ignored(self):
        program = assemble("; comment only\n\nhalt ; trailing\n")
        assert len(program) == 1

    def test_setaddr(self):
        (inst,) = assemble("setaddr a3, 100")
        assert inst.seq.opcode is SeqOpcode.SET_ADDR
        assert inst.seq.arg == 3
        assert inst.seq.arg2 == 100

    def test_addaddr_negative(self):
        (inst,) = assemble("addaddr a0, -5")
        assert inst.seq.arg2 == -5

    def test_loopn_endloop(self):
        begin, end = assemble("loopn 16\nendloop")
        assert begin.seq.opcode is SeqOpcode.LOOP_BEGIN
        assert begin.seq.arg2 == 16
        assert end.seq.opcode is SeqOpcode.LOOP_END

    def test_dma_ops(self):
        start, wait = assemble("dmastart 2\ndmawait 3")
        assert start.seq.opcode is SeqOpcode.DMA_START
        assert start.seq.arg == 2
        assert wait.seq.opcode is SeqOpcode.DMA_WAIT

    def test_event(self):
        (inst,) = assemble("event 9")
        assert inst.seq.opcode is SeqOpcode.EVENT
        assert inst.seq.arg == 9


class TestNDUStatements:
    def test_bypass_with_increment(self):
        (inst,) = assemble("bypass n0, dram[a2++]")
        op = inst.ndu_ops[0]
        assert op.opcode is NDUOpcode.BYPASS
        assert op.src.kind is OperandKind.DATA_RAM
        assert op.src.increment

    def test_rotate_directions(self):
        left, right = assemble("rotl n1, n1, 64\nrotr n2, n2, 8")
        assert left.ndu_ops[0].amount == 64
        assert right.ndu_ops[0].amount == 8

    def test_broadcast64(self):
        (inst,) = assemble("broadcast64 n1, wtram[a3], a5, inc")
        op = inst.ndu_ops[0]
        assert op.opcode is NDUOpcode.BROADCAST64
        assert op.index_reg == 5
        assert op.index_increment

    def test_merge(self):
        (inst,) = assemble("merge n0, dram[a1], n2")
        assert inst.ndu_ops[0].src2.index == 2

    def test_immediate_source(self):
        (inst,) = assemble("bypass n0, #42")
        assert inst.ndu_ops[0].src.kind is OperandKind.IMMEDIATE
        assert inst.ndu_ops[0].src.index == 42


class TestNPUStatements:
    def test_mac_with_shift(self):
        (inst,) = assemble("mac dlast>>1, n1")
        assert inst.npu.opcode is NPUOpcode.MAC
        assert inst.npu.data.kind is OperandKind.DLAST
        assert inst.npu.data_shift == 1

    def test_dtype_suffix(self):
        (inst,) = assemble("add.bf16 n0, n1")
        assert inst.npu.dtype is NcoreDType.BF16

    def test_flags(self):
        (inst,) = assemble("mac n0, n1, noacc, zoff, neighbor, pred3")
        npu = inst.npu
        assert not npu.accumulate
        assert npu.zero_offset
        assert npu.from_neighbor
        assert npu.predicate == 3

    def test_unknown_flag_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("mac n0, n1, turbo")


class TestOutStatements:
    def test_requant_with_activation(self):
        (inst,) = assemble("requant.uint8 relu")
        assert inst.out.opcode is OutOpcode.REQUANT
        assert inst.out.dtype is NcoreDType.UINT8

    def test_store(self):
        (inst,) = assemble("store a6, inc, high")
        assert inst.out.opcode is OutOpcode.STORE
        assert inst.out.dst_increment
        assert inst.out.source_high

    def test_storeacc(self):
        (inst,) = assemble("storeacc a4")
        assert inst.out.opcode is OutOpcode.STORE_ACC


class TestFusion:
    FIG6 = """
    ; Fig. 6: convolution inner loop, one instruction, 1 iteration/clock
    loop 3 {
      broadcast64 n1, wtram[a3], a5, inc
      mac dlast>>1, n1
      rotl n0, n0, 64
    }
    """

    def test_fig6_is_one_instruction(self):
        program = assemble(self.FIG6)
        assert len(program) == 1
        inst = program[0]
        assert inst.repeat == 3
        assert len(inst.ndu_ops) == 2
        assert inst.npu.opcode is NPUOpcode.MAC
        assert inst.total_cycles() == 3  # one clock per iteration

    def test_pipe_fusion(self):
        (inst,) = assemble("bypass n0, dram[a0++] | mac n0, wtram[a1++] | requant relu")
        assert len(inst.ndu_ops) == 1
        assert inst.npu is not None
        assert inst.out is not None

    def test_two_npu_ops_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("mac n0, n1 | add n0, n1")

    def test_unterminated_loop_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("loop 2 {\nmac n0, n1\n")

    def test_unmatched_brace_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("}")

    def test_nested_fused_loops_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("loop 2 {\nloop 3 {\n}\n}")


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblyError, match="line 1"):
            assemble("frobnicate n0")

    def test_bad_operand(self):
        with pytest.raises(AssemblyError):
            assemble("bypass n0, dram[b2]")

    def test_oversized_immediate(self):
        with pytest.raises(AssemblyError):
            assemble("bypass n0, #64")


class TestRangeChecks:
    """Register indices and repeat counts are rejected at assembly time."""

    def test_address_register_in_operand(self):
        with pytest.raises(AssemblyError, match="address register 9"):
            assemble("bypass n0, dram[a9]")

    def test_address_register_in_setaddr(self):
        with pytest.raises(AssemblyError, match="a-register 8"):
            assemble("setaddr a8, 0")

    def test_address_register_in_store(self):
        with pytest.raises(AssemblyError, match="a-register 12"):
            assemble("store a12")

    def test_ndu_register_source(self):
        with pytest.raises(AssemblyError, match="NDU register 5"):
            assemble("bypass n0, n5")

    def test_ndu_register_destination(self):
        with pytest.raises(AssemblyError, match="n-register 4"):
            assemble("bypass n4, n0")

    def test_predicate_register(self):
        with pytest.raises(AssemblyError, match="predicate register 9"):
            assemble("mac n0, n1, pred9")

    def test_fused_repeat_count(self):
        with pytest.raises(AssemblyError, match="70000 outside 1..2048"):
            assemble("loop 70000 {\nmac n0, n1\n}")

    def test_loopn_trip_count(self):
        with pytest.raises(AssemblyError, match="trip count 0"):
            assemble("loopn 0")

    def test_dma_descriptor_index(self):
        with pytest.raises(AssemblyError, match="descriptor 12"):
            assemble("dmastart 12")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblyError, match="line 3") as exc_info:
            assemble("; header comment\nhalt\nsetaddr a8, 0")
        assert exc_info.value.line_no == 3


class TestRoundTrip:
    def test_fig6_round_trip(self):
        program = assemble(TestFusion.FIG6)
        assert assemble(disassemble(program)) == program

    @staticmethod
    def _out_is_canonical(out):
        """The assembly syntax only expresses each OUT opcode's own fields."""
        from repro.isa import OutOpcode
        from repro.isa.instruction import Activation

        if out is None:
            return True
        if out.opcode is OutOpcode.REQUANT:
            return out.dst_addr_reg == 0 and not out.dst_increment and not out.source_high
        if out.opcode is OutOpcode.STORE:
            return out.activation is Activation.NONE
        # STORE_ACC: only the address register is expressible.
        from repro.dtypes import NcoreDType

        return (
            out.activation is Activation.NONE
            and not out.dst_increment
            and not out.source_high
            and out.dtype is NcoreDType.INT8
        )

    @given(_instructions())
    def test_disassemble_assemble_round_trip(self, instruction):
        assume(self._out_is_canonical(instruction.out))
        text = disassemble([instruction])
        assert assemble(text) == [instruction]
