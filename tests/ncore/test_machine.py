"""End-to-end tests of the Ncore machine executing real programs."""

import numpy as np
import pytest

from repro.dtypes import NcoreDType, quantize_multiplier
from repro.isa import Instruction, NPUOp, NPUOpcode, SeqOp, SeqOpcode, assemble
from tests.helpers import data_ram, ndu_reg, weight_ram
from repro.ncore import DmaDescriptor, ExecutionError, Ncore

ROW = 4096


@pytest.fixture
def machine():
    return Ncore()


def write_row(machine, ram, row, values):
    payload = np.asarray(values, dtype=np.uint8).tobytes()
    assert len(payload) == ROW
    if ram == "data":
        machine.write_data_ram(row * ROW, payload)
    else:
        machine.write_weight_ram(row * ROW, payload)


def read_row(machine, row):
    return np.frombuffer(machine.read_data_ram(row * ROW, ROW), dtype=np.uint8)


class TestBasicExecution:
    def test_halt_stops(self, machine):
        result = machine.execute_program(assemble("halt"))
        assert result.halted
        assert result.instructions == 1

    def test_setaddr_and_addaddr(self, machine):
        machine.execute_program(assemble("setaddr a3, 100\naddaddr a3, -40\nhalt"))
        assert machine.addr_regs[3] == 60

    def test_cycle_budget_stops_infinite_loop(self, machine):
        # A program that never halts must be stopped by the budget.
        program = assemble("loopn 2000\nnop\nendloop\nhalt")
        result = machine.execute_program(program, max_cycles=100)
        assert not result.halted
        assert result.stop_reason == "cycle_budget"

    def test_loopn_repeats_body(self, machine):
        program = assemble("setaddr a0, 0\nloopn 5\naddaddr a0, 2\nendloop\nhalt")
        machine.execute_program(program)
        assert machine.addr_regs[0] == 10

    def test_nested_loops(self, machine):
        program = assemble(
            "setaddr a0, 0\n"
            "loopn 3\n"
            "loopn 4\n"
            "addaddr a0, 1\n"
            "endloop\n"
            "endloop\n"
            "halt"
        )
        machine.execute_program(program)
        assert machine.addr_regs[0] == 12

    def test_loop_nesting_limit(self, machine):
        source = "loopn 2\n" * 5 + "nop\n" + "endloop\n" * 5 + "halt"
        with pytest.raises(ExecutionError, match="nesting"):
            machine.execute_program(assemble(source))

    def test_endloop_without_begin(self, machine):
        with pytest.raises(ExecutionError):
            machine.execute_program(assemble("endloop\nhalt"))

    def test_repeat_with_seq_op_rejected(self, machine):
        program = [Instruction(seq=SeqOp(SeqOpcode.EVENT, 1), repeat=2)]
        with pytest.raises(ExecutionError):
            machine.execute_program(program)


class TestPointwiseConvolution:
    """The Fig. 7 mapping: W x K parallelised over the 4096 lanes."""

    W, K, C = 64, 64, 8

    def _run(self, machine, inputs, weights):
        # Data row per channel c: input[:, c] tiled across the 64 K-groups.
        for c in range(self.C):
            write_row(machine, "data", c, np.tile(inputs[:, c], self.K))
        # One weight row: weight[k, c] at byte k*64 + c.
        wrow = np.zeros(ROW, dtype=np.uint8)
        for k in range(self.K):
            wrow[k * 64 : k * 64 + self.C] = weights[k]
        write_row(machine, "weight", 0, wrow)
        m, s = quantize_multiplier(1.0)
        machine.set_requant(m, s, 0)
        program = assemble(
            f"""
            setaddr a0, 0      ; data row cursor
            setaddr a3, 0      ; weight row
            setaddr a5, 0      ; broadcast byte index (input channel)
            loop {self.C} {{
              bypass n0, dram[a0++]
              broadcast64 n1, wtram[a3], a5, inc
              mac n0, n1
            }}
            setaddr a6, 100
            requant.uint8
            store a6
            halt
            """
        )
        result = machine.execute_program(program)
        return result, read_row(machine, 100)

    def test_matches_numpy_convolution(self, machine):
        rng = np.random.default_rng(42)
        inputs = rng.integers(0, 4, size=(self.W, self.C)).astype(np.uint8)
        weights = rng.integers(0, 4, size=(self.K, self.C)).astype(np.uint8)
        result, out = self._run(machine, inputs, weights)
        expected = inputs.astype(np.int32) @ weights.astype(np.int32).T  # (W, K)
        for k in range(self.K):
            np.testing.assert_array_equal(
                out[k * 64 : (k + 1) * 64],
                np.clip(expected[:, k], 0, 255).astype(np.uint8),
            )

    def test_inner_loop_is_one_cycle_per_channel(self, machine):
        # The fused instruction executes one full (bypass + broadcast +
        # 4096-wide MAC) iteration per clock, as the paper claims for Fig. 6.
        rng = np.random.default_rng(1)
        inputs = rng.integers(0, 4, size=(self.W, self.C)).astype(np.uint8)
        weights = rng.integers(0, 4, size=(self.K, self.C)).astype(np.uint8)
        result, _ = self._run(machine, inputs, weights)
        # 3 setaddr + C fused iterations + setaddr + requant + store + halt
        assert result.cycles == 3 + self.C + 1 + 1 + 1 + 1
        assert machine.total_macs == self.C * ROW


class TestFig6RotateLoop:
    """The exact Fig. 6 pattern: MAC dlast while rotating n0 for the next tap."""

    def test_dlast_reads_pre_rotation_value(self, machine):
        data = np.zeros(ROW, dtype=np.uint8)
        data[:256] = np.arange(1, 257) % 251
        write_row(machine, "data", 0, data)
        wrow = np.zeros(ROW, dtype=np.uint8)
        for tap in range(3):  # weight 1 for all three filter taps
            wrow[tap::64] = 1
        write_row(machine, "weight", 0, wrow)
        program = assemble(
            """
            setaddr a0, 0
            setaddr a3, 0
            setaddr a5, 0
            bypass n0, dram[a0]      ; latch the data row (arms dlast)
            loop 3 {
              broadcast64 n1, wtram[a3], a5, inc
              mac.uint8 dlast, n1
              rotl n0, n0, 64
            }
            halt
            """
        )
        machine.execute_program(program)
        # Each iteration MACs the row *before* that iteration's rotation:
        # acc = data + rot64(data) + rot128(data), all with weight 1.
        expected = (
            data.astype(np.int64)
            + np.roll(data, -64).astype(np.int64)
            + np.roll(data, -128).astype(np.int64)
        )
        np.testing.assert_array_equal(machine.acc_int, expected)


class TestSixteenBitAndFloat:
    def test_int16_mac_uses_low_high_rows(self, machine):
        # 16-bit values: low bytes in row 0, high bytes in row 1.
        values = np.full(ROW, 300, dtype=np.int16)  # needs both bytes
        write_row(machine, "data", 0, (values & 0xFF).astype(np.uint8))
        write_row(machine, "data", 1, (values >> 8).astype(np.uint8))
        weights = np.full(ROW, 5, dtype=np.int16)
        write_row(machine, "weight", 0, (weights & 0xFF).astype(np.uint8))
        write_row(machine, "weight", 1, (weights >> 8).astype(np.uint8))
        program = [
            Instruction(
                npu=NPUOp(
                    NPUOpcode.MAC,
                    data_ram(0),
                    weight_ram(1),
                    dtype=NcoreDType.INT16,
                )
            ),
            Instruction(seq=SeqOp(SeqOpcode.HALT)),
        ]
        machine.addr_regs[0] = 0
        machine.addr_regs[1] = 0
        result = machine.execute_program(program)
        assert machine.acc_int[0] == 1500
        # int16 NPU ops take four clocks (section IV-D.4).
        assert result.cycles == 4 + 1

    def test_bf16_mac_three_cycles(self, machine):
        from tests.helpers import bf16_to_bits

        vals = np.full(ROW, 1.5, dtype=np.float32)
        bits = bf16_to_bits(vals)
        write_row(machine, "data", 0, (bits & 0xFF).astype(np.uint8))
        write_row(machine, "data", 1, (bits >> 8).astype(np.uint8))
        wbits = bf16_to_bits(np.full(ROW, 2.0, dtype=np.float32))
        write_row(machine, "weight", 0, (wbits & 0xFF).astype(np.uint8))
        write_row(machine, "weight", 1, (wbits >> 8).astype(np.uint8))
        program = [
            Instruction(
                npu=NPUOp(
                    NPUOpcode.MAC, data_ram(0), weight_ram(1), dtype=NcoreDType.BF16
                )
            ),
            Instruction(seq=SeqOp(SeqOpcode.HALT)),
        ]
        result = machine.execute_program(program)
        np.testing.assert_allclose(machine.acc_float, 3.0)
        assert result.cycles == 3 + 1

    def test_16bit_register_operand_rejected(self, machine):
        program = [
            Instruction(
                npu=NPUOp(
                    NPUOpcode.MAC, ndu_reg(0), weight_ram(0), dtype=NcoreDType.INT16
                )
            ),
            Instruction(seq=SeqOp(SeqOpcode.HALT)),
        ]
        with pytest.raises(ExecutionError, match="16-bit"):
            machine.execute_program(program)


class TestZeroOffsetAndPredication:
    def test_uint8_zero_offset(self, machine):
        # Section IV-D.4: u8 -> s9 by subtracting separate zero offsets.
        write_row(machine, "data", 0, np.full(ROW, 10, np.uint8))
        write_row(machine, "weight", 0, np.full(ROW, 3, np.uint8))
        machine.set_zero_offsets(data=8, weight=1)
        program = assemble("mac.uint8 dram[a0], wtram[a1], zoff\nhalt")
        machine.execute_program(program)
        assert machine.acc_int[0] == (10 - 8) * (3 - 1)

    def test_cmpgt_sets_predicate_then_masks_mac(self, machine):
        data = np.zeros(ROW, dtype=np.uint8)
        data[:10] = 100  # lanes 0..9 exceed the threshold
        write_row(machine, "data", 0, data)
        write_row(machine, "weight", 0, np.full(ROW, 50, np.uint8))
        write_row(machine, "weight", 1, np.full(ROW, 1, np.uint8))
        program = assemble(
            "setaddr a1, 0\n"
            "cmpgt dram[a0], wtram[a1++], pred2\n"
            "mac dram[a0], wtram[a1], pred2\n"
            "halt"
        )
        machine.execute_program(program)
        assert machine.acc_int[0] == 100
        assert machine.acc_int[10] == 0  # masked off


class TestDma:
    def test_dma_load_then_compute(self, machine):
        machine.dma_read.configure_window(0)
        payload = bytes(np.full(ROW, 7, np.uint8))
        machine.memory.write(4096, payload)
        machine.set_dma_descriptor(
            0,
            DmaDescriptor(
                write_to_dram=False,
                target_weight_ram=True,
                ram_row=2,
                rows=1,
                dram_addr=4096,
            ),
        )
        write_row(machine, "data", 0, np.full(ROW, 2, np.uint8))
        program = assemble(
            "dmastart 0\n"
            "dmawait 1\n"
            "setaddr a1, 2\n"
            "mac dram[a0], wtram[a1]\n"
            "halt"
        )
        machine.execute_program(program)
        assert machine.acc_int[0] == 14
        assert machine.dma_stall_cycles > 0  # the wait actually stalled

    def test_dma_store_to_dram(self, machine):
        machine.dma_write.configure_window(0)
        write_row(machine, "data", 5, np.full(ROW, 9, np.uint8))
        machine.set_dma_descriptor(
            1,
            DmaDescriptor(
                write_to_dram=True,
                target_weight_ram=False,
                ram_row=5,
                rows=1,
                dram_addr=0,
            ),
        )
        machine.execute_program(assemble("dmastart 1\ndmawait 2\nhalt"))
        assert machine.memory.read(0, ROW) == bytes([9]) * ROW

    def test_unconfigured_descriptor_rejected(self, machine):
        with pytest.raises(ExecutionError):
            machine.execute_program(assemble("dmastart 3\nhalt"))

    def test_unconfigured_window_rejected(self, machine):
        machine.set_dma_descriptor(
            0,
            DmaDescriptor(
                write_to_dram=False,
                target_weight_ram=False,
                ram_row=0,
                rows=1,
                dram_addr=0,
            ),
        )
        with pytest.raises(RuntimeError, match="window"):
            machine.execute_program(assemble("dmastart 0\nhalt"))


class TestDebugFeatures:
    def test_event_logging_without_cycle_cost(self, machine):
        baseline = machine.execute_program(assemble("nop\nnop\nhalt")).cycles
        machine.reset()
        logged = machine.execute_program(assemble("event 1\nevent 2\nhalt")).cycles
        assert logged == baseline  # logging poses no performance penalty
        events = machine.event_log.drain()
        assert [e.tag for e in events] == [1, 2]

    def test_n_step_breakpointing(self, machine):
        machine.n_step = 3
        machine.load_program(assemble("nop\nnop\nnop\nnop\nnop\nnop\nnop\nhalt"))
        result = machine.run()
        assert result.stop_reason == "n_step"
        assert not machine.halted
        result = machine.run()  # resume
        assert result.stop_reason == "n_step"
        machine.n_step = None
        result = machine.run()
        assert result.halted

    def test_breakpoint_pauses_inside_fused_loop(self, machine):
        # Perf-counter wraparound must pause *mid-repeat* — the middle of
        # a Fig. 6-style fused loop — and resume exactly where it stopped.
        write_row(machine, "data", 0, np.full(ROW, 1, np.uint8))
        write_row(machine, "weight", 0, np.full(ROW, 1, np.uint8))
        machine.perf_counters["macs"].configure(
            offset=(1 << 48) - 5 * ROW, break_on_wrap=True
        )
        program = assemble(
            "loop 20 {\n  mac dram[a0], wtram[a1]\n}\nhalt"
        )
        machine.load_program(program)
        result = machine.run()
        assert result.stop_reason == "perf_counter"
        assert machine.acc_int[0] == 5  # exactly five iterations ran
        assert not machine.halted
        machine.perf_counters["macs"].configure(0, break_on_wrap=False)
        result = machine.run()  # resumes the remaining 15 iterations
        assert result.halted
        assert machine.acc_int[0] == 20

    def test_n_step_pauses_inside_fused_loop(self, machine):
        machine.n_step = 7
        program = assemble("loop 30 {\n  mac dram[a0], wtram[a1]\n}\nhalt")
        machine.load_program(program)
        stops = 0
        while not machine.halted and stops < 20:
            result = machine.run()
            if result.stop_reason == "n_step":
                stops += 1
        assert machine.halted
        assert stops >= 3  # several pauses inside the 30-cycle loop
        assert machine.total_issues == 31  # 30 loop issues + the halt

    def test_perf_counter_wraparound_breakpoint(self, machine):
        counter = machine.perf_counters["instructions"]
        counter.configure(offset=(1 << 48) - 3, break_on_wrap=True)
        machine.load_program(assemble("nop\nnop\nnop\nnop\nnop\nhalt"))
        result = machine.run()
        assert result.stop_reason == "perf_counter"
        assert counter.wrapped

    def test_statistics_accumulate(self, machine):
        machine.execute_program(assemble("mac dram[a0], wtram[a1]\nhalt"))
        assert machine.total_macs == ROW
        assert machine.total_instructions == 2


class TestSlaveInterface:
    def test_requant_config_broadcast(self, machine):
        machine.set_requant(123, 4, 5)
        assert machine.requant_multiplier[0] == 123
        assert machine.requant_shift[-1] == 4
        assert machine.requant_offset[100] == 5

    def test_activation_lut_shape_checked(self, machine):
        with pytest.raises(ValueError):
            machine.set_activation_lut(np.zeros(128))

    def test_reset_clears_state(self, machine):
        machine.execute_program(assemble("setaddr a0, 7\nmac dram[a0], wtram[a0]\nhalt"))
        machine.reset()
        assert machine.addr_regs[0] == 0
        assert not machine.acc_int.any()
        assert machine.total_cycles == 0
