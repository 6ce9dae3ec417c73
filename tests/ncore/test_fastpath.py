"""Differential validation of the trace-fused fast path.

Every test runs the same program twice — fastpath on versus the pure
interpreter — and demands *bit-identical* architectural state afterwards:
both SRAMs, every register file, the accumulators, the cycle/instruction/
issue/MAC totals and the hardware performance counters.  The fast path is
an execution tier, not a different machine; any divergence is a bug.
"""

import numpy as np
import pytest

from repro.dtypes import NcoreDType, QuantParams
from repro.isa import AssemblyError, Instruction, assemble
from repro.isa.instruction import SeqOp, SeqOpcode
from repro.ncore import Ncore
from repro.ncore import fastpath as fastpath_mod
from repro.ncore.machine import ExecutionError
from repro.ncore.fastpath import MIN_FUSED_TRIPS
from repro.nkl import programs as nkl_programs
from repro.nkl.programs import (
    emit_avg_pool_program,
    emit_conv1d_rotate_program,
    emit_conv2d_program,
    emit_depthwise_program,
    emit_elementwise_add_program,
    emit_matmul_program,
    emit_max_pool_rows_program,
    emit_tiled_matmul_program,
    run_streamed,
)
from repro.perf.simbench import fig6_machine


def qp(scale, zp):
    return QuantParams(scale=scale, zero_point=zp, dtype=NcoreDType.UINT8)


def _snapshot(m):
    """Full architectural state, down to the perf-counter wrap flags."""
    return {
        "data_ram": m.data_ram.data.copy(),
        "weight_ram": m.weight_ram.data.copy(),
        "ndu_regs": m.ndu_regs.copy(),
        "dlast": m.dlast.copy(),
        "acc_int": m.acc_int.copy(),
        "acc_float": m.acc_float.copy(),
        "out_low": m.out_low.copy(),
        "out_high": m.out_high.copy(),
        "pred_regs": m.pred_regs.copy(),
        "addr_regs": list(m.addr_regs),
        "pc": m.pc,
        "halted": m.halted,
        "total_cycles": m.total_cycles,
        "total_instructions": m.total_instructions,
        "total_issues": m.total_issues,
        "total_macs": m.total_macs,
        "perf": {n: (c.value, c.wrapped) for n, c in m.perf_counters.items()},
    }


def _assert_same_state(fast, interp):
    a, b = _snapshot(fast), _snapshot(interp)
    for key in a:
        if isinstance(a[key], np.ndarray):
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)
        else:
            assert a[key] == b[key], f"{key}: fastpath {a[key]} != interp {b[key]}"


def _differential(emit, streamed=False):
    """Emit the same program into a fastpath and an interpreter machine,
    run both to completion, and compare everything."""
    fast, interp = Ncore(fastpath=True), Ncore(fastpath=False)
    runs = []
    for machine in (fast, interp):
        program = emit(machine)
        if streamed:
            runs.append(run_streamed(machine, program))
        else:
            runs.append(machine.execute_program(program))
    assert runs[0].halted and runs[1].halted
    assert runs[0].cycles == runs[1].cycles
    assert runs[0].instructions == runs[1].instructions
    assert runs[0].issues == runs[1].issues
    assert runs[0].macs == runs[1].macs
    assert runs[0].stop_reason == runs[1].stop_reason
    _assert_same_state(fast, interp)
    return fast, interp


class TestIsaSuiteDifferential:
    """The full NKL kernel suite, fused versus interpreted."""

    def test_matmul(self):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 255, size=(16, 96)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(96, 32)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_matmul_program(
                machine, data, weights, qp(0.02, 128), qp(0.015, 120), qp(0.2, 3)
            )
            return program

        fast, _ = _differential(emit)
        assert fast.fastpath_stats["hits"] > 0

    def test_matmul_relu(self):
        rng = np.random.default_rng(12)
        data = rng.integers(0, 255, size=(8, 40)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(40, 8)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_matmul_program(
                machine, data, weights, qp(0.02, 128), qp(0.02, 128),
                qp(0.02, 100), "relu",
            )
            return program

        _differential(emit)

    def test_conv1d_rotate(self):
        rng = np.random.default_rng(13)
        data = rng.integers(0, 255, size=(40,)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(16, 5)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_conv1d_rotate_program(
                machine, data, weights, qp(0.02, 128), qp(0.02, 128), qp(0.1, 30)
            )
            return program

        fast, _ = _differential(emit)
        assert fast.fastpath_stats["hits"] > 0

    def test_tiled_matmul(self):
        rng = np.random.default_rng(14)
        data = rng.integers(0, 255, size=(80, 130)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(130, 70)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_tiled_matmul_program(
                machine, data, weights, qp(0.004, 128), qp(0.004, 128), qp(0.02, 0)
            )
            return program

        _differential(emit, streamed=True)

    def test_max_pool_rows(self):
        rng = np.random.default_rng(15)
        rows = rng.integers(0, 255, size=(6, 4096)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_max_pool_rows_program(machine, rows)
            return program

        _differential(emit)

    def test_avg_pool_rows(self):
        rng = np.random.default_rng(16)
        rows = rng.integers(0, 255, size=(5, 4096)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_avg_pool_program(machine, rows)
            return program

        _differential(emit)

    def test_elementwise_add(self):
        rng = np.random.default_rng(17)
        a = rng.integers(0, 255, size=(4096,)).astype(np.uint8)
        b = rng.integers(0, 255, size=(4096,)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_elementwise_add_program(
                machine, a, b, qp(0.05, 128), qp(0.1, 128)
            )
            return program

        _differential(emit)

    def test_conv2d(self):
        rng = np.random.default_rng(18)
        x = rng.integers(0, 255, size=(1, 10, 10, 3)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(3, 3, 3, 8)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_conv2d_program(
                machine, x, weights, qp(0.02, 128), qp(0.02, 128), qp(0.3, 4),
                padding=((1, 1), (1, 1)),
            )
            return program

        _differential(emit, streamed=True)

    def test_conv2d_strided(self):
        rng = np.random.default_rng(19)
        x = rng.integers(0, 255, size=(1, 9, 9, 2)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(3, 3, 2, 4)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_conv2d_program(
                machine, x, weights, qp(0.02, 128), qp(0.02, 128), qp(0.3, 4),
                padding=((1, 1), (1, 1)), stride=(2, 2),
            )
            return program

        _differential(emit, streamed=True)

    def test_depthwise(self):
        rng = np.random.default_rng(20)
        x = rng.integers(0, 255, size=(1, 8, 8, 6)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(3, 3, 6)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_depthwise_program(
                machine, x, weights, qp(0.02, 128), qp(0.02, 128), qp(0.3, 4),
                padding=((1, 1), (1, 1)),
            )
            return program

        _differential(emit, streamed=True)


class TestFig6Loop:
    def test_fused_loop_matches_interpreter(self):
        fast_m, program = fig6_machine(fastpath=True)
        interp_m, _ = fig6_machine(fastpath=False)
        fast = fast_m.execute_program(program)
        interp = interp_m.execute_program(program)
        assert fast.cycles == interp.cycles == 517
        _assert_same_state(fast_m, interp_m)
        assert fast_m.fastpath_stats["hits"] == 1
        assert fast_m.fastpath_stats["fused_trips"] == 512
        assert interp_m.fastpath_stats["hits"] == 0

    def test_opt_out_compiles_nothing(self):
        machine, program = fig6_machine(fastpath=False)
        machine.load_program(program)
        assert machine._fastpath_tables == [{}, {}]
        assert machine.fastpath_stats["compiled"] == 0

    def test_default_flag_round_trip(self):
        # The constructor argument is the only switch: no process default.
        assert Ncore().fastpath is True
        assert Ncore(fastpath=False).fastpath is False
        with pytest.raises(TypeError):
            Ncore(fastpath=None)  # the old "process default" spelling
        assert not hasattr(fastpath_mod, "set_fastpath_default")

    @pytest.mark.parametrize(
        "trips, fused", [(MIN_FUSED_TRIPS - 1, 0), (MIN_FUSED_TRIPS, 1)]
    )
    def test_fusion_floor(self, trips, fused):
        # Below the measured crossover a repeat is not compiled and not
        # looked up (neither a hit nor a miss); at it, it fuses.
        fast_m, program = fig6_machine(trips, fastpath=True)
        interp_m, _ = fig6_machine(trips, fastpath=False)
        fast_m.execute_program(program)
        interp_m.execute_program(program)
        _assert_same_state(fast_m, interp_m)
        stats = fast_m.fastpath_stats
        assert (stats["compiled"], stats["hits"]) == (fused, fused)
        assert stats["misses"] == stats["fallbacks"] == 0

    def test_loopn_is_interpreted_with_its_body_repeat_fused(self):
        def emit(machine):
            row = machine.config.row_bytes
            machine.write_data_ram(0, bytes(np.arange(8 * row, dtype=np.uint8)))
            machine.write_weight_ram(0, bytes(np.full(row, 3, np.uint8)))
            return assemble(
                "setaddr a0, 0\nsetaddr a1, 0\n"
                "loopn 3\n"
                "  loop 8 {\n    mac.uint8 dram[a0], wtram[a1]\n  }\n"
                "  rotl n0, n0, 1\n"
                "endloop\nhalt"
            )

        fast, _ = _differential(emit)
        # Only the repeated body instruction compiles; the loop runs on
        # the interpreter and takes the fused repeat once per trip.
        assert fast.fastpath_stats["compiled"] == 1
        assert fast.fastpath_stats["hits"] == 3
        assert fast.fastpath_stats["fused_trips"] == 24


def _u8(*shape):
    return np.ones(shape, dtype=np.uint8)


_Q = qp(0.02, 128)

#: One small call per ``emit_*`` of ``repro.nkl.programs`` — the inventory
#: every per-emitter test iterates (a new emitter must be added here).
NKL_EMITTERS = {
    "emit_matmul_program": lambda m: nkl_programs.emit_matmul_program(
        m, _u8(4, 8), _u8(8, 4), _Q, _Q, _Q),
    "emit_conv1d_rotate_program": lambda m: nkl_programs.emit_conv1d_rotate_program(
        m, _u8(12), _u8(4, 3), _Q, _Q, _Q),
    "emit_tiled_matmul_program": lambda m: nkl_programs.emit_tiled_matmul_program(
        m, _u8(80, 130), _u8(130, 70), _Q, _Q, _Q),
    "emit_max_pool_rows_program": lambda m: nkl_programs.emit_max_pool_rows_program(
        m, _u8(4, 4096)),
    "emit_avg_pool_program": lambda m: nkl_programs.emit_avg_pool_program(
        m, _u8(4, 4096)),
    "emit_elementwise_add_program": lambda m: nkl_programs.emit_elementwise_add_program(
        m, _u8(4096), _u8(4096), _Q, _Q),
    "emit_conv2d_program": lambda m: nkl_programs.emit_conv2d_program(
        m, _u8(1, 6, 6, 2), _u8(3, 3, 2, 4), _Q, _Q, _Q, stride=(2, 2)),
    "emit_depthwise_program": lambda m: nkl_programs.emit_depthwise_program(
        m, _u8(1, 6, 6, 4), _u8(3, 3, 4), _Q, _Q, _Q),
}


def test_nkl_emitters_emit_no_hardware_loop():
    # The measured fact single-form fusion rests on: every NKL emitter
    # spells its loops as hardware repeats.  A looping emitter must reopen
    # that decision here instead of silently interpreting.
    assert set(NKL_EMITTERS) == {n for n in dir(nkl_programs) if n.startswith("emit_")}
    for name, emit in NKL_EMITTERS.items():
        program, _ = emit(Ncore(fastpath=False))
        assert all(i.seq.opcode is not SeqOpcode.LOOP_BEGIN for i in program), name


class TestBf16NonFinite:
    def test_nan_and_inf_lanes_propagate_quietly_through_data_shift(self):
        # The datapath never traps: NaN stays NaN and Inf stays Inf through
        # ``data >> shift`` and the MAC, identically fused and interpreted,
        # and numpy raises no "invalid value" warning (suite-wide
        # ``filterwarnings = error`` would turn one into a failure).
        def emit(machine):
            row = machine.config.row_bytes
            data = np.full(row, 0x3FC0, dtype=np.uint16)  # bf16 1.5
            data[:4] = (0x7F81, 0x7FC0, 0x7F80, 0xFF80)  # sNaN, qNaN, +Inf, -Inf
            ones = np.full(row, 0x3F80, dtype=np.uint16)
            for write, bits in (
                (machine.write_data_ram, data), (machine.write_weight_ram, ones)
            ):
                low, high = (bits & 0xFF).astype(np.uint8), (bits >> 8).astype(np.uint8)
                write(0, low.tobytes() + high.tobytes())
            return assemble(
                "setaddr a0, 0\nsetaddr a3, 0\n"
                "loop 4 {\n  mac.bf16 dram[a0]>>1, wtram[a3]\n}\nhalt"
            )

        fast, interp = _differential(emit)
        assert fast.fastpath_stats["hits"] > 0
        assert fast.acc_float.tobytes() == interp.acc_float.tobytes()
        acc = interp.acc_float
        assert np.isnan(acc[0]) and np.isnan(acc[1])
        assert acc[2] == np.inf and acc[3] == -np.inf
        assert (acc[4:] == 3.0).all()  # 4 trips of (1.5 >> 1) * 1.0


class TestMidTraceStops:
    """Debug stops must land on the same cycle, in the same state, on
    both tiers — including stops *inside* a fused repeat block."""

    def _stepped(self, fastpath, configure, budget=100_000_000):
        machine, program = fig6_machine(fastpath=fastpath)
        machine.load_program(program)
        configure(machine)
        trail = []
        while not machine.halted:
            result = machine.run(budget)
            trail.append((result.stop_reason, machine.total_cycles, machine.pc))
            if len(trail) > 10_000:  # pragma: no cover - runaway guard
                pytest.fail("machine failed to make progress")
        return machine, trail

    def test_perf_counter_break_mid_repeat(self):
        # Wrap the cycle counter 100 cycles in: inside the 512-trip loop.
        def configure(m):
            m.perf_counters["cycles"].configure(
                offset=(1 << 48) - 100, break_on_wrap=True
            )

        fast_m, fast_trail = self._stepped(True, configure)
        interp_m, interp_trail = self._stepped(False, configure)
        assert fast_trail == interp_trail
        assert fast_trail[0][0] == "perf_counter"
        # The break lands mid-repeat: before the loop has retired.
        assert fast_trail[0][1] < 517
        _assert_same_state(fast_m, interp_m)

    def test_n_step_windows_match(self):
        def configure(m):
            m.n_step = 37

        fast_m, fast_trail = self._stepped(True, configure)
        interp_m, interp_trail = self._stepped(False, configure)
        assert fast_trail == interp_trail
        assert any(reason == "n_step" for reason, _, _ in fast_trail)
        _assert_same_state(fast_m, interp_m)

    def test_budget_sliced_stepping_matches(self):
        fast_m, fast_trail = self._stepped(True, lambda m: None, budget=64)
        interp_m, interp_trail = self._stepped(False, lambda m: None, budget=64)
        # The fused tier may legally run a whole repeat block past the
        # slice boundary, so the trails differ — but the end state and the
        # total cycle count cannot.
        assert fast_trail[-1][1] == interp_trail[-1][1] == 517
        _assert_same_state(fast_m, interp_m)

    def test_resume_after_mid_trace_break_completes_identically(self):
        def configure(m):
            m.perf_counters["macs"].configure(
                offset=(1 << 48) - 200 * 4096, break_on_wrap=True
            )

        fast_m, fast_trail = self._stepped(True, configure)
        interp_m, interp_trail = self._stepped(False, configure)
        assert fast_trail == interp_trail
        assert fast_trail[0][0] == "perf_counter"
        assert fast_m.halted and fast_m.total_cycles == 517
        _assert_same_state(fast_m, interp_m)


    def test_resume_below_the_floor_stays_on_the_interpreter(self):
        # The break leaves fewer than MIN_FUSED_TRIPS trips: the tail is
        # interpreted, counted neither as a hit nor as a miss.
        def configure(m):
            m.perf_counters["cycles"].configure(
                offset=(1 << 48) - (4 + 512 - (MIN_FUSED_TRIPS - 1)),
                break_on_wrap=True,
            )

        fast_m, fast_trail = self._stepped(True, configure)
        interp_m, interp_trail = self._stepped(False, configure)
        assert fast_trail == interp_trail
        assert fast_trail[0][0] == "perf_counter" and fast_trail[0][1] < 517
        _assert_same_state(fast_m, interp_m)
        stats = fast_m.fastpath_stats
        assert stats["hits"] == stats["misses"] == 0 and stats["fallbacks"] == 1


class TestStopReasonRegression:
    def test_perf_break_on_final_instruction_is_not_masked_by_halt(self):
        # The instructions counter wraps exactly on the halt: the run both
        # halts AND trips the configured breakpoint, and the debugger must
        # see the breakpoint, not a bare "halt".
        machine = Ncore()
        program = assemble("setaddr a0, 1\nsetaddr a1, 2\nhalt")
        machine.load_program(program)
        machine.perf_counters["instructions"].configure(
            offset=(1 << 48) - len(program), break_on_wrap=True
        )
        result = machine.run()
        assert result.halted
        assert result.stop_reason == "perf_counter"
        assert machine.perf_counters["instructions"].wrapped


class TestDmaWaitValidation:
    def test_seqop_constructor_rejects_bad_group(self):
        with pytest.raises(ValueError, match="engine group 4"):
            SeqOp(SeqOpcode.DMA_WAIT, 4)
        for group in range(4):
            SeqOp(SeqOpcode.DMA_WAIT, group)  # valid encodings

    def test_assembler_rejects_bad_group_with_line_number(self):
        with pytest.raises(AssemblyError, match="line 2"):
            assemble("dmastart 0\ndmawait 9\nhalt")

    def test_machine_raises_on_forged_bad_group(self):
        # The constructor now rejects group 4, so forge the frozen
        # dataclass to model a corrupted IRAM encoding.
        bad = SeqOp.__new__(SeqOp)
        object.__setattr__(bad, "opcode", SeqOpcode.DMA_WAIT)
        object.__setattr__(bad, "arg", 4)
        object.__setattr__(bad, "arg2", 0)
        machine = Ncore()
        program = [
            Instruction(seq=bad),
            Instruction(seq=SeqOp(SeqOpcode.HALT)),
        ]
        with pytest.raises(ExecutionError, match="engine group 4"):
            machine.execute_program(program)
