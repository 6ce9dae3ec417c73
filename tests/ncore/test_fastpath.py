"""Differential validation of the trace-fused fast path.

Every test runs the same program twice — fastpath on versus the pure
interpreter — and demands *bit-identical* architectural state afterwards:
both SRAMs, every register file, the accumulators, the cycle/instruction/
issue/MAC totals and the hardware performance counters.  The fast path is
an execution tier, not a different machine; any divergence is a bug.
"""

import numpy as np
import pytest

from repro.dtypes import ACC_MAX, NcoreDType, QuantParams
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
    emit_max_pool_rows_program,
    emit_tiled_matmul_program,
    run_streamed,
)
from tests.helpers import catalog_emitters, catalog_kinds, fig6_machine


def qp(scale, zp):
    return QuantParams(scale=scale, zero_point=zp, dtype=NcoreDType.UINT8)


def _snapshot(m):
    """Full architectural state, down to the perf-counter wrap flags."""
    return {
        "data_ram": m.data_ram.data.copy(),
        "weight_ram": m.weight_ram.data.copy(),
        "ndu_regs": m.ndu_regs.copy(),
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
        "ram_reads": (m.data_ram.reads, m.weight_ram.reads),
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


def _assert_every_repeat_fused(machine):
    """No repeat at or above the floor was rejected, and each compiled
    trace ran fused exactly once: a cut that drops a form these programs
    use fails here, not only in a benchmark."""
    stats = machine.fastpath_stats
    assert stats["rejected"] == 0, stats
    assert stats["hits"] == stats["compiled"], stats


class TestIsaSuiteDifferential:
    """The full NKL kernel suite, fused versus interpreted."""

    @staticmethod
    def _differential(emit, streamed=False):
        fast, interp = _differential(emit, streamed)
        _assert_every_repeat_fused(fast)
        return fast, interp

    def test_matmul(self):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 255, size=(16, 96)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(96, 32)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_tiled_matmul_program(
                machine, data, weights, qp(0.02, 128), qp(0.015, 120), qp(0.2, 3)
            )
            return program

        fast, _ = self._differential(emit)
        assert fast.fastpath_stats["hits"] > 0

    def test_matmul_relu(self):
        rng = np.random.default_rng(12)
        data = rng.integers(0, 255, size=(8, 40)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(40, 8)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_tiled_matmul_program(
                machine, data, weights, qp(0.02, 128), qp(0.02, 128),
                qp(0.02, 100), "relu",
            )
            return program

        self._differential(emit)

    def test_conv1d_rotate(self):
        rng = np.random.default_rng(13)
        data = rng.integers(0, 255, size=(40,)).astype(np.uint8)
        # 24 taps: the program's one run clears MIN_FUSED_TRIPS.
        weights = rng.integers(0, 255, size=(16, 24)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_conv1d_rotate_program(
                machine, data, weights, qp(0.02, 128), qp(0.02, 128), qp(0.1, 30)
            )
            return program

        fast, _ = self._differential(emit)
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

        self._differential(emit, streamed=True)

    def test_max_pool_rows(self):
        rng = np.random.default_rng(15)
        rows = rng.integers(0, 255, size=(6, 4096)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_max_pool_rows_program(machine, rows)
            return program

        self._differential(emit)

    def test_avg_pool_rows(self):
        rng = np.random.default_rng(16)
        rows = rng.integers(0, 255, size=(5, 4096)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_avg_pool_program(machine, rows)
            return program

        self._differential(emit)

    def test_elementwise_add(self):
        rng = np.random.default_rng(17)
        a = rng.integers(0, 255, size=(4096,)).astype(np.uint8)
        b = rng.integers(0, 255, size=(4096,)).astype(np.uint8)

        def emit(machine):
            program, _ = emit_elementwise_add_program(
                machine, a, b, qp(0.05, 128), qp(0.1, 128)
            )
            return program

        self._differential(emit)

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

        self._differential(emit, streamed=True)

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

        self._differential(emit, streamed=True)

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

        self._differential(emit, streamed=True)


class TestFig6Loop:
    def test_fused_loop_matches_interpreter(self):
        fast_m, program = fig6_machine(fastpath=True)
        interp_m, _ = fig6_machine(fastpath=False)
        fast = fast_m.execute_program(program)
        interp = interp_m.execute_program(program)
        assert fast.cycles == interp.cycles == 517
        _assert_same_state(fast_m, interp_m)
        assert fast_m.fastpath_stats["hits"] == 1
        # The three setaddr words and the latch join the loop's run: every
        # issue but the halt.
        assert fast_m.fastpath_stats["fused_trips"] == 516
        _assert_every_repeat_fused(fast_m)
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
        "trips, fused", [(MIN_FUSED_TRIPS - 5, 0), (MIN_FUSED_TRIPS - 4, 1)]
    )
    def test_fusion_floor(self, trips, fused):
        # The floor counts the whole run (the four prologue words and the
        # loop): below the measured crossover it is not compiled and not
        # looked up (neither a hit nor a miss); at it, it fuses.
        fast_m, program = fig6_machine(trips, fastpath=True)
        interp_m, _ = fig6_machine(trips, fastpath=False)
        fast_m.execute_program(program)
        interp_m.execute_program(program)
        _assert_same_state(fast_m, interp_m)
        stats = fast_m.fastpath_stats
        assert (stats["compiled"], stats["hits"]) == (fused, fused)
        assert stats["misses"] == stats["fallbacks"] == stats["rejected"] == 0

    def test_loopn_is_interpreted_with_its_body_repeat_fused(self):
        def emit(machine):
            row = machine.config.row_bytes
            machine.write_data_ram(0, bytes(np.arange(8 * row, dtype=np.uint8)))
            machine.write_weight_ram(0, bytes(np.full(row, 3, np.uint8)))
            return assemble(
                "setaddr a0, 0\nsetaddr a1, 0\n"
                "loopn 3\n"
                "  loop 24 {\n    mac.uint8 dram[a0], wtram[a1]\n  }\n"
                "  rotl n0, n0, 1\n"
                "endloop\nhalt"
            )

        fast, _ = _differential(emit)
        # Only the loop body, a run of two words, compiles; the loop runs on
        # the interpreter and takes the fused run once per trip.
        assert fast.fastpath_stats["compiled"] == 1
        assert fast.fastpath_stats["rejected"] == 0
        assert fast.fastpath_stats["hits"] == 3
        assert fast.fastpath_stats["fused_trips"] == 3 * 25


def test_nkl_emitters_emit_no_hardware_loop():
    # The measured fact single-form fusion rests on: every NKL emitter
    # spells its loops as hardware repeats.  A looping emitter must reopen
    # that decision here instead of silently interpreting.
    assert set(catalog_emitters()) == {n for n in dir(nkl_programs) if n.startswith("emit_")}
    for kind in catalog_kinds():
        program, _ = kind.emit(Ncore(fastpath=False))
        assert all(i.seq.opcode is not SeqOpcode.LOOP_BEGIN for i in program), kind.name


@pytest.mark.parametrize("body, blockers", [
    ("mac.uint8 dram[a0], wtram[a1], zoff", ()),
    ("broadcast64 n1, wtram[a3], a5, inc | max.int8 dlast, n1", ()),
    ("sub.uint8 n0, zero", ()),
    ("mac.bf16 dram[a0], wtram[a1]", ("npu.bf16",)),
    ("add.int16 dram[a0], zero", ("npu.int16",)),
    ("xor.uint8 dram[a0], wtram[a1]", ("npu.xor",)),
    ("cmpgt.uint8 dram[a0], wtram[a1], pred1", ("npu.cmpgt", "npu.predicate")),
    ("mac.uint8 dram[a0], wtram[a1], noacc", ("npu.noacc",)),
    ("mac.uint8 dram[a0], wtram[a1], pred2", ("npu.predicate",)),
    ("mac.uint8 dram[a0]>>1, wtram[a1]", ("npu.data-shift",)),
    ("mac.uint8 dram[a0], wtram[a1], neighbor", ("npu.from-neighbor",)),
    ("mac.uint8 dram[a0], wtram[a1] | requant.uint8", ()),
    # An NDU op streams a RAM row or rotates its own register; the NPU
    # reads RAM, zero, a register after commit or dlast.
    ("rotl n0, n0, 1 | rotr n2, wtram[a1], 3 | mac.int8 dlast, n2", ()),
    ("bypass n1, n0", ("ndu.source.NDU_REG",)),
    ("rotl n1, n0, 1", ("ndu.source.NDU_REG",)),
    ("bypass n1, n1", ("ndu.source.NDU_REG",)),
    ("broadcast64 n1, n1, a5, inc", ("ndu.source.NDU_REG",)),
    ("bypass n1, zero", ("ndu.source.ZERO",)),
    ("bypass n1, dlast", ("ndu.source.DLAST",)),
    ("bypass n1, #3", ("ndu.source.IMMEDIATE",)),
    ("bypass n1, out_lo", ("ndu.source.OUT_LOW",)),
    ("add.uint8 dram[a0], #3", ("npu.source.IMMEDIATE",)),
    ("max.uint8 out_hi, zero", ("npu.source.OUT_HIGH",)),
    # The accumulator clear joins a run; with offsets it is no clear.
    ("mac.uint8 zero, zero, noacc", ()),
    ("max.int8 zero, zero, noacc", ()),
    ("mac.uint8 zero, zero, noacc, zoff", ("npu.noacc",)),
    # The OUT unit's integer requant and its row store join a run; a bf16
    # requant, a LUT activation and the accumulator spill do not.
    ("mac.uint8 dram[a0], wtram[a1] | requant.int16 relu6", ()),
    ("store a6, inc", ()),
    ("mac.uint8 dram[a0], wtram[a1] | requant.bf16", ("out.requant",)),
    ("requant.uint8 tanh", ("out.requant",)),
    ("storeacc a6", ("out.storeacc",)),
])
def test_fusion_blockers_name_every_unfused_form(body, blockers):
    # The one legality rule: only the 8-bit accumulating trip over
    # streamed or self-rotating rows, the clear and the integer OUT unit
    # fuse, and each reject names what keeps the repeat on the interpreter.
    (instruction,) = assemble(f"loop 8 {{\n  {body}\n}}")
    assert fastpath_mod.fusion_blockers(instruction) == blockers


def _repeat_program(body, trips):
    def emit(machine):
        row = machine.config.row_bytes
        machine.write_data_ram(0, bytes(np.arange(80 * row, dtype=np.uint8)))
        machine.write_weight_ram(0, bytes(np.arange(80 * row, dtype=np.uint8)[::-1]))
        machine.set_zero_offsets(3, 5)
        return assemble(
            "setaddr a0, 0\nsetaddr a1, 0\nsetaddr a5, 7\nbypass n0, dram[a0++]\n"
            f"loop {trips} {{\n  {body}\n}}\nhalt"
        )

    return emit


@pytest.mark.parametrize("body", [
    "rotr n0, n0, 5 | rotl n2, wtram[a1++], 7 | mac.int8 dlast, n2",
    "rotl n1, dram[a0++], 64 | rotl n2, n2, 3 | min.uint8 n1, n2",
    "broadcast64 n3, dram[a0], a5, inc | rotr n0, n0, 64 | sub.uint8 n3, n0, zoff",
])
def test_both_register_forms_fuse_identically(body):
    # Streams (a rotated or broadcast RAM row) and self-rotations either
    # way, read by the NPU directly, after commit and through dlast.
    fast, _ = _differential(_repeat_program(body, 70))
    stats = fast.fastpath_stats
    # The repeat's run starts at the prologue: three setaddr words and a latch.
    assert (stats["compiled"], stats["hits"], stats["fused_trips"]) == (1, 1, 4 + 70), stats


@pytest.mark.parametrize("body", [
    "rotl n1, n0, 1 | mac.uint8 n1, wtram[a1]",
    "bypass n1, n0 | rotl n0, n0, 2 | add.uint8 dlast, n1",
    "bypass n2, #7 | mac.uint8 dram[a0++], n2, zoff",
])
def test_rejected_forms_run_identically_on_the_interpreter(body):
    # A form the source rule rejects is compiled to nothing, counts as
    # rejected, and leaves the state the interpreter's (the four prologue
    # words before it are too short a run to compile).
    fast, _ = _differential(_repeat_program(body, MIN_FUSED_TRIPS + 4))
    stats = fast.fastpath_stats
    assert (stats["compiled"], stats["rejected"], stats["hits"]) == (0, 1, 0), stats
    assert stats["misses"] == 1, stats


class TestBf16NonFinite:
    def test_nan_and_inf_lanes_propagate_quietly_through_data_shift(self):
        # The datapath never traps: NaN stays NaN and Inf stays Inf through
        # ``data >> shift`` and the MAC, and numpy raises no "invalid value"
        # warning (suite-wide ``filterwarnings = error`` would turn one into
        # a failure).  A bf16 repeat is not a form the fast path fuses: it
        # is rejected at load and interpreted on both machines.
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
                "loop 24 {\n  mac.bf16 dram[a0]>>1, wtram[a3]\n}\nhalt"
            )

        fast, interp = _differential(emit)
        stats = fast.fastpath_stats
        assert (stats["compiled"], stats["rejected"], stats["hits"]) == (0, 1, 0)
        assert fast.acc_float.tobytes() == interp.acc_float.tobytes()
        acc = interp.acc_float
        assert np.isnan(acc[0]) and np.isnan(acc[1])
        assert acc[2] == np.inf and acc[3] == -np.inf
        assert (acc[4:] == 18.0).all()  # 24 trips of (1.5 >> 1) * 1.0


#: One Fig. 6 tap: broadcast the next weight byte, MAC the latch as it was.
_TAP = "broadcast64 n1, wtram[a3], a5, inc | mac.uint8 dlast, n1, zoff"

#: A straight-line pass in the conv programs' form, its latches mixing
#: rotations and bypasses, left and right, from the latch and from RAM,
#: with a third register riding along: 20 words, 33 trips.
_PASS = [
    f"loop 3 {{\n  {_TAP} | rotl n0, n0, 1\n}}",
    f"{_TAP} | bypass n0, dram[a0++]",
    f"loop 2 {{\n  {_TAP} | rotr n0, n0, 5 | rotl n2, n2, 3\n}}",
    f"{_TAP} | rotl n0, dram[a0++], 7",
    f"{_TAP} | rotr n2, wtram[a1++], 64",
] * 4


def _run_program(words, sat=None):
    """Staged RAM and zero offsets, a primed latch, then ``words``."""
    def emit(machine):
        rng = np.random.default_rng(7)
        row = machine.config.row_bytes
        machine.write_data_ram(0, rng.integers(0, 256, 200 * row, np.uint8).tobytes())
        machine.write_weight_ram(0, rng.integers(0, 256, 200 * row, np.uint8).tobytes())
        machine.set_zero_offsets(128, 120)
        if sat is not None:
            machine.acc_int[: row // 2] = sat
        return assemble(
            "setaddr a0, 0\nsetaddr a1, 3\nsetaddr a3, 1\nsetaddr a5, 9\n"
            "bypass n0, dram[a0++]\n" + "\n".join(words) + "\nhalt"
        )

    return emit


#: The four setaddr words and the latch ``_run_program`` puts before its words.
_PROLOGUE = 5


def _trips(words):
    return sum(i.repeat for i in assemble("\n".join(words)))


class TestFusedRuns:
    """A run is every straight-line word but sequencer control flow and
    unsupported ops: it fuses whole, and ends at each word that blocks it."""

    def test_mixed_latch_pass_is_one_run(self):
        fast, _ = _differential(_run_program(_PASS))
        stats = fast.fastpath_stats
        assert (stats["compiled"], stats["hits"], stats["fused_trips"]) == (
            1, 1, _PROLOGUE + _trips(_PASS))
        assert stats["misses"] == stats["fallbacks"] == stats["rejected"] == 0

    @pytest.mark.parametrize("joiner", [
        "requant.uint8",                # reads the accumulator mid-epoch
        "store a6, inc",                # writes data row 0, read before only
        "setaddr a5, 2",                # moves the broadcast index
        "addaddr a0, 3",                # skips latch rows
        "mac.uint8 zero, zero, noacc",  # clears: a new epoch
        "requant.uint8 relu | setaddr a6, 150",
    ])
    def test_each_joiner_joins_the_run(self, joiner):
        half = len(_PASS) // 2
        words = [*_PASS[:half], joiner, *_PASS[half:], "requant.uint8 relu6", "store a6"]
        fast, _ = _differential(_run_program(words))
        stats = fast.fastpath_stats
        assert (stats["compiled"], stats["hits"]) == (1, 1), stats
        assert stats["fused_trips"] == _PROLOGUE + _trips(words), stats
        assert stats["misses"] == stats["fallbacks"] == stats["rejected"] == 0, stats

    @pytest.mark.parametrize("breaker", [
        "bypass n2, n0 | mac.uint8 dlast, n1, zoff",  # ndu.source.NDU_REG
        "add.int16 dram[a0], zero",                   # npu.int16
        "storeacc a6",                                # out.storeacc
        "event 3",                                    # seq.event
        "mac.uint8 dlast, n1",                        # another NPU issue form
        "rotl n1, n1, 1 | mac.uint8 dlast, n1, zoff",  # rotates the broadcast register
        "broadcast64 n0, wtram[a3], a5 | mac.uint8 dlast, n1, zoff",  # a broadcast dlast
    ])
    def test_each_breaker_ends_the_run(self, breaker):
        fast, _ = _differential(_run_program([*_PASS, breaker, *_PASS]))
        stats = fast.fastpath_stats
        assert (stats["compiled"], stats["hits"]) == (2, 2), stats
        assert stats["fused_trips"] == _PROLOGUE + 2 * _trips(_PASS), stats
        assert stats["misses"] == stats["fallbacks"] == stats["rejected"] == 0, stats

    def test_unevenly_advancing_stream_reads_each_row(self):
        # The NPU's RAM row advances on one word in four trips: no stride
        # describes it, so each trip's row is gathered.
        words = ["loop 3 {\n  mac.uint8 dram[a0], wtram[a1++]\n}",
                 "bypass n2, dram[a0++] | mac.uint8 dram[a0], wtram[a1++]"] * 9
        fast, _ = _differential(_run_program(words))
        stats = fast.fastpath_stats
        assert (stats["hits"], stats["fused_trips"]) == (1, _PROLOGUE + _trips(words)), stats

    def test_an_iram_chunk_splits_a_run(self):
        # 300 words: the bank chunk ends inside the run, which fuses as
        # two runs, one per chunk, with the chunk's halt between them.
        words = _PASS * 15
        fast, _ = _differential(_run_program(words), streamed=True)
        stats = fast.fastpath_stats
        assert (stats["compiled"], stats["hits"]) == (2, 2), stats
        assert stats["fused_trips"] == _PROLOGUE + _trips(words), stats

    def test_an_iram_chunk_cut_inside_an_epoch_carries_its_accumulator(self):
        # run_streamed cuts chunks regardless of runs: here the cut falls
        # between the taps of one epoch (after its clear, before its
        # requant), so the first chunk's run commits a partial accumulator
        # and the second's folds on from it across the halt.
        words = ["mac.uint8 zero, zero, noacc", *_PASS * 14,
                 "requant.uint8 relu", "store a6, inc", "mac.uint8 zero, zero, noacc",
                 *_PASS, "requant.uint8", "store a6, inc"]
        fast, interp = _differential(_run_program(words), streamed=True)
        cut = fast.iram.bank_instructions - 1  # where run_streamed's first chunk ends
        program = _run_program(words)(Ncore())
        clear, requant = _PROLOGUE, _PROLOGUE + 1 + 14 * len(_PASS)
        assert not program[clear].npu.accumulate and program[requant].out is not None
        assert clear < cut < requant
        stats = fast.fastpath_stats
        assert (stats["compiled"], stats["hits"], stats["fallbacks"]) == (2, 2, 0), stats
        assert stats["fused_trips"] == _PROLOGUE + _trips(words), stats
        assert interp.data_ram.data[:2].any()

    @pytest.mark.parametrize("ram, fused", [("data", True), ("weight", False)])
    def test_ecc_injection_under_a_run(self, ram, fused):
        # A run that stores over a row with an injected bit flip re-encodes
        # its ECC as write_row does; one reading a RAM with a pending
        # correction falls back, and the interpreter corrects it.
        def emit(machine):
            row = machine.config.row_bytes
            machine.write_weight_ram(0, bytes(np.arange(30 * row, dtype=np.uint8)))
            getattr(machine, f"{ram}_ram").inject_bit_error(7, 5, 3)
            return assemble("setaddr a1, 0\nsetaddr a6, 7\n"
                            "loop 24 {\n  add.uint8 wtram[a1++], zero\n}\n"
                            "requant.uint8\nstore a6\nhalt")

        fast, interp = _differential(emit)
        stats = fast.fastpath_stats
        assert (stats["hits"], stats["fallbacks"]) == ((1, 0) if fused else (0, 1)), stats
        for name in ("data_ram", "weight_ram"):
            a, b = getattr(fast, name), getattr(interp, name)
            assert (a._injected, a.corrected_errors, a.writes) == (
                b._injected, b.corrected_errors, b.writes), name
        assert not fast.data_ram._injected

    def test_saturating_block_commits_nothing(self):
        # 1 400 trips of 255 x 255 in two words: the blocks of trips that
        # keep the preloaded half below ACC_MAX are proven, the next could
        # saturate, so the run commits none of them and the interpreter
        # runs it whole, saturating the preloaded half.
        words = ["loop 700 {\n  rotl n0, n0, 1 | mac.uint8 dram[a4], wtram[a4]\n}",
                 "loop 700 {\n  rotr n0, n0, 3 | mac.uint8 dram[a4], wtram[a4]\n}"]

        def emit(machine):
            row = machine.config.row_bytes
            program = _run_program(words, sat=ACC_MAX - 80_000_000)(machine)
            machine.write_data_ram(0, bytes([255]) * row)
            machine.write_weight_ram(0, bytes([255]) * row)
            return program

        fast, interp = _differential(emit)
        stats = fast.fastpath_stats
        block = fastpath_mod._BLOCK_TARGET_BYTES // (4 * fast.config.row_bytes)
        proven = 80_000_000 // (255 * 255) // block * block
        assert 700 < proven < 1400
        assert (stats["hits"], stats["fallbacks"], stats["fused_trips"]) == (0, 1, 0), stats
        half = fast.config.row_bytes // 2
        assert (interp.acc_int[:half] == ACC_MAX).all()

    def _stepped(self, fastpath, configure, budget=100_000_000):
        machine = Ncore(fastpath=fastpath)
        program = _run_program(_PASS)(machine)
        machine.load_program(program)
        configure(machine)
        trail = []
        while not machine.halted:
            result = machine.run(budget)
            trail.append((result.stop_reason, machine.total_cycles, machine.pc))
            if len(trail) > 10_000:  # pragma: no cover - runaway guard
                pytest.fail("machine failed to make progress")
        return machine, trail

    @pytest.mark.parametrize("configure", [
        # The instructions counter wraps on the run's eighth word.
        lambda m: m.perf_counters["instructions"].configure(
            offset=(1 << 48) - 12, break_on_wrap=True),
        lambda m: setattr(m, "n_step", 7),
    ], ids=["instructions_wrap", "n_step"])
    def test_debug_stops_inside_a_run_match(self, configure):
        fast_m, fast_trail = self._stepped(True, configure)
        interp_m, interp_trail = self._stepped(False, configure)
        assert fast_trail == interp_trail
        assert fast_trail[0][0] in ("perf_counter", "n_step")
        assert 5 <= fast_trail[0][2] < 5 + len(_PASS)  # the first stop lands inside the run
        _assert_same_state(fast_m, interp_m)
        assert fast_m.fastpath_stats["fallbacks"] >= 1

    def test_budget_slices_inside_a_run_match(self):
        # step() checks its budget between words: a run that does not fit
        # the budget is interpreted whole, stopping where the interpreter does.
        fast_m, fast_trail = self._stepped(True, lambda m: None, budget=10)
        interp_m, interp_trail = self._stepped(False, lambda m: None, budget=10)
        assert fast_trail == interp_trail
        assert fast_trail[0][0] == "cycle_budget" and 5 < fast_trail[0][2] < 5 + len(_PASS)
        _assert_same_state(fast_m, interp_m)
        stats = fast_m.fastpath_stats
        assert (stats["hits"], stats["fallbacks"], stats["fused_trips"]) == (0, 1, 0), stats


class TestSaturationFallback:
    def test_block_that_could_saturate_is_interpreted(self):
        # The fused sum is exact only under its static no-overflow bound.
        # Accumulators preloaded near ACC_MAX fail it: the run commits
        # nothing and the interpreter runs it whole, saturating.
        def emit(machine):
            row = machine.config.row_bytes
            machine.write_data_ram(0, bytes([255]) * row)
            machine.write_weight_ram(0, bytes([255]) * row)
            machine.acc_int[: row // 2] = ACC_MAX - 100_000
            return assemble(
                "setaddr a0, 0\nsetaddr a1, 0\n"
                "loop 24 {\n  mac.uint8 dram[a0], wtram[a1]\n}\nhalt"
            )

        fast, interp = _differential(emit)
        stats = fast.fastpath_stats
        assert (stats["compiled"], stats["hits"]) == (1, 0)
        assert stats["fallbacks"] == 1 and stats["fused_trips"] == 0
        half = fast.config.row_bytes // 2
        assert (interp.acc_int[:half] == ACC_MAX).all()
        assert (interp.acc_int[half:] == 24 * 255 * 255).all()


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
        # A run that does not fit the slice is interpreted, so every stop
        # lands where the interpreter's does.
        assert fast_trail == interp_trail
        assert fast_trail[-1][1] == 517
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
