"""Machine-validation of emitted kernel programs.

Every test runs a real instruction program on the Ncore simulator and
compares the stored results bit-exactly against the numpy quantized
reference — the same methodology the paper used (instruction simulator as
golden model, section V-E).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import QuantParams, NcoreDType
from repro.ncore import Ncore
from repro.nkl.programs import (
    ProgramShapeError,
    emit_conv1d_rotate_program,
    emit_tiled_matmul_program,
    pack_weight_row,
    tile_data_row,
)
from repro.runtime.qkernels import qfully_connected


def qp(scale, zp):
    return QuantParams(scale=scale, zero_point=zp, dtype=NcoreDType.UINT8)


@pytest.fixture
def machine():
    return Ncore()


class TestLayoutHelpers:
    def test_tile_data_row_repeats_64_times(self):
        row = tile_data_row(np.arange(10, dtype=np.uint8))
        assert row.shape == (4096,)
        for g in range(64):
            np.testing.assert_array_equal(row[g * 64 : g * 64 + 10], np.arange(10))

    def test_tile_rejects_oversize(self):
        with pytest.raises(ProgramShapeError):
            tile_data_row(np.zeros(65, dtype=np.uint8))

    def test_pack_weight_row_layout(self):
        w = np.arange(12, dtype=np.uint8).reshape(3, 4)
        row = pack_weight_row(w)
        for g in range(3):
            np.testing.assert_array_equal(row[g * 64 : g * 64 + 4], w[g])


class TestMatmulProgram:
    def _run(self, machine, data, weights, in_qp, w_qp, out_qp, activation="none"):
        program, result = emit_tiled_matmul_program(
            machine, data, weights, in_qp, w_qp, out_qp, activation
        )
        run = machine.execute_program(program)
        assert run.halted
        return result.read(machine), run

    def test_small_matmul_matches_reference(self, machine):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 255, size=(8, 16)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(16, 4)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.02, 128), qp(0.01, 110), qp(0.05, 7)
        out, _ = self._run(machine, data, weights, in_qp, w_qp, out_qp)
        expected = qfully_connected(data, weights, None, in_qp, w_qp, out_qp)
        np.testing.assert_array_equal(out, expected)

    def test_deep_reduction_spans_weight_rows(self, machine):
        # c = 150 > 64 exercises the multi-weight-row path.
        rng = np.random.default_rng(4)
        data = rng.integers(0, 255, size=(64, 150)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(150, 64)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.004, 128), qp(0.004, 128), qp(0.02, 0)
        out, _ = self._run(machine, data, weights, in_qp, w_qp, out_qp)
        expected = qfully_connected(data, weights, None, in_qp, w_qp, out_qp)
        np.testing.assert_array_equal(out, expected)

    def test_relu_activation(self, machine):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 255, size=(4, 8)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(8, 4)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.02, 128), qp(0.02, 128), qp(0.02, 100)
        out, _ = self._run(machine, data, weights, in_qp, w_qp, out_qp, "relu")
        expected = qfully_connected(data, weights, None, in_qp, w_qp, out_qp, "relu")
        np.testing.assert_array_equal(out, expected)
        assert (out >= 100).all()  # clamped at the output zero point

    def test_inner_loop_cycle_count(self, machine):
        # The reduction loop must run one clock per input channel, as the
        # paper claims for the Fig. 6 fused instruction.
        data = np.zeros((8, 32), dtype=np.uint8)
        weights = np.zeros((32, 8), dtype=np.uint8)
        in_qp = w_qp = out_qp = qp(1.0, 0)
        _, run = self._run(machine, data, weights, in_qp, w_qp, out_qp)
        # clear + setaddr(2) + per-chunk setup(2) + 32 fused + out setup(1)
        # + requant(1) + store(1) + halt(1)
        assert run.cycles == 2 + 2 + 32 + 1 + 1 + 1 + 1

    def test_shape_limits_enforced(self, machine):
        # One reduction row per c plus an output row exceeds the data RAM.
        rows = machine.config.sram_rows
        with pytest.raises(ProgramShapeError):
            emit_tiled_matmul_program(
                machine,
                np.zeros((1, rows), np.uint8),
                np.zeros((rows, 4), np.uint8),
                qp(1, 0), qp(1, 0), qp(1, 0),
            )

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 16),
        st.integers(1, 96),
        st.integers(1, 16),
        st.integers(0, 10**6),
    )
    def test_random_shapes_match_reference(self, m, c, n, seed):
        rng = np.random.default_rng(seed)
        machine = Ncore()
        data = rng.integers(0, 255, size=(m, c)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(c, n)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.02, 128), qp(0.015, 120), qp(0.21, 3)
        program, result = emit_tiled_matmul_program(
            machine, data, weights, in_qp, w_qp, out_qp
        )
        machine.execute_program(program)
        out = result.read(machine)
        expected = qfully_connected(data, weights, None, in_qp, w_qp, out_qp)
        np.testing.assert_array_equal(out, expected)


class TestConv1dRotateProgram:
    def test_matches_numpy_correlation(self, machine):
        rng = np.random.default_rng(9)
        taps, w_out, k = 3, 30, 8
        data = rng.integers(0, 255, size=(w_out + taps - 1,)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(k, taps)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.02, 128), qp(0.02, 128), qp(0.1, 30)
        program, result = emit_conv1d_rotate_program(
            machine, data, weights, in_qp, w_qp, out_qp
        )
        machine.execute_program(program)
        out = result.read(machine)
        # numpy reference: valid correlation per output channel.
        d = data.astype(np.int64) - 128
        for ch in range(k):
            wt = weights[ch].astype(np.int64) - 128
            acc = np.array(
                [np.dot(d[x : x + taps], wt) for x in range(w_out)], dtype=np.int32
            )
            from repro.dtypes import quantize_multiplier, requantize

            mult, shift = quantize_multiplier(in_qp.scale * w_qp.scale / out_qp.scale)
            ref = requantize(acc, mult, shift, out_qp.zero_point, out_qp.dtype)
            np.testing.assert_array_equal(out[:, ch], ref)

    def test_one_cycle_per_tap(self, machine):
        data = np.zeros(34, dtype=np.uint8)
        weights = np.zeros((4, 3), dtype=np.uint8)
        program, _ = emit_conv1d_rotate_program(
            machine, data, weights, qp(1, 0), qp(1, 0), qp(1, 0)
        )
        run = machine.execute_program(program)
        # 3 setaddr + bypass + 3 fused taps + setaddr + requant + store + halt
        assert run.cycles == 3 + 1 + 3 + 1 + 1 + 1 + 1

    def test_halo_must_fit_tile(self, machine):
        with pytest.raises(ProgramShapeError):
            emit_conv1d_rotate_program(
                machine,
                np.zeros(70, np.uint8),
                np.zeros((4, 3), np.uint8),
                qp(1, 0), qp(1, 0), qp(1, 0),
            )
