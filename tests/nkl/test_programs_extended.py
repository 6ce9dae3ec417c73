"""Machine validation of the extended kernel programs: tiled matmuls,
pooling and elementwise adds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import (
    ChannelQuantParams,
    NcoreDType,
    QuantParams,
    dequantize,
    quantize_multiplier,
    requantize,
)
from repro.ncore import Ncore
from repro.nkl.programs import (
    ProgramShapeError,
    emit_conv1d_rotate_program,
    emit_conv2d_program,
    emit_depthwise_program,
    emit_elementwise_add_program,
    emit_max_pool_rows_program,
    emit_tiled_matmul_program,
)
from repro.runtime.qkernels import qfully_connected


def qp(scale, zp):
    return QuantParams(scale=scale, zero_point=zp, dtype=NcoreDType.UINT8)


class TestTiledMatmul:
    def _check(self, m, c, n, seed=0, activation="none"):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 255, size=(m, c)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(c, n)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.01, 128), qp(0.01, 128), qp(0.05, 8)
        machine = Ncore()
        program, result = emit_tiled_matmul_program(
            machine, data, weights, in_qp, w_qp, out_qp, activation
        )
        run = machine.execute_program(program)
        assert run.halted
        out = result.read(machine)
        expected = qfully_connected(
            data, weights, None, in_qp, w_qp, out_qp, activation
        )
        np.testing.assert_array_equal(out, expected)
        return run

    def test_multi_row_tiles(self):
        # M = 100 > 64: two row tiles.
        self._check(m=100, c=32, n=16)

    def test_multi_col_tiles(self):
        # N = 100 > 64: two column tiles.
        self._check(m=16, c=32, n=100)

    def test_both_dimensions_tiled_with_deep_reduction(self):
        self._check(m=80, c=130, n=70, seed=3)

    def test_with_relu(self):
        self._check(m=70, c=16, n=70, seed=4, activation="relu")

    @settings(max_examples=6, deadline=None)
    @given(st.integers(1, 140), st.integers(1, 70), st.integers(1, 140), st.integers(0, 10**6))
    def test_random_tiled_shapes(self, m, c, n, seed):
        self._check(m, c, n, seed)

    def test_capacity_guard(self):
        machine = Ncore()
        with pytest.raises(ProgramShapeError):
            emit_tiled_matmul_program(
                machine,
                np.zeros((4096, 2000), np.uint8),
                np.zeros((2000, 64), np.uint8),
                qp(1, 0), qp(1, 0), qp(1, 0),
            )


class TestMaxPoolRows:
    def test_reduces_rows_to_elementwise_max(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 255, size=(6, 4096)).astype(np.uint8)
        machine = Ncore()
        program, out_row = emit_max_pool_rows_program(machine, rows)
        machine.execute_program(program)
        out = np.frombuffer(machine.read_data_ram(out_row * 4096, 4096), np.uint8)
        np.testing.assert_array_equal(out, rows.max(axis=0))

    def test_one_cycle_per_row(self):
        rows = np.zeros((10, 4096), dtype=np.uint8)
        machine = Ncore()
        program, _ = emit_max_pool_rows_program(machine, rows)
        run = machine.execute_program(program)
        # setaddr + clear + 10 fused MAX + setaddr + requant + store + halt
        assert run.cycles == 1 + 1 + 10 + 1 + 1 + 1 + 1

    def test_partial_rows_rejected(self):
        machine = Ncore()
        with pytest.raises(ProgramShapeError):
            emit_max_pool_rows_program(machine, np.zeros((2, 100), np.uint8))


class TestElementwiseAdd:
    def test_matches_requantized_sum(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 255, 4096).astype(np.uint8)
        b = rng.integers(0, 255, 4096).astype(np.uint8)
        in_qp, out_qp = qp(0.02, 128), qp(0.05, 10)
        machine = Ncore()
        program, out_row = emit_elementwise_add_program(machine, a, b, in_qp, out_qp)
        machine.execute_program(program)
        out = np.frombuffer(machine.read_data_ram(out_row * 4096, 4096), np.uint8)
        acc = (a.astype(np.int64) - 128) + (b.astype(np.int64) - 128)
        mult, shift = quantize_multiplier(in_qp.scale / out_qp.scale)
        expected = requantize(acc.astype(np.int32), mult, shift, 10, NcoreDType.UINT8)
        np.testing.assert_array_equal(out, expected)

    def test_real_value_semantics(self):
        in_qp, out_qp = qp(0.1, 0), qp(0.2, 0)
        a = np.full(4096, 30, np.uint8)  # 3.0
        b = np.full(4096, 40, np.uint8)  # 4.0
        machine = Ncore()
        program, out_row = emit_elementwise_add_program(machine, a, b, in_qp, out_qp)
        machine.execute_program(program)
        out = np.frombuffer(machine.read_data_ram(out_row * 4096, 4096), np.uint8)
        assert dequantize(out[:1], out_qp)[0] == pytest.approx(7.0, abs=0.2)

    def test_single_cycle_compute(self):
        machine = Ncore()
        program, _ = emit_elementwise_add_program(
            machine, np.zeros(4096, np.uint8), np.zeros(4096, np.uint8), qp(1, 0), qp(1, 0)
        )
        run = machine.execute_program(program)
        # add + setaddr + requant + store + halt
        assert run.cycles == 5


class TestConv2dProgram:
    """Full 2-D quantized convolution on the instruction simulator vs the
    numpy quantized reference (qconv2d) — bit-exact."""

    def _check(self, h, w, cin, cout, k, padding, seed=0, activation="none",
               stride=(1, 1)):
        from repro.nkl.programs import emit_conv2d_program, run_streamed
        from repro.runtime.qkernels import qconv2d

        rng = np.random.default_rng(seed)
        x = rng.integers(0, 255, size=(1, h, w, cin)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(k, k, cin, cout)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.02, 128), qp(0.01, 120), qp(0.3, 5)
        machine = Ncore()
        program, result = emit_conv2d_program(
            machine, x, weights, in_qp, w_qp, out_qp,
            padding=padding, stride=stride, activation=activation,
        )
        run = run_streamed(machine, program)
        assert run.halted
        out = result.read(machine)
        expected = qconv2d(
            x, weights, None, in_qp, w_qp, out_qp,
            stride=stride, padding=padding, activation=activation,
        )
        np.testing.assert_array_equal(out, expected)
        return run, machine

    def test_3x3_same_padding(self):
        self._check(h=6, w=6, cin=4, cout=16, k=3, padding=((1, 1), (1, 1)))

    def test_3x3_valid(self):
        self._check(h=8, w=8, cin=3, cout=8, k=3, padding=((0, 0), (0, 0)), seed=2)

    def test_5x5_filter(self):
        self._check(h=6, w=6, cin=2, cout=12, k=5, padding=((2, 2), (2, 2)), seed=3)

    def test_1x1_pointwise(self):
        self._check(h=4, w=7, cin=32, cout=64, k=1, padding=((0, 0), (0, 0)), seed=4)

    def test_with_relu(self):
        self._check(h=5, w=5, cin=4, cout=8, k=3, padding=((1, 1), (1, 1)),
                    seed=5, activation="relu")

    def test_asymmetric_padding(self):
        # The TF 'SAME' asymmetric case: extra pixel bottom/right.
        self._check(h=6, w=6, cin=2, cout=4, k=3, padding=((0, 1), (0, 1)), seed=6)

    def test_inner_loops_one_cycle_per_tap(self):
        run, machine = self._check(
            h=4, w=4, cin=2, cout=4, k=3, padding=((1, 1), (1, 1)), seed=7
        )
        # Fused MAC issues = passes * kh * cin * kw taps, plus one
        # accumulator-clear MAC per pass, one clock each.  The 4-wide
        # output packs into 8-lane slots, so its 4 rows are one pass.
        assert machine.total_macs == (1 * 3 * 2 * 3 + 1) * 4096

    def test_stride2_stem_like(self):
        # The classic stem: 3x3 stride-2 with SAME padding.
        self._check(h=9, w=9, cin=3, cout=16, k=3,
                    padding=((1, 1), (1, 1)), stride=(2, 2), seed=8)

    def test_stride2_valid_7x7(self):
        # A 7x7/2 VALID conv on a pre-padded input (the ResNet stem form).
        self._check(h=15, w=15, cin=1, cout=8, k=7,
                    padding=((0, 0), (0, 0)), stride=(2, 2), seed=9)

    def test_stride2_pointwise(self):
        self._check(h=8, w=8, cin=4, cout=8, k=1,
                    padding=((0, 0), (0, 0)), stride=(2, 2), seed=10)

    def test_unsupported_stride_rejected(self):
        from repro.nkl.programs import ProgramShapeError, emit_conv2d_program

        with pytest.raises(ProgramShapeError):
            emit_conv2d_program(
                Ncore(),
                np.zeros((1, 8, 8, 2), np.uint8),
                np.zeros((3, 3, 2, 4), np.uint8),
                qp(1, 0), qp(1, 0), qp(1, 0),
                stride=(3, 3),
            )

    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(3, 7),
        st.integers(3, 7),
        st.integers(1, 5),
        st.integers(1, 24),
        st.sampled_from([1, 3]),
        st.sampled_from([1, 2]),
        st.integers(0, 10**6),
    )
    def test_random_small_convolutions(self, h, w, cin, cout, k, stride, seed):
        pad = k // 2
        self._check(h, w, cin, cout, k, ((pad, pad), (pad, pad)), seed,
                    stride=(stride, stride))


class TestDepthwiseProgram:
    """Depthwise convolution on the simulator vs qdepthwise — bit-exact."""

    def _check(self, h, w, c, k, padding, seed=0, activation="none"):
        from repro.nkl.programs import emit_depthwise_program, run_streamed
        from repro.runtime.qkernels import qdepthwise

        rng = np.random.default_rng(seed)
        x = rng.integers(0, 255, size=(1, h, w, c)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(k, k, c)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.02, 128), qp(0.01, 120), qp(0.5, 5)
        machine = Ncore()
        program, result = emit_depthwise_program(
            machine, x, weights, in_qp, w_qp, out_qp,
            padding=padding, activation=activation,
        )
        run = run_streamed(machine, program)
        assert run.halted
        out = result.read(machine)
        expected = qdepthwise(
            x, weights, None, in_qp, w_qp, out_qp,
            stride=(1, 1), padding=padding, activation=activation,
        )
        np.testing.assert_array_equal(out, expected)
        return run, machine

    def test_3x3_same(self):
        self._check(h=8, w=8, c=16, k=3, padding=((1, 1), (1, 1)))

    def test_many_channels_one_pass(self):
        self._check(h=6, w=6, c=64, k=3, padding=((1, 1), (1, 1)), seed=2)

    def test_with_relu6(self):
        self._check(h=5, w=5, c=8, k=3, padding=((1, 1), (1, 1)),
                    seed=3, activation="relu6")

    def test_channel_count_does_not_change_cycles(self):
        # The depthwise property: kh*kw taps per pass, independent
        # of the channel count — exactly why its MACs/cycle is low.
        run_few, _ = self._check(h=6, w=6, c=4, k=3, padding=((1, 1), (1, 1)))
        run_many, _ = self._check(h=6, w=6, c=64, k=3, padding=((1, 1), (1, 1)))
        assert run_few.cycles == run_many.cycles

    @settings(max_examples=6, deadline=None)
    @given(
        st.integers(3, 8), st.integers(3, 8), st.integers(1, 64),
        st.sampled_from([1, 3]), st.integers(0, 10**6),
    )
    def test_random_depthwise(self, h, w, c, k, seed):
        pad = k // 2
        self._check(h, w, c, k, ((pad, pad), (pad, pad)), seed)


class TestAvgPoolProgram:
    def test_matches_rounded_mean(self):
        from repro.nkl.programs import emit_avg_pool_program

        rng = np.random.default_rng(7)
        rows = rng.integers(0, 255, size=(4, 4096)).astype(np.uint8)
        machine = Ncore()
        program, out_row = emit_avg_pool_program(machine, rows)
        machine.execute_program(program)
        out = np.frombuffer(machine.read_data_ram(out_row * 4096, 4096), np.uint8)
        exact = rows.astype(np.int64).sum(axis=0) / 4
        # The requantizer's fixed-point rounding is within 1 code of the
        # true mean.
        assert np.abs(out.astype(np.int64) - np.round(exact)).max() <= 1

    def test_constant_rows_average_exactly(self):
        from repro.nkl.programs import emit_avg_pool_program

        rows = np.stack([np.full(4096, v, np.uint8) for v in (10, 20, 30)])
        machine = Ncore()
        program, out_row = emit_avg_pool_program(machine, rows)
        machine.execute_program(program)
        out = np.frombuffer(machine.read_data_ram(out_row * 4096, 4096), np.uint8)
        assert (out == 20).all()


def _channel_qp(n):
    """Per-output-column weight parameters over a (C, N) matrix's N axis."""
    return ChannelQuantParams(
        scales=tuple(0.005 * (1 + g) for g in range(n)),
        zero_points=(128,) * n,
        axis=1,
    )


class TestPerChannelRequantOnMachine:
    """Per-channel weight quantization through the OUT unit's per-lane
    registers, bit-exact against the per-channel fast model."""

    def test_per_channel_matmul_matches_fast_model(self):
        rng = np.random.default_rng(11)
        m, c, n = 16, 24, 8
        data = rng.integers(0, 255, size=(m, c)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(c, n)).astype(np.uint8)
        in_qp = qp(0.02, 128)
        w_qp = _channel_qp(n)
        out_qp = qp(0.3, 9)
        machine = Ncore()
        program, result = emit_tiled_matmul_program(
            machine, data, weights, in_qp, w_qp, out_qp
        )
        machine.execute_program(program)
        expected = qfully_connected(data, weights, None, in_qp, w_qp, out_qp)
        np.testing.assert_array_equal(result.read(machine), expected)

    def test_mismatched_channel_count_rejected(self):
        w_qp = ChannelQuantParams((0.1, 0.2), (0, 0), axis=1)
        with pytest.raises(ProgramShapeError):
            emit_tiled_matmul_program(
                Ncore(),
                np.zeros((4, 8), np.uint8),
                np.zeros((8, 4), np.uint8),  # 4 columns, 2 channel params
                qp(1, 0), w_qp, qp(1, 0),
            )


_Q = qp(0.02, 128)

#: emitter -> a call with per-channel weight parameters; only the W x K
#: matmul maps its weight axis 1 onto the per-lane registers, and only
#: for one pass of output columns.
_PER_CHANNEL_CALLS = {
    "emit_tiled_matmul_program": lambda m: emit_tiled_matmul_program(
        m, np.ones((4, 8), np.uint8), np.ones((8, 70), np.uint8), _Q, _channel_qp(70), _Q),
    "emit_conv2d_program": lambda m: emit_conv2d_program(
        m, np.ones((1, 6, 6, 2), np.uint8), np.ones((3, 3, 2, 4), np.uint8),
        _Q, _channel_qp(4), _Q),
    "emit_depthwise_program": lambda m: emit_depthwise_program(
        m, np.ones((1, 6, 6, 4), np.uint8), np.ones((3, 3, 4), np.uint8),
        _Q, _channel_qp(4), _Q),
    "emit_conv1d_rotate_program": lambda m: emit_conv1d_rotate_program(
        m, np.ones(12, np.uint8), np.ones((4, 3), np.uint8), _Q, _channel_qp(4), _Q),
}


@pytest.mark.parametrize("emitter", sorted(_PER_CHANNEL_CALLS))
def test_per_channel_params_beyond_the_template_raise_a_shape_error(emitter):
    # Not an AttributeError on ``weight_qp.scale``: the shape error names
    # what the template cannot map.
    with pytest.raises(ProgramShapeError):
        _PER_CHANNEL_CALLS[emitter](Ncore())
