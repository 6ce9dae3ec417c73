"""Tests for the quantized kernels, including the cross-check against the
instruction-level Ncore simulator (fast model == machine, bit-exact)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import NcoreDType, QuantParams, dequantize, quantize
from repro.runtime.qkernels import (
    qadd,
    qavg_pool,
    qconv2d,
    qdepthwise,
    qfully_connected,
    qmax_pool,
    qrequant,
)
from tests.helpers import quant_range


def qp(scale, zp, dtype=NcoreDType.UINT8):
    return QuantParams(scale=scale, zero_point=zp, dtype=dtype)


class TestQFullyConnectedVsMachine:
    """The decisive test: numpy fast model == Ncore instruction simulator."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 80), st.integers(1, 12), st.integers(0, 10**6))
    def test_bit_exact_against_simulator(self, m, c, n, seed):
        from repro.ncore import Ncore
        from repro.nkl.programs import emit_matmul_program

        rng = np.random.default_rng(seed)
        data = rng.integers(0, 255, size=(m, c)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(c, n)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.02, 128), qp(0.01, 99), qp(0.07, 11)
        fast = qfully_connected(data, weights, None, in_qp, w_qp, out_qp)
        machine = Ncore()
        program, result = emit_matmul_program(machine, data, weights, in_qp, w_qp, out_qp)
        machine.execute_program(program)
        np.testing.assert_array_equal(fast, result.read(machine))


class TestQConv2d:
    def test_tracks_float_conv(self):
        rng = np.random.default_rng(1)
        x_f = rng.uniform(0, 1, size=(1, 6, 6, 4)).astype(np.float32)
        w_f = rng.normal(size=(3, 3, 4, 8)).astype(np.float32) * 0.2
        in_qp = qp(1 / 255, 0)
        w_range = float(w_f.max() - w_f.min())
        w_qp = qp(w_range / 255, int(-w_f.min() / (w_range / 255)))
        from repro.graph.reference import conv2d as conv_f

        expected = conv_f(x_f, w_f, padding=((1, 1), (1, 1)))
        e_range = float(expected.max() - expected.min())
        out_qp = qp(e_range / 255, int(-expected.min() / (e_range / 255)))
        out_q = qconv2d(
            quantize(x_f, in_qp), quantize(w_f, w_qp), None,
            in_qp, w_qp, out_qp, padding=((1, 1), (1, 1)),
        )
        err = np.abs(dequantize(out_q, out_qp) - expected)
        assert err.max() < 6 * out_qp.scale

    def test_padding_contributes_zero_real_value(self):
        # With an asymmetric zero point, padded taps must behave as 0.0.
        x = np.full((1, 2, 2, 1), 130, np.uint8)
        w = np.full((3, 3, 1, 1), 200, np.uint8)
        in_qp, w_qp, out_qp = qp(0.1, 128), qp(0.1, 100), qp(1.0, 0)
        out = qconv2d(x, w, None, in_qp, w_qp, out_qp, padding=((1, 1), (1, 1)))
        # Corner output: only 4 valid taps -> 4 * (2*0.1) * (100*0.1) = wait
        # (130-128)*0.1 = 0.2 ; (200-100)*0.1 = 10 ; 4 taps * 2.0 = 8.0
        assert dequantize(out, out_qp)[0, 0, 0, 0] == pytest.approx(8.0, abs=1.0)

    def test_relu6_clamps_at_quantized_six(self):
        x = np.full((1, 1, 1, 1), 255, np.uint8)
        w = np.full((1, 1, 1, 1), 255, np.uint8)
        in_qp, w_qp = qp(0.1, 0), qp(0.1, 0)
        out_qp = qp(0.05, 0)
        out = qconv2d(x, w, None, in_qp, w_qp, out_qp, activation="relu6")
        assert dequantize(out, out_qp)[0, 0, 0, 0] == pytest.approx(6.0, abs=0.05)

    def test_bias_applied_in_accumulator_units(self):
        x = np.full((1, 1, 1, 1), 10, np.uint8)
        w = np.full((1, 1, 1, 1), 10, np.uint8)
        in_qp, w_qp, out_qp = qp(0.5, 0), qp(0.5, 0), qp(0.25, 0)
        # bias of 5.0 real = 5.0 / (0.5*0.5) = 20 accumulator units
        out = qconv2d(x, w, np.array([20], np.int32), in_qp, w_qp, out_qp)
        assert dequantize(out, out_qp)[0, 0, 0, 0] == pytest.approx(30.0, abs=0.3)


class TestQDepthwise:
    def test_matches_per_channel_conv(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 255, size=(1, 5, 5, 3)).astype(np.uint8)
        w = rng.integers(0, 255, size=(3, 3, 3)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.02, 128), qp(0.02, 128), qp(0.2, 128)
        out = qdepthwise(x, w, None, in_qp, w_qp, out_qp, padding=((1, 1), (1, 1)))
        for c in range(3):
            single = qconv2d(
                x[..., c : c + 1], w[..., c : c + 1, None], None,
                in_qp, w_qp, out_qp, padding=((1, 1), (1, 1)),
            )
            np.testing.assert_array_equal(out[..., c], single[..., 0])


class TestQAdd:
    def test_rescales_mismatched_inputs(self):
        a_qp, b_qp, out_qp = qp(0.1, 0), qp(0.2, 10), qp(0.15, 5)
        a = np.array([100], np.uint8)   # 10.0 real
        b = np.array([60], np.uint8)    # 10.0 real
        out = qadd(a, a_qp, b, b_qp, out_qp)
        assert dequantize(out, out_qp)[0] == pytest.approx(20.0, abs=0.2)

    def test_saturates(self):
        a_qp = b_qp = out_qp = qp(1.0, 0)
        out = qadd(
            np.array([200], np.uint8), a_qp, np.array([200], np.uint8), b_qp, out_qp
        )
        assert out[0] == 255

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_error_within_one_step(self, a, b):
        a_qp, b_qp, out_qp = qp(0.037, 3), qp(0.11, 40), qp(0.21, 17)
        out = qadd(np.array([a], np.uint8), a_qp, np.array([b], np.uint8), b_qp, out_qp)
        real = dequantize(np.array([a]), a_qp)[0] + dequantize(np.array([b]), b_qp)[0]
        lo, hi = quant_range(out_qp)
        expected = np.clip(real, lo, hi)
        assert abs(dequantize(out, out_qp)[0] - expected) <= out_qp.scale


class TestQPooling:
    def test_max_pool_plain(self):
        x = np.arange(16, dtype=np.uint8).reshape(1, 4, 4, 1)
        out = qmax_pool(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(out.reshape(-1), [5, 7, 13, 15])

    def test_avg_pool_rounds(self):
        x = np.array([[1, 2], [2, 2]], np.uint8).reshape(1, 2, 2, 1)
        out = qavg_pool(x, (2, 2), (2, 2))
        assert out.reshape(-1)[0] == 2  # 7/4 = 1.75 -> 2

    def test_qrequant_round_trip(self):
        a_qp, b_qp = qp(0.1, 10), qp(0.05, 0)
        x = np.array([110], np.uint8)  # 10.0 real
        out = qrequant(x, a_qp, b_qp)
        assert dequantize(out, b_qp)[0] == pytest.approx(10.0, abs=0.05)
