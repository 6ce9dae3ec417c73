"""Tests for the quantized kernels, including the cross-check against the
instruction-level Ncore simulator (fast model == machine, bit-exact)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import (
    ChannelQuantParams,
    NcoreDType,
    QuantParams,
    dequantize,
    dtype_info,
    quantize,
)
from repro.graph.gir import TensorType
from repro.graph.partitioner import Segment
from repro.ncore.codegen import CodegenDivergence, ConvStep, KernelDispatcher, compile_segment
from repro.ncore.out import RequantSpec
from repro.runtime.qkernels import (
    _accumulator_dtype,
    qadd,
    qavg_pool,
    qconv2d,
    qdepthwise,
    qfully_connected,
    qmax_pool,
    qrequant,
    run_nodes,
    seed_values,
)
from tests.helpers import quant_range
from tests.runtime.test_op_table import OneNode


def qp(scale, zp, dtype=NcoreDType.UINT8):
    return QuantParams(scale=scale, zero_point=zp, dtype=dtype)


class TestQFullyConnectedVsMachine:
    """The decisive test: numpy fast model == Ncore instruction simulator."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 80), st.integers(1, 12), st.integers(0, 10**6))
    def test_bit_exact_against_simulator(self, m, c, n, seed):
        from repro.ncore import Ncore
        from repro.nkl.programs import emit_tiled_matmul_program

        rng = np.random.default_rng(seed)
        data = rng.integers(0, 255, size=(m, c)).astype(np.uint8)
        weights = rng.integers(0, 255, size=(c, n)).astype(np.uint8)
        in_qp, w_qp, out_qp = qp(0.02, 128), qp(0.01, 99), qp(0.07, 11)
        fast = qfully_connected(data, weights, None, in_qp, w_qp, out_qp)
        machine = Ncore()
        program, result = emit_tiled_matmul_program(
            machine, data, weights, in_qp, w_qp, out_qp
        )
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


def _int64_conv(x, weights, bias, x_qp, w_qp, out_qp, padding):
    """The pure-int64 im2col conv the float64 walk must equal, stride 1."""
    kh, kw, cin, cout = weights.shape
    (pt, pb), (pl, pr) = padding
    xq = np.pad(x.astype(np.int64) - x_qp.zero_point, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    zw = np.asarray(w_qp.zero_points, dtype=np.int64)
    wq = weights.astype(np.int64) - zw
    n, h, w, _ = xq.shape
    oh, ow = h - kh + 1, w - kw + 1
    cols = np.empty((n, oh, ow, kh, kw, cin), dtype=np.int64)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j] = xq[:, i: i + oh, j: j + ow]
    acc = (cols.reshape(-1, kh * kw * cin) @ wq.reshape(-1, cout)).reshape(n, oh, ow, cout)
    return acc, RequantSpec.build(x_qp.scale, w_qp, out_qp).apply(acc, bias)


U8, I16 = NcoreDType.UINT8, NcoreDType.INT16


def _channel_qp(zero_points, dtype=U8):
    return ChannelQuantParams(
        scales=(0.01,) * len(zero_points), zero_points=tuple(zero_points), axis=3, dtype=dtype,
    )


class TestAccumulatorProof:
    """The walk's conv2d / fully-connected accumulate in float64 only when
    ``depth * max|x - zx| * max|w - zw|`` over the dtypes' whole code
    ranges stays below 2**53, and stay exact either way."""

    def test_the_bound_is_strict_at_2_53(self):
        # 2**53 - 1 == 6361 * 69431 * 20394401 (uint8 codes against
        # out-of-range zero points reach 255 - zp).
        below = _accumulator_dtype(6361, _channel_qp([-69176]), _channel_qp([-20394146]))
        assert below is np.float64
        # 2**53 == 2**13 * 2**15 (int16, zero point 0) * 2**25.
        x_qp = QuantParams(scale=0.1, zero_point=0, dtype=I16)
        assert _accumulator_dtype(2**13, x_qp, _channel_qp([255 - 2**25])) is np.int64
        assert _accumulator_dtype(2**13 - 1, x_qp, _channel_qp([255 - 2**25])) is np.float64

    def test_every_zero_point_counts(self):
        x_qp = QuantParams(scale=0.1, zero_point=0, dtype=I16)
        assert _accumulator_dtype(4608, x_qp, _channel_qp([128, 3])) is np.float64
        assert _accumulator_dtype(4608, x_qp, _channel_qp([128, -(2**45)])) is np.int64

    @pytest.mark.parametrize("x_dtype", [U8, NcoreDType.INT8, I16])
    def test_extreme_operands_at_the_deepest_zoo_conv(self, x_dtype):
        # ResNet-50's deepest conv: K = 3 * 3 * 512, every operand at an end
        # of its code range, the input zero point at the other end and the
        # weights' per-channel zero points spread over theirs.
        rng = np.random.default_rng(7)
        info = dtype_info(x_dtype)
        lo, hi = int(info.min_value), int(info.max_value)
        x_qp = QuantParams(scale=0.02, zero_point=lo, dtype=x_dtype)
        w_qp = _channel_qp([0, 255, 128, 1, 254, 0, 255, 77])
        x = rng.choice([lo, hi], size=(1, 5, 5, 512)).astype(info.numpy_dtype)
        weights = rng.choice([0, 255], size=(3, 3, 512, 8)).astype(np.uint8)
        bias = rng.integers(-(2**20), 2**20, size=8)
        padding = ((1, 1), (1, 1))
        assert _accumulator_dtype(3 * 3 * 512, x_qp, w_qp) is np.float64
        acc, _ = _int64_conv(x, weights, bias, x_qp, w_qp, QuantParams(1.0, 0), padding)
        assert np.abs(acc).max() > 2**24  # past float32: only the f64 proof keeps it exact
        # An int16 output scaled so the largest sum the int32 accumulator
        # holds (int16 inputs overflow it on the one-signed channels) lands
        # near its top code.
        reach = int(np.abs(np.clip(acc + bias, -(2**31), 2**31 - 1)).max())
        out_qp = QuantParams(scale=0.02 * 0.01 * reach / 30000, zero_point=0, dtype=I16)
        _, want = _int64_conv(x, weights, bias, x_qp, w_qp, out_qp, padding)
        got = qconv2d(x, weights, bias, x_qp, w_qp, out_qp, padding=padding)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert len(np.unique(want)) > 20

    def test_a_zero_point_of_minus_2_45_keeps_int64(self):
        # One tap of 257 * (2**45 + odd): an odd integer above 2**53, which
        # float64 cannot hold.  The bias cancels it down to 7, so any error
        # in the accumulator shows in the output code.
        w_qp = _channel_qp([-(2**45)] * 2)
        x_qp = QuantParams(scale=0.1, zero_point=0, dtype=I16)
        out_qp = QuantParams(scale=0.1 * 0.01, zero_point=0, dtype=I16)
        x = np.zeros((1, 3, 3, 512), np.int16)
        x[0, 1, 2, 300] = 257
        weights = np.full((3, 3, 512, 2), 3, np.uint8)
        exact = 257 * (2**45 + 3)
        bias = np.array([7 - exact, 7 - exact], dtype=np.int64)
        assert _accumulator_dtype(3 * 3 * 512, x_qp, w_qp) is np.int64
        acc, want = _int64_conv(x, weights, bias, x_qp, w_qp, out_qp, ((0, 0), (0, 0)))
        assert acc.ravel()[0] == exact and want.ravel().tolist() == [7, 7]
        got = qconv2d(x, weights, bias, x_qp, w_qp, out_qp)
        assert got.tobytes() == want.tobytes()
        # The float64 accumulation this proof refuses would be off.
        lossy = RequantSpec.build(x_qp.scale, w_qp, out_qp).apply(acc.astype(np.float64), bias)
        assert lossy.tobytes() != want.tobytes()

    def test_a_float32_conv_step_past_2_24_diverges_from_the_walk(self):
        # 255 * 65795 is odd and above 2**24: float32 weights (the step's
        # own proof puts this node in float64) cannot sum it exactly, and
        # the float64 walk under the dtype proof catches it.
        x_qp = QuantParams(scale=0.02, zero_point=0)
        w_qp = QuantParams(scale=0.01, zero_point=0)
        taps = np.zeros(600, dtype=np.int64)
        taps[: 65795 // 255] = 255
        taps[65795 // 255] = 65795 % 255
        weights = np.random.default_rng(0).permutation(taps).astype(np.uint8)
        case = OneNode("conv2d")
        case._feed(TensorType((1, 5, 5, 24), U8), np.full((1, 5, 5, 24), 255, np.uint8), x_qp)
        case.const(weights.reshape(5, 5, 24, 1), w_qp)
        case.const(np.array([7 - 255 * 65795], dtype=np.int32))
        case.out(TensorType((1, 1, 1, 1), U8), quant=QuantParams(scale=0.02 * 0.01, zero_point=0))
        kernel = compile_segment(case.graph, Segment("ncore", list(case.graph.nodes)), 0, "k")
        (step,) = kernel.steps
        assert isinstance(step, ConvStep) and step.weights.dtype == np.float64

        def oracle(env):
            scratch = dict(env)
            run_nodes(case.graph, case.graph.nodes, scratch)
            return {"out0": scratch["out0"]}

        env = seed_values(case.graph, case.feeds)
        KernelDispatcher(oracle="always").dispatch(kernel, env, oracle)
        assert env["out0"].ravel().tolist() == [7]
        forced = dataclasses.replace(step, weights=step.weights.astype(np.float32))
        env = seed_values(case.graph, case.feeds)
        with pytest.raises(CodegenDivergence):
            KernelDispatcher(oracle="always").dispatch(
                dataclasses.replace(kernel, steps=(forced,)), env, oracle,
            )
