"""Tests for the OUT unit: requantization, activations, row narrowing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.dtypes import NcoreDType, bf16_from_bits, quantization, quantize_multiplier, requantize
from repro.isa.instruction import Activation
from repro.ncore import out as out_unit

from tests.dtypes.test_quantization import oracle_lanes


class TestRequantizeLanes:
    def test_identity(self):
        m, s = quantize_multiplier(1.0)
        acc = np.array([5, -3, 127], dtype=np.int32)
        vals = out_unit.requantize_lanes(
            acc,
            np.full(3, m, np.int64),
            np.full(3, s, np.int64),
            np.zeros(3, np.int64),
            NcoreDType.INT8,
        )
        np.testing.assert_array_equal(vals, [5, -3, 127])

    def test_per_lane_parameters(self):
        # Different channels (lanes) can carry different requant params.
        m1, s1 = quantize_multiplier(1.0)
        m2, s2 = quantize_multiplier(0.5)
        acc = np.array([100, 100], dtype=np.int32)
        vals = out_unit.requantize_lanes(
            acc,
            np.array([m1, m2], np.int64),
            np.array([s1, s2], np.int64),
            np.array([0, 10], np.int64),
            NcoreDType.INT8,
        )
        np.testing.assert_array_equal(vals, [100, 60])

    @given(
        npst.arrays(np.int32, 16, elements=st.integers(-(2**24), 2**24)),
        st.floats(min_value=1e-4, max_value=2.0, allow_nan=False),
        st.integers(-100, 100),
    )
    def test_matches_scalar_requantize(self, acc, real_mult, offset):
        # The vectorised per-lane path must agree bit-exactly with the
        # scalar gemmlowp-style reference in repro.dtypes.
        m, s = quantize_multiplier(real_mult)
        lanes = acc.size
        vals = out_unit.requantize_lanes(
            acc,
            np.full(lanes, m, np.int64),
            np.full(lanes, s, np.int64),
            np.full(lanes, offset, np.int64),
            NcoreDType.INT16,
        )
        expected = requantize(acc, m, s, offset, NcoreDType.INT16)
        np.testing.assert_array_equal(vals, expected.astype(np.int32))
        # ... and so must the range-proved epilogue the macro-kernels take
        # (the full one again when ``s`` is a left shift).
        spec = out_unit.RequantSpec(offset, NcoreDType.INT16, mult=m, shift=s)
        for form in (acc, acc.astype(np.float32)):
            np.testing.assert_array_equal(spec.apply(form, bound=2**24), expected)


def _lane_params(lanes, seed=0):
    """Per-lane multipliers and a mix of left, zero and right shifts."""
    rng = np.random.default_rng(seed)
    mults = rng.integers(1 << 30, 1 << 31, lanes)
    shifts = np.resize(np.array([-2, 0, 3, 0, 1, 11, -1, 0]), lanes)
    return mults, shifts


class TestEpilogueRegressions:
    """Named regressions of the blocked, in-place epilogue
    (:func:`repro.dtypes.requantize`, reached through ``requantize_lanes``
    and ``RequantSpec.apply``)."""

    def test_zero_shift_lane_gets_no_sign_correction(self):
        # Round-half-away adds the sign word before the shift; on a lane
        # that does not shift, that is an off-by-one on every negative
        # accumulator.  One row with left, zero and right shifts together.
        mults, shifts = _lane_params(8)
        acc = np.array([[-1, -1, -5, -7, -3, -(1 << 20), -9, -(1 << 31)],
                        [-2, -100, -4, -1, -1, -1025, -1, -3]], dtype=np.int32)
        offsets = np.zeros(8, np.int64)
        want = oracle_lanes(acc, mults, shifts, offsets, NcoreDType.INT16)
        got = out_unit.requantize_lanes(acc, mults, shifts, offsets, NcoreDType.INT16)
        np.testing.assert_array_equal(got, want)
        spec = out_unit.RequantSpec(0, NcoreDType.INT16, lane_mults=mults, lane_shifts=shifts)
        np.testing.assert_array_equal(spec.apply(acc), want)

    @pytest.mark.parametrize(
        "shape",
        [(7, 10), (64, 1), (13, 5), (3, 100), (1, 9), (1, 64), (1, 65), (0, 5), (2, 3, 4, 6)],
        ids=str,
    )
    def test_shapes_that_straddle_the_block(self, shape, monkeypatch):
        # Rows not a multiple of the block, lanes > block, one row, no rows.
        monkeypatch.setattr(quantization, "_EPILOGUE_BLOCK", 64)
        rng = np.random.default_rng(1)
        acc = rng.integers(-(1 << 31), 1 << 31, shape)
        lanes = shape[-1]
        mults, shifts = _lane_params(lanes)
        spec = out_unit.RequantSpec(3, NcoreDType.INT8, lane_mults=mults, lane_shifts=shifts)
        want = oracle_lanes(acc.reshape(-1, lanes), mults, shifts, [3] * lanes, NcoreDType.INT8)
        got = spec.apply(acc)
        assert got.shape == shape and got.dtype == np.int8
        np.testing.assert_array_equal(got.reshape(-1, lanes), want)
        # Per-tensor parameters flatten the accumulator: blocks cut rows.
        flat = out_unit.RequantSpec(3, NcoreDType.INT8, mult=int(mults[0]), shift=4).apply(acc)
        want = oracle_lanes(acc.reshape(-1, 1), mults[:1], [4], [3], NcoreDType.INT8)
        np.testing.assert_array_equal(flat.reshape(-1, 1), want)

    @pytest.mark.parametrize("shape", [(7, 10), (64, 1), (1, 65), (0, 5), (2, 3, 4, 6)], ids=str)
    def test_range_proved_path_straddles_the_block_too(self, shape, monkeypatch):
        # Right / zero shifts, a bias and a ReLU6 range: the proved path,
        # on float32 accumulators as ``ConvStep`` hands them over.
        monkeypatch.setattr(quantization, "_EPILOGUE_BLOCK", 64)
        rng = np.random.default_rng(7)
        acc = rng.integers(-(1 << 24) + 1, 1 << 24, shape)
        lanes = shape[-1]
        mults = rng.integers(1 << 30, 1 << 31, lanes)
        shifts = np.resize(np.array([0, 3, 12, 0, 16]), lanes)
        bias = rng.integers(-(1 << 28), 1 << 28, lanes)
        spec = out_unit.RequantSpec(
            3, NcoreDType.INT8, lane_mults=mults, lane_shifts=shifts, clamp=(3, 77)
        )
        want = np.clip(
            oracle_lanes((acc + bias).reshape(-1, lanes), mults, shifts, [3] * lanes,
                         NcoreDType.INT8),
            3, 77,
        )
        for form in (acc, acc.astype(np.float32)):
            before = form.copy()
            got = spec.apply(form, bias, bound=1 << 24)
            assert got.shape == shape and got.dtype == np.int8
            np.testing.assert_array_equal(got.reshape(-1, lanes), want)
            np.testing.assert_array_equal(form, before)  # never written
            np.testing.assert_array_equal(spec.apply(form, bias), got)  # full path agrees

    def test_the_real_block_is_straddled_too(self):
        block = quantization._EPILOGUE_BLOCK
        rng = np.random.default_rng(2)
        for shape in [(3, block + 7), (block // 4 + 3, 5)]:
            acc = rng.integers(-(1 << 24), 1 << 24, shape)
            mults, shifts = _lane_params(shape[-1])
            spec = out_unit.RequantSpec(9, NcoreDType.UINT8, lane_mults=mults, lane_shifts=shifts)
            want = oracle_lanes(acc, mults, shifts, [9] * shape[-1], NcoreDType.UINT8)
            np.testing.assert_array_equal(spec.apply(acc), want)

    def test_f64_int32_and_noncontiguous_accumulators(self):
        # The macro-kernels hand over f64 BLAS sums, the machine int32
        # lanes; a strided view must read like its contiguous copy.
        rng = np.random.default_rng(3)
        wide = rng.integers(-(1 << 31), 1 << 31, (12, 20))
        mults, shifts = _lane_params(10)
        spec = out_unit.RequantSpec(128, NcoreDType.UINT8, lane_mults=mults, lane_shifts=shifts)
        acc = np.ascontiguousarray(wide[:, ::2])
        want = oracle_lanes(acc, mults, shifts, [128] * 10, NcoreDType.UINT8)
        for form in (
            acc, acc.astype(np.float64), acc.astype(np.int32), wide[:, ::2],
            np.asfortranarray(acc), wide.astype(np.float64)[:, ::2],
        ):
            np.testing.assert_array_equal(spec.apply(form), want)

    @pytest.mark.parametrize("per_channel", [True, False], ids=["channel", "tensor"])
    def test_bias_is_added_before_the_accumulator_saturates(self, per_channel):
        # A per-tensor spec still takes a per-channel bias.
        rng = np.random.default_rng(4)
        acc = rng.integers(-(1 << 31), 1 << 31, (9, 6))
        bias = rng.integers(-(1 << 30), 1 << 30, 6)
        mults, shifts = _lane_params(6)
        if per_channel:
            spec = out_unit.RequantSpec(1, NcoreDType.INT8, lane_mults=mults, lane_shifts=shifts)
        else:
            mults, shifts = mults[:1].repeat(6), np.full(6, 2)
            spec = out_unit.RequantSpec(1, NcoreDType.INT8, mult=int(mults[0]), shift=2)
        want = oracle_lanes(acc + bias, mults, shifts, [1] * 6, NcoreDType.INT8)
        np.testing.assert_array_equal(spec.apply(acc, bias), want)
        np.testing.assert_array_equal(spec.apply(acc.astype(np.float64), bias), want)

    def test_the_callers_accumulator_is_never_written(self):
        rng = np.random.default_rng(5)
        mults, shifts = _lane_params(7)
        bias = rng.integers(-1000, 1000, 7)
        spec = out_unit.RequantSpec(0, NcoreDType.INT8, lane_mults=mults, lane_shifts=shifts)
        for dtype in (np.int64, np.int32, np.float64):  # int64 is the scratch's own type
            acc = rng.integers(-(1 << 31), 1 << 31, (5, 7)).astype(dtype)
            before = acc.copy()
            out = spec.apply(acc, bias)
            np.testing.assert_array_equal(acc, before)
            assert not np.shares_memory(out, acc)
            lanes_out = out_unit.requantize_lanes(
                acc[0], mults, shifts, np.zeros(7, np.int64), NcoreDType.INT8
            )
            np.testing.assert_array_equal(acc, before)
            assert not np.shares_memory(lanes_out, acc)

    def test_two_calls_share_no_state(self):
        # The scratch blocks belong to the call: no module-level array, and
        # a result is not overwritten by a later call of any shape.
        assert not [
            name for name, value in vars(quantization).items() if isinstance(value, np.ndarray)
        ]
        rng = np.random.default_rng(6)
        a = rng.integers(-(1 << 31), 1 << 31, (40, 8))
        b = rng.integers(-(1 << 31), 1 << 31, (3, 8))
        mults, shifts = _lane_params(8)
        spec = out_unit.RequantSpec(0, NcoreDType.INT16, lane_mults=mults, lane_shifts=shifts)
        first = spec.apply(a)
        kept = first.copy()
        second = spec.apply(b)
        again = spec.apply(a)
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(again, kept)
        assert not np.shares_memory(first, second) and not np.shares_memory(first, again)

    def test_lane_count_must_match_the_last_axis(self):
        with pytest.raises(ValueError, match="lanes"):
            requantize(np.zeros((4, 6), np.int32), np.full(3, 1 << 30), np.zeros(3, np.int64), 0)


class TestIntegerActivation:
    def test_relu_clamps_at_zero_point(self):
        vals = np.array([-5, 0, 5], dtype=np.int32)
        zp = np.zeros(3, dtype=np.int64)
        out = out_unit.apply_integer_activation(
            vals, Activation.RELU, zp, 255, None, NcoreDType.INT8
        )
        np.testing.assert_array_equal(out, [0, 0, 5])

    def test_relu_respects_nonzero_zero_point(self):
        vals = np.array([100, 128, 200], dtype=np.int32)
        zp = np.full(3, 128, dtype=np.int64)
        out = out_unit.apply_integer_activation(
            vals, Activation.RELU, zp, 255, None, NcoreDType.UINT8
        )
        np.testing.assert_array_equal(out, [128, 128, 200])

    def test_relu6_upper_clamp(self):
        vals = np.array([0, 100, 250], dtype=np.int32)
        zp = np.zeros(3, dtype=np.int64)
        out = out_unit.apply_integer_activation(
            vals, Activation.RELU6, zp, 200, None, NcoreDType.UINT8
        )
        np.testing.assert_array_equal(out, [0, 100, 200])

    def test_lut_activation(self):
        lut = np.arange(255, -1, -1, dtype=np.int32)  # inverting table
        vals = np.array([0, 255], dtype=np.int32)
        out = out_unit.apply_integer_activation(
            vals, Activation.SIGMOID, np.zeros(2, np.int64), 255, lut, NcoreDType.UINT8
        )
        np.testing.assert_array_equal(out, [255, 0])

    def test_lut_required_for_tanh(self):
        from repro.ncore import ExecutionError

        with pytest.raises(ExecutionError):
            out_unit.apply_integer_activation(
                np.zeros(1, np.int32), Activation.TANH, np.zeros(1, np.int64), 255, None,
                NcoreDType.UINT8,
            )

    def test_none_is_passthrough(self):
        vals = np.array([-3, 9], dtype=np.int32)
        out = out_unit.apply_integer_activation(
            vals, Activation.NONE, np.zeros(2, np.int64), 255, None, NcoreDType.INT8
        )
        np.testing.assert_array_equal(out, vals)


class TestNarrowToRows:
    def test_8bit_fills_low_row(self):
        vals = np.array([-1, 0, 127], dtype=np.int32)
        low, high = out_unit.narrow_to_rows(vals, NcoreDType.INT8)
        np.testing.assert_array_equal(low, [0xFF, 0, 127])
        assert not high.any()

    def test_16bit_splits_low_high(self):
        # Section IV-C.2: low bytes in one row, high bytes in the next.
        vals = np.array([0x1234, -2], dtype=np.int32)
        low, high = out_unit.narrow_to_rows(vals, NcoreDType.INT16)
        np.testing.assert_array_equal(low, [0x34, 0xFE])
        np.testing.assert_array_equal(high, [0x12, 0xFF])

    @given(npst.arrays(np.int32, 64, elements=st.integers(-32768, 32767)))
    def test_16bit_reassembles(self, vals):
        low, high = out_unit.narrow_to_rows(vals, NcoreDType.INT16)
        rebuilt = (low.astype(np.uint16) | (high.astype(np.uint16) << 8)).view(np.int16)
        np.testing.assert_array_equal(rebuilt, vals.astype(np.int16))


class TestFloatOutput:
    def test_scale_and_round_to_bf16(self):
        acc = np.array([1.0, -2.0], dtype=np.float32)
        low, high = out_unit.float_output_rows(acc, 0.5, Activation.NONE)
        bits = low.astype(np.uint16) | (high.astype(np.uint16) << 8)
        np.testing.assert_allclose(bf16_from_bits(bits), [0.5, -1.0])

    def test_relu_in_float_domain(self):
        acc = np.array([-4.0, 4.0], dtype=np.float32)
        low, high = out_unit.float_output_rows(acc, 1.0, Activation.RELU)
        bits = low.astype(np.uint16) | (high.astype(np.uint16) << 8)
        np.testing.assert_allclose(bf16_from_bits(bits), [0.0, 4.0])

    def test_tanh_sigmoid_in_float_domain(self):
        acc = np.array([0.0], dtype=np.float32)
        low, high = out_unit.float_output_rows(acc, 1.0, Activation.TANH)
        bits = low.astype(np.uint16) | (high.astype(np.uint16) << 8)
        assert bf16_from_bits(bits)[0] == 0.0
        low, high = out_unit.float_output_rows(acc, 1.0, Activation.SIGMOID)
        bits = low.astype(np.uint16) | (high.astype(np.uint16) << 8)
        np.testing.assert_allclose(bf16_from_bits(bits), [0.5])

    @given(npst.arrays(np.float32, 32, elements=st.floats(-1e3, 1e3, width=32)))
    def test_bf16_rows_reassemble_to_rounded_values(self, acc):
        from repro.dtypes import to_bfloat16

        low, high = out_unit.float_output_rows(acc, 1.0, Activation.NONE)
        bits = low.astype(np.uint16) | (high.astype(np.uint16) << 8)
        np.testing.assert_array_equal(bf16_from_bits(bits), to_bfloat16(acc))
