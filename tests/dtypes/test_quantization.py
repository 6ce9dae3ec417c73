"""Tests for affine quantization and OUT-unit requantization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dtypes import (
    NcoreDType,
    QuantParams,
    choose_quant_params,
    dequantize,
    dtype_info,
    quantize,
    quantize_multiplier,
    requantize,
    rounding_right_shift,
)
from repro.ncore.out import RequantSpec, requantize_lanes


class TestQuantParams:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            QuantParams(scale=0.0, zero_point=0)

    def test_rejects_out_of_range_zero_point(self):
        with pytest.raises(ValueError):
            QuantParams(scale=1.0, zero_point=300, dtype=NcoreDType.UINT8)

    def test_rejects_float_dtype(self):
        with pytest.raises(ValueError):
            QuantParams(scale=1.0, zero_point=0, dtype=NcoreDType.BF16)

    def test_range_property(self):
        qp = QuantParams(scale=0.5, zero_point=128, dtype=NcoreDType.UINT8)
        lo, hi = qp.range
        assert lo == pytest.approx(-64.0)
        assert hi == pytest.approx(63.5)


class TestChooseQuantParams:
    def test_zero_is_exactly_representable(self):
        qp = choose_quant_params(0.1, 6.3)
        assert dequantize(np.array([qp.zero_point]), qp)[0] == 0.0

    def test_covers_requested_range(self):
        qp = choose_quant_params(-3.0, 5.0)
        lo, hi = qp.range
        assert lo <= -3.0 + qp.scale
        assert hi >= 5.0 - qp.scale

    def test_degenerate_all_zero(self):
        qp = choose_quant_params(0.0, 0.0)
        assert quantize(np.array([0.0]), qp)[0] == qp.zero_point

    def test_int8_symmetric_ish(self):
        qp = choose_quant_params(-1.0, 1.0, NcoreDType.INT8)
        assert qp.dtype == NcoreDType.INT8
        assert -128 <= qp.zero_point <= 127

    @given(
        st.floats(min_value=-100, max_value=0, allow_nan=False),
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
    )
    def test_round_trip_error_within_half_scale(self, rmin, rmax):
        qp = choose_quant_params(rmin, rmax)
        xs = np.linspace(rmin, rmax, 17).astype(np.float32)
        err = np.abs(dequantize(quantize(xs, qp), qp) - xs)
        # scale/2 is the exact bound; allow float32 rounding on top of it.
        assert np.all(err <= qp.scale / 2 * (1 + 1e-4) + 1e-6)


class TestQuantizeMultiplier:
    @given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_reconstruction_accuracy(self, real):
        m, shift = quantize_multiplier(real)
        assert (1 << 30) <= m <= (1 << 31)
        approx = m * 2.0 ** (-31 - shift)
        assert approx == pytest.approx(real, rel=1e-8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            quantize_multiplier(0.0)

    def test_power_of_two(self):
        m, shift = quantize_multiplier(0.5)
        assert m * 2.0 ** (-31 - shift) == 0.5


class TestRoundingRightShift:
    def test_zero_shift_identity(self):
        x = np.array([1, -7, 100])
        np.testing.assert_array_equal(rounding_right_shift(x, 0), x)

    @pytest.mark.parametrize("shift", [0, 1, 20])
    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
    def test_result_is_a_fresh_int64_array_for_every_shift(self, dtype, shift):
        # A zero shift used to hand back a copy in the *input's* dtype.
        x = np.array([1, -7, 100], dtype=dtype)
        out = rounding_right_shift(x, shift)
        assert out.dtype == np.int64
        assert not np.shares_memory(out, x)
        np.testing.assert_array_equal(x, [1, -7, 100])

    def test_rounds_half_away_from_zero(self):
        # 3 >> 1 = 1.5 -> 2 ; -3 >> 1 = -1.5 -> -2
        assert rounding_right_shift(np.array([3]), 1)[0] == 2
        assert rounding_right_shift(np.array([-3]), 1)[0] == -2

    def test_exact_division(self):
        assert rounding_right_shift(np.array([8]), 2)[0] == 2
        assert rounding_right_shift(np.array([-8]), 2)[0] == -2

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            rounding_right_shift(np.array([1]), -1)

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(0, 20))
    def test_matches_true_rounding(self, value, shift):
        out = int(rounding_right_shift(np.array([value], dtype=np.int64), shift)[0])
        exact = value / (1 << shift)
        # round-half-away-from-zero
        import math

        expected = math.floor(exact + 0.5) if exact >= 0 else math.ceil(exact - 0.5)
        assert out == expected


class TestRequantize:
    def test_identity_multiplier(self):
        # multiplier ~= 1.0 means acc passes through (plus offset).
        m, shift = quantize_multiplier(1.0)
        acc = np.array([5, -3, 100], dtype=np.int32)
        out = requantize(acc, m, shift, offset=0, dtype=NcoreDType.INT8)
        np.testing.assert_array_equal(out, [5, -3, 100])

    def test_offset_applied(self):
        m, shift = quantize_multiplier(1.0)
        out = requantize(np.array([0], np.int32), m, shift, offset=128)
        assert out[0] == 128

    def test_saturates_to_output_type(self):
        m, shift = quantize_multiplier(1.0)
        out = requantize(np.array([10_000], np.int32), m, shift, 0, NcoreDType.INT8)
        assert out[0] == 127

    @given(
        st.floats(min_value=1e-4, max_value=4.0, allow_nan=False),
        st.integers(-(2**20), 2**20),
    )
    def test_tracks_real_arithmetic(self, real_mult, acc_val):
        m, shift = quantize_multiplier(real_mult)
        out = requantize(
            np.array([acc_val], np.int32), m, shift, 0, NcoreDType.INT16
        )
        expected = np.clip(round(acc_val * real_mult), -32768, 32767)
        # Fixed-point rounding may differ from float rounding by 1 ULP.
        assert abs(int(out[0]) - expected) <= 1

    def test_end_to_end_conv_style(self):
        # Simulate a quantized multiply chain the way a conv uses it:
        # acc in s32 = sum(data_q * w_q); requant with M = s_in*s_w/s_out.
        rng = np.random.default_rng(7)
        s_in, s_w, s_out = 0.02, 0.005, 0.11
        data = rng.integers(0, 255, 64)
        weights = rng.integers(-127, 127, 64)
        acc = np.array([np.sum((data - 128) * weights)], dtype=np.int32)
        m, shift = quantize_multiplier(s_in * s_w / s_out)
        out = requantize(acc, m, shift, offset=0, dtype=NcoreDType.INT8)
        real = float(acc[0]) * s_in * s_w / s_out
        assert abs(float(out[0]) - np.clip(round(real), -128, 127)) <= 1


# ----------------------------------------------------------------------
# The independent check: gemmlowp's C++ in Python ints
# ----------------------------------------------------------------------
#
# The per-node walk and the macro-kernels share ``RequantSpec`` (and through
# it ``requantize``), so neither checks the other's requantization.  This
# is a line-by-line transliteration of gemmlowp's fixedpoint.h on
# arbitrary-precision Python ints — sign-dependent nudge, division that
# truncates toward zero, mask / remainder / threshold — which shares no
# expression with the closed forms the kernel uses.

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1


def _saturate(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def gemmlowp_srdhm(a: int, b: int) -> int:
    """``SaturatingRoundingDoublingHighMul(std::int32_t a, std::int32_t b)``."""
    overflow = a == b and a == INT32_MIN
    ab_64 = a * b
    nudge = (1 << 30) if ab_64 >= 0 else 1 - (1 << 30)
    total = ab_64 + nudge
    # C++ integer division truncates toward zero; Python's floors.
    ab_x2_high32 = abs(total) // (1 << 31) * (1 if total >= 0 else -1)
    return INT32_MAX if overflow else ab_x2_high32


def gemmlowp_rounding_divide_by_pot(x: int, exponent: int) -> int:
    """``RoundingDivideByPOT(x, exponent)``: round half away from zero."""
    mask = (1 << exponent) - 1
    remainder = x & mask
    threshold = (mask >> 1) + (1 if x < 0 else 0)
    return (x >> exponent) + (1 if remainder > threshold else 0)


def gemmlowp_requantize(acc: int, multiplier: int, shift: int, offset: int, dtype) -> int:
    """The OUT-unit datapath on one lane.  The NPU accumulator saturates at
    32 bits, and so does the left shift (where C++ would overflow)."""
    info = dtype_info(dtype)
    a = _saturate(acc, INT32_MIN, INT32_MAX)
    a = _saturate(a << max(-shift, 0), INT32_MIN, INT32_MAX)
    scaled = gemmlowp_rounding_divide_by_pot(gemmlowp_srdhm(a, multiplier), max(shift, 0))
    return _saturate(scaled + offset, int(info.min_value), int(info.max_value))


def oracle_lanes(acc: np.ndarray, mults, shifts, offsets, dtype) -> np.ndarray:
    """``gemmlowp_requantize`` over a (rows, lanes) accumulator, as int64."""
    return np.array([
        [gemmlowp_requantize(int(a), int(m), int(s), int(z), dtype)
         for a, m, s, z in zip(row, mults, shifts, offsets, strict=True)]
        for row in acc
    ], dtype=np.int64).reshape(acc.shape)


SHIFTS = range(-4, 32)
MULTIPLIERS = (1 << 30, (1 << 31) - 1, 1518500250, 1234567891)
INT_DTYPES = (NcoreDType.UINT8, NcoreDType.INT8, NcoreDType.INT16)


def boundary_accumulators(multiplier: int, shift: int) -> list[int]:
    """Accumulators where an off-by-one shows: the ends of the int32 range
    and beyond it, zero, and -1 / 0 / +1 around half-way points of the
    rounding shift (both signs) and of the high-mul."""
    accs = [0, 1, -1, INT32_MIN, INT32_MIN + 1, INT32_MAX, INT32_MAX - 1,
            1 << 31, -(1 << 31) - 1, (1 << 33) + 12345, -(1 << 33) - 12345]
    left, right = max(-shift, 0), max(shift, 0)
    for odd in (1, 3, 5, 255, 257):
        half = odd << right >> 1  # y with y / 2**right exactly on .5
        for y in (half, -half):
            a = round(y * (1 << 31) / multiplier) >> left
            accs += [a - 1, a, a + 1]
    return accs


def assert_all_three_match_gemmlowp(acc, mults, shifts, offset, dtype, bias=None, clamp=None):
    """``requantize``, ``requantize_lanes`` and ``RequantSpec.apply`` on a
    (rows, lanes) accumulator against the oracle, bytes and dtype.

    The two that take a range proof run twice: without one (the full,
    saturating epilogue) and with the honest ``bound = max|acc|`` — the
    range-proved path wherever the proof holds (no left shift,
    ``bound + max|bias| < 2**31``), the full one again wherever it does not.
    ``bias`` is added and ``clamp`` applied by the oracle in Python ints."""
    lanes = acc.shape[-1]
    total = acc if bias is None else acc + bias
    want = oracle_lanes(total, mults, shifts, [offset] * lanes, dtype)
    if clamp is not None:
        want = np.clip(want, *clamp)
    narrow = dtype_info(dtype).numpy_dtype
    spec = RequantSpec(
        zero_point=offset, dtype=dtype, lane_mults=mults, lane_shifts=shifts, clamp=clamp
    )
    for bound in (None, int(np.abs(acc).max(initial=0))):
        got = requantize(acc, mults, shifts, offset, dtype, bias=bias, clamp=clamp, bound=bound)
        assert got.dtype == narrow
        np.testing.assert_array_equal(got, want, f"requantize bound={bound}")
        got = spec.apply(acc, bias, bound)
        assert got.dtype == narrow
        np.testing.assert_array_equal(got, want, f"RequantSpec.apply bound={bound}")
    if bias is None and clamp is None:
        got = requantize_lanes(acc, mults, shifts, np.full(lanes, offset, np.int64), dtype)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)


class TestAgainstGemmlowp:
    def test_the_oracle_is_gemmlowp(self):
        # Hand-checked values of the two primitives: the one overflow and
        # both signs of a tie.
        assert gemmlowp_srdhm(INT32_MIN, INT32_MIN) == INT32_MAX
        # The high-mul breaks ties upward (its negative nudge is one short
        # of a half): (-3 * 2**30 + 1 - 2**30) / 2**31 truncates to -1.
        assert gemmlowp_srdhm(3, 1 << 30) == 2  # 1.5
        assert gemmlowp_srdhm(-3, 1 << 30) == -1  # -1.5
        assert gemmlowp_srdhm(1, 1 << 30) == 1  # 0.5
        assert gemmlowp_srdhm(-1, 1 << 30) == 0  # -0.5
        # The rounding shift breaks them away from zero.
        assert gemmlowp_rounding_divide_by_pot(3, 1) == 2
        assert gemmlowp_rounding_divide_by_pot(-3, 1) == -2
        assert gemmlowp_rounding_divide_by_pot(-5, 0) == -5

    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: d.value)
    def test_boundary_sweep_per_tensor(self, dtype):
        offset = {NcoreDType.UINT8: 5, NcoreDType.INT8: -3, NcoreDType.INT16: 1000}[dtype]
        for shift in SHIFTS:
            for multiplier in MULTIPLIERS:
                acc = np.array(boundary_accumulators(multiplier, shift), dtype=np.int64)
                want = oracle_lanes(
                    acc[:, None], [multiplier], [shift], [offset], dtype
                ).ravel()
                where = f"shift={shift} multiplier={multiplier}"
                np.testing.assert_array_equal(
                    requantize(acc, multiplier, shift, offset, dtype), want, where
                )
                spec = RequantSpec(zero_point=offset, dtype=dtype, mult=multiplier, shift=shift)
                np.testing.assert_array_equal(spec.apply(acc), want, where)
                # The range-proved path needs every accumulator inside int32.
                inside = acc[np.abs(acc) < (1 << 31)]
                proved = spec.apply(inside, bound=int(np.abs(inside).max()))
                np.testing.assert_array_equal(proved, want[np.abs(acc) < (1 << 31)], where)
                full = np.full(acc.size, 1, np.int64)
                np.testing.assert_array_equal(
                    requantize_lanes(
                        acc, multiplier * full, shift * full, offset * full, dtype
                    ), want, where,
                )

    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: d.value)
    def test_boundary_sweep_per_channel(self, dtype):
        # One lane per (multiplier, shift): left, zero and right shifts
        # side by side in every row, each lane with its own boundaries.
        pairs = [(m, s) for s in SHIFTS for m in MULTIPLIERS]
        mults = np.array([m for m, _ in pairs], dtype=np.int64)
        shifts = np.array([s for _, s in pairs], dtype=np.int64)
        acc = np.array([boundary_accumulators(m, s) for m, s in pairs], dtype=np.int64).T
        assert_all_three_match_gemmlowp(np.ascontiguousarray(acc), mults, shifts, 7, dtype)

    def test_int32_min_multiplier_saturates(self):
        # The machine's range register is any int32, not only a mantissa
        # in [2**30, 2**31): the one overflowing product must saturate.
        acc = np.array([INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX], dtype=np.int64)
        for shift in (0, 1, 7):
            want = oracle_lanes(acc[:, None], [INT32_MIN], [shift], [0], NcoreDType.INT16)
            np.testing.assert_array_equal(
                requantize(acc, INT32_MIN, shift, 0, NcoreDType.INT16), want.ravel()
            )

    @given(
        st.lists(st.integers(-(1 << 34), 1 << 34), min_size=1, max_size=12),
        st.lists(
            st.tuples(st.integers(INT32_MIN, INT32_MAX), st.integers(-4, 31)),
            min_size=1, max_size=6,
        ),
        st.integers(-128, 127),
        st.sampled_from(INT_DTYPES),
    )
    def test_random_lanes(self, values, pairs, offset, dtype):
        # Any int32 multiplier (either sign), any mix of shifts per row.
        if dtype is NcoreDType.UINT8:
            offset += 128
        lanes = len(pairs)
        acc = np.resize(np.array(values, dtype=np.int64), (len(values), lanes))
        acc = acc + np.arange(lanes)  # lanes differ
        mults = np.array([m for m, _ in pairs], dtype=np.int64)
        shifts = np.array([s for _, s in pairs], dtype=np.int64)
        assert_all_three_match_gemmlowp(acc, mults, shifts, offset, dtype)

    @given(
        st.lists(st.integers(-(1 << 31) + 1, (1 << 31) - 1), min_size=1, max_size=12),
        st.lists(
            st.tuples(st.integers(INT32_MIN, INT32_MAX), st.integers(0, 31)),
            min_size=1, max_size=6,
        ),
        st.one_of(st.none(), st.integers(0, 1 << 31)),
        st.sampled_from([None, "relu", "relu6"]),
        st.integers(-128, 127),
        st.sampled_from(INT_DTYPES),
    )
    def test_random_lanes_range_proved(self, values, pairs, bias_reach, activation, offset, dtype):
        # Right and zero shifts only, accumulators inside int32: the proof
        # holds unless the bias breaks it (then the full path must saturate).
        if dtype is NcoreDType.UINT8:
            offset += 128
        lanes = len(pairs)
        acc = np.resize(np.array(values, dtype=np.int64), (len(values), lanes))
        mults = np.array([m for m, _ in pairs], dtype=np.int64)
        shifts = np.array([s for _, s in pairs], dtype=np.int64)
        bias = None
        if bias_reach is not None:
            bias = (np.arange(lanes) % 3 - 1) * bias_reach  # -b, 0, +b, ...
        info = dtype_info(dtype)
        clamp = {
            None: None,
            "relu": (offset, int(info.max_value)),
            "relu6": (offset, min(offset + 40, int(info.max_value))),
        }[activation]
        assert_all_three_match_gemmlowp(acc, mults, shifts, offset, dtype, bias, clamp)

    @pytest.mark.parametrize("activation", ["none", "relu", "relu6"])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["nobias", "bias"])
    @pytest.mark.parametrize("per_lane", [False, True], ids=["tensor", "lane"])
    def test_range_proved_boundaries(self, per_lane, with_bias, activation):
        # shift == 0 lanes next to shifting ones, every boundary accumulator
        # float32 holds exactly; float32 / float64 / int32 accumulators alike.
        pairs = [(m, s) for s in (0, 1, 7, 0, 31) for m in MULTIPLIERS]
        if not per_lane:
            pairs = [pairs[5]] * 4
        mults = np.array([m for m, _ in pairs], dtype=np.int64)
        shifts = np.array([s for _, s in pairs], dtype=np.int64)
        acc = np.array([
            [a if abs(a) < (1 << 24) else 0 for a in boundary_accumulators(m, s)]
            for m, s in pairs
        ], dtype=np.int64).T
        bias = np.arange(len(pairs)) * 1_000_003 - (1 << 21) if with_bias else None
        clamp = {"none": None, "relu": (7, 255), "relu6": (7, 93)}[activation]
        for form in (acc, acc.astype(np.float32), acc.astype(np.float64), acc.astype(np.int32)):
            assert_all_three_match_gemmlowp(
                np.ascontiguousarray(form), mults, shifts, 7, NcoreDType.UINT8, bias, clamp
            )

    def test_left_shift_lanes_fall_back_to_the_full_path(self):
        # 2**29 << 4 saturates: skipping the saturation would read 2**33.
        mults = np.array([1 << 30, (1 << 31) - 1], dtype=np.int64)
        shifts = np.array([-4, 3], dtype=np.int64)
        acc = np.array([[1 << 29, 1 << 29], [-(1 << 29), 12345]], dtype=np.int64)
        assert_all_three_match_gemmlowp(acc, mults, shifts, 0, NcoreDType.INT16)
        got = requantize(acc, mults, shifts, 0, NcoreDType.INT16, bound=1 << 29)
        assert got[0, 0] == 32767 and got[1, 0] == -32768

    @pytest.mark.parametrize("bias", [None, 100], ids=["acc", "acc+bias"])
    def test_a_bound_of_2_31_takes_the_full_path_and_still_saturates(self, bias):
        # With m = 2**31 - 1 and shift 0 the scaled value is the saturated
        # accumulator itself, so a skipped saturation shows in the output.
        reach = (1 << 31) - (0 if bias is None else bias)
        acc = np.array([[reach, -reach - 1, reach - 1, 5]], dtype=np.int64).T
        lane_bias = None if bias is None else np.array([bias], dtype=np.int64)
        want = oracle_lanes(
            acc if bias is None else acc + bias, [(1 << 31) - 1], [16], [0], NcoreDType.INT16
        )
        assert want[0, 0] == 32767 and want[1, 0] == -32768
        for dtype in (np.int64, np.float64):
            got = requantize(
                acc.astype(dtype), (1 << 31) - 1, 16, 0, NcoreDType.INT16,
                bias=lane_bias, bound=int(np.abs(acc).max()),
            )
            np.testing.assert_array_equal(got, want)
        # One below the limit the proof holds, and agrees with the oracle.
        inside = acc[2:]
        got = requantize(
            inside, (1 << 31) - 1, 16, 0, NcoreDType.INT16,
            bias=lane_bias, bound=int(np.abs(inside).max()),
        )
        np.testing.assert_array_equal(got, want[2:])

    @given(st.integers(-(1 << 62), 1 << 62), st.integers(0, 40))
    def test_rounding_right_shift_is_rounding_divide_by_pot(self, value, shift):
        # qadd / qrequant shift 2**-20-unit totals far wider than int32.
        out = rounding_right_shift(np.array([value], dtype=np.int64), shift)
        assert int(out[0]) == gemmlowp_rounding_divide_by_pot(value, shift)
