"""Tests for bfloat16 conversion (round-to-nearest-even)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.dtypes import BF16_EPS, BF16_MAX, BF16_MIN_NORMAL, to_bfloat16
from tests.helpers import bf16_from_bits, bf16_to_bits


def test_exactly_representable_values_pass_through():
    vals = np.array([0.0, 1.0, -1.0, 0.5, 2.0, 256.0, -0.25], dtype=np.float32)
    np.testing.assert_array_equal(to_bfloat16(vals), vals)


def test_rounding_is_to_nearest():
    # 1.0 + eps/4 is closer to 1.0 than to 1.0 + eps.
    x = np.float32(1.0 + BF16_EPS / 4)
    assert to_bfloat16(x) == np.float32(1.0)
    # 1.0 + 3*eps/4 is closer to 1.0 + eps.
    y = np.float32(1.0 + 3 * BF16_EPS / 4)
    assert to_bfloat16(y) == np.float32(1.0 + BF16_EPS)


def test_ties_round_to_even():
    # Exactly halfway between 1.0 and 1.0+eps: mantissa ...0|1000...,
    # round-to-even keeps the even (lower) value.
    x = np.float32(1.0 + BF16_EPS / 2)
    assert to_bfloat16(x) == np.float32(1.0)
    # Halfway between 1.0+eps and 1.0+2eps rounds up to the even value.
    y = np.float32(1.0 + 3 * BF16_EPS / 2)
    assert to_bfloat16(y) == np.float32(1.0 + 2 * BF16_EPS)


def test_nan_and_inf_preserved():
    out = to_bfloat16(np.array([np.nan, np.inf, -np.inf], dtype=np.float32))
    assert np.isnan(out[0])
    assert out[1] == np.inf
    assert out[2] == -np.inf


def test_bits_round_trip():
    vals = np.array([0.0, -1.5, 3.140625, BF16_MAX], dtype=np.float32)
    bits = bf16_to_bits(vals)
    assert bits.dtype == np.uint16
    np.testing.assert_array_equal(bf16_from_bits(bits), to_bfloat16(vals))


def test_scalar_input_accepted():
    assert to_bfloat16(1.0).shape == ()


def test_shape_preserved():
    x = np.zeros((3, 5, 7), dtype=np.float32)
    assert to_bfloat16(x).shape == (3, 5, 7)


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_relative_error_bounded(value):
    if abs(value) > BF16_MAX:  # overflows to infinity, checked elsewhere
        return
    if 0 < abs(value) < BF16_MIN_NORMAL:  # subnormals: relative bound not valid
        return
    out = float(to_bfloat16(np.float32(value)))
    if value == 0.0:
        assert out == 0.0
    else:
        assert abs(out - value) <= abs(value) * BF16_EPS / 2 + 1e-45


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_idempotent(value):
    once = to_bfloat16(np.float32(value))
    twice = to_bfloat16(once)
    np.testing.assert_array_equal(once, twice)


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_monotonic_sign(value):
    out = float(to_bfloat16(np.float32(value)))
    if value > 0:
        assert out >= 0.0
    elif value < 0:
        assert out <= 0.0


@given(st.integers(min_value=0, max_value=0xFFFF))
def test_all_bit_patterns_round_trip_exactly(bits):
    # Every bfloat16 storage pattern expands to a float32 that converts back
    # to the identical pattern (NaNs compared by mask).
    f = bf16_from_bits(np.array([bits], dtype=np.uint16))
    if np.isnan(f[0]):
        return
    back = bf16_to_bits(f)
    assert back[0] == bits
