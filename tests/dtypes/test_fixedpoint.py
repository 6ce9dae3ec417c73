"""Tests for saturating fixed-point arithmetic and the dtype registry.

The 32-bit saturating accumulator is the NPU model's: the add and MAC
cases below drive one accumulating integer issue of
:func:`repro.ncore.npu.execute_int`.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.dtypes import ACC_MAX, ACC_MIN, NcoreDType, dtype_info, saturate
from repro.isa.instruction import NPUOp, NPUOpcode
from repro.isa.operands import Operand, OperandKind
from repro.ncore.npu import execute_int

_ROW = Operand(OperandKind.DATA_RAM, 0)


def saturating_add(acc, value):
    """ADD issue with a zero weight: ``acc = sat32(acc + value)``."""
    op = NPUOp(NPUOpcode.ADD, _ROW, _ROW)
    return execute_int(op, value, np.zeros_like(value), acc, None)


def saturating_accumulate(acc, data, weight):
    """MAC issue: ``acc = sat32(acc + data * weight)``."""
    return execute_int(NPUOp(NPUOpcode.MAC, _ROW, _ROW), data, weight, acc, None)


class TestDTypeRegistry:
    def test_npu_cycle_counts_match_paper(self):
        # Section IV-D.4: 8-bit ops take 1 clock, bfloat16 3, int16 4.
        assert dtype_info(NcoreDType.INT8).npu_cycles == 1
        assert dtype_info(NcoreDType.UINT8).npu_cycles == 1
        assert dtype_info(NcoreDType.BF16).npu_cycles == 3
        assert dtype_info(NcoreDType.INT16).npu_cycles == 4

    def test_element_sizes(self):
        assert dtype_info(NcoreDType.INT8).bytes_per_element == 1
        assert dtype_info(NcoreDType.INT16).bytes_per_element == 2
        assert dtype_info(NcoreDType.BF16).bytes_per_element == 2

    def test_lookup_by_string(self):
        assert dtype_info("int8") is dtype_info(NcoreDType.INT8)

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError):
            dtype_info("float64")


class TestSaturate:
    def test_int8_bounds(self):
        x = np.array([-1000, -128, 0, 127, 1000])
        out = saturate(x, NcoreDType.INT8)
        np.testing.assert_array_equal(out, [-128, -128, 0, 127, 127])
        assert out.dtype == np.int8

    def test_uint8_bounds(self):
        out = saturate(np.array([-5, 0, 255, 300]), NcoreDType.UINT8)
        np.testing.assert_array_equal(out, [0, 0, 255, 255])

    def test_int16_bounds(self):
        out = saturate(np.array([-40000, 40000]), NcoreDType.INT16)
        np.testing.assert_array_equal(out, [-32768, 32767])


class TestSaturatingAdd:
    def test_no_overflow_is_exact(self):
        a = np.array([1, -2, 3], dtype=np.int32)
        b = np.array([4, 5, -6], dtype=np.int32)
        np.testing.assert_array_equal(saturating_add(a, b), [5, 3, -3])

    def test_positive_saturation(self):
        a = np.array([ACC_MAX], dtype=np.int32)
        assert saturating_add(a, np.array([1], dtype=np.int32))[0] == ACC_MAX

    def test_negative_saturation(self):
        a = np.array([ACC_MIN], dtype=np.int32)
        assert saturating_add(a, np.array([-1], dtype=np.int32))[0] == ACC_MIN

    def test_result_dtype_is_int32(self):
        out = saturating_add(np.zeros(4, np.int32), np.ones(4, np.int32))
        assert out.dtype == np.int32


class TestSaturatingAccumulate:
    def test_simple_mac(self):
        acc = np.zeros(3, dtype=np.int32)
        out = saturating_accumulate(
            acc, np.array([2, 3, 4], np.int32), np.array([5, -6, 7], np.int32)
        )
        np.testing.assert_array_equal(out, [10, -18, 28])

    def test_accumulator_saturates_up(self):
        acc = np.full(1, ACC_MAX - 10, dtype=np.int32)
        out = saturating_accumulate(
            acc, np.array([100], np.int32), np.array([100], np.int32)
        )
        assert out[0] == ACC_MAX

    def test_accumulator_saturates_down(self):
        acc = np.full(1, ACC_MIN + 10, dtype=np.int32)
        out = saturating_accumulate(
            acc, np.array([100], np.int32), np.array([-100], np.int32)
        )
        assert out[0] == ACC_MIN

    @given(
        npst.arrays(np.int32, 16, elements=st.integers(-(2**31), 2**31 - 1)),
        npst.arrays(np.int32, 16, elements=st.integers(-255, 255)),
        npst.arrays(np.int32, 16, elements=st.integers(-255, 255)),
    )
    def test_matches_exact_math_clipped(self, acc, data, weight):
        out = saturating_accumulate(acc, data, weight)
        exact = acc.astype(object) + data.astype(object) * weight.astype(object)
        expected = np.array(
            [min(max(v, ACC_MIN), ACC_MAX) for v in exact], dtype=np.int32
        )
        np.testing.assert_array_equal(out, expected)

    @given(npst.arrays(np.int32, 8, elements=st.integers(-(2**31), 2**31 - 1)))
    def test_zero_weight_is_identity(self, acc):
        out = saturating_accumulate(
            acc, np.ones(8, np.int32), np.zeros(8, np.int32)
        )
        np.testing.assert_array_equal(out, acc)
