"""Ncore integer datatypes and saturating arithmetic.

The NPU operates on int8 / uint8 / int16 operands (plus bfloat16, handled in
:mod:`repro.dtypes.bfloat16`) and accumulates into a 32-bit *saturating*
accumulator (section IV-D.4).  This module defines the datatype registry used
throughout the simulator, the accumulator bounds and the narrowing
saturation; the saturating accumulation itself is the NPU model's
(:func:`repro.ncore.npu.execute_int`).  Everything is vectorised over numpy
arrays: one array element per SIMD byte lane.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# 32-bit saturating accumulator bounds (section IV-D.4).
ACC_MIN = -(2**31)
ACC_MAX = 2**31 - 1


class NcoreDType(enum.Enum):
    """Datatypes supported by the Ncore execution pipeline (Table I)."""

    INT8 = "int8"
    UINT8 = "uint8"
    INT16 = "int16"
    BF16 = "bf16"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class DTypeInfo:
    """Static properties of one Ncore datatype.

    ``npu_cycles`` is the NPU issue latency from section IV-D.4: 8-bit
    operations execute in one clock, bfloat16 in three, int16 in four.
    ``bytes_per_element`` drives RAM layout: 16-bit values are split into a
    low-byte row and a high-byte row (section IV-C.2).
    """

    dtype: NcoreDType
    numpy_dtype: np.dtype
    bytes_per_element: int
    npu_cycles: int
    min_value: int | float
    max_value: int | float
    is_float: bool


_DTYPE_TABLE: dict[NcoreDType, DTypeInfo] = {
    NcoreDType.INT8: DTypeInfo(
        NcoreDType.INT8, np.dtype(np.int8), 1, 1, -128, 127, False
    ),
    NcoreDType.UINT8: DTypeInfo(
        NcoreDType.UINT8, np.dtype(np.uint8), 1, 1, 0, 255, False
    ),
    NcoreDType.INT16: DTypeInfo(
        NcoreDType.INT16, np.dtype(np.int16), 2, 4, -32768, 32767, False
    ),
    NcoreDType.BF16: DTypeInfo(
        NcoreDType.BF16, np.dtype(np.float32), 2, 3, -3.3895314e38, 3.3895314e38, True
    ),
}


def dtype_info(dtype: NcoreDType | str) -> DTypeInfo:
    """Look up the :class:`DTypeInfo` for a datatype (by enum or name)."""
    if isinstance(dtype, str):
        dtype = NcoreDType(dtype)
    return _DTYPE_TABLE[dtype]


def saturate(x: np.ndarray, dtype: NcoreDType | str) -> np.ndarray:
    """Clamp *x* into the representable range of *dtype* and cast.

    For integer types this is the hardware saturation applied when narrowing
    results; bfloat16 saturation clamps to +-BF16_MAX (overflow to infinity
    is not produced by the OUT unit's requantisation path).
    """
    info = dtype_info(dtype)
    clipped = np.clip(np.asarray(x), info.min_value, info.max_value)
    return clipped.astype(info.numpy_dtype)
