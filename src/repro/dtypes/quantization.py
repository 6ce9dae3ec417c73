"""Affine quantization and the OUT unit's requantization arithmetic.

The paper adopts post-training 8-bit quantization schemes "that do not
require re-training" (section II-A.6, citing Jacob et al.), which is the
standard per-tensor affine scheme::

    real = scale * (quantized - zero_point)

The OUT unit requantizes the 32-bit accumulator "by multiplying the
accumulator with a range value, shifting the result left or right based on a
scale value, and adding an offset value" (section IV-D.5).  That is exactly
the fixed-point multiplier + shift + output-zero-point pipeline of
gemmlowp/TensorFlow-Lite, which this module implements bit-exactly — in
one place, :func:`requantize`, which every other requantizer calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.dtypes.fixedpoint import ACC_MAX, ACC_MIN, NcoreDType, dtype_info, saturate


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor affine quantization parameters."""

    scale: float
    zero_point: int
    dtype: NcoreDType = NcoreDType.UINT8

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError(f"quantization scale must be positive, got {self.scale}")
        info = dtype_info(self.dtype)
        if info.is_float:
            raise ValueError("affine quantization applies to integer dtypes only")
        if not info.min_value <= self.zero_point <= info.max_value:
            raise ValueError(
                f"zero_point {self.zero_point} outside {self.dtype} range "
                f"[{info.min_value}, {info.max_value}]"
            )


def choose_quant_params(
    rmin: float, rmax: float, dtype: NcoreDType | str = NcoreDType.UINT8
) -> QuantParams:
    """Pick affine parameters covering the real interval [rmin, rmax].

    The interval is first widened to include zero so that the real value 0.0
    is exactly representable (required so that zero-padding introduces no
    quantization error), then the zero point is nudged onto an integer.
    """
    if isinstance(dtype, str):
        dtype = NcoreDType(dtype)
    info = dtype_info(dtype)
    rmin = min(float(rmin), 0.0)
    rmax = max(float(rmax), 0.0)
    if rmin == rmax:  # degenerate all-zero tensor
        return QuantParams(scale=1.0, zero_point=0 if rmin == 0 else int(info.min_value), dtype=dtype)
    qmin, qmax = int(info.min_value), int(info.max_value)
    scale = (rmax - rmin) / (qmax - qmin)
    zero_point_real = qmin - rmin / scale
    zero_point = int(np.clip(round(zero_point_real), qmin, qmax))
    return QuantParams(scale=scale, zero_point=zero_point, dtype=dtype)


def quantize(x: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize real values to integers: ``q = round(x / scale) + zp``."""
    info = dtype_info(params.dtype)
    q = np.array(x, dtype=np.float64)  # the one full-size temporary
    q /= params.scale
    np.round(q, out=q)
    q += params.zero_point
    np.clip(q, info.min_value, info.max_value, out=q)
    return q.astype(info.numpy_dtype)


def dequantize(q: np.ndarray, params: QuantParams) -> np.ndarray:
    """Recover real values: ``x = scale * (q - zp)``, as float32."""
    x = np.array(q, dtype=np.float64)
    x -= params.zero_point
    np.multiply(params.scale, x, out=x)
    return x.astype(np.float32)


@dataclass(frozen=True)
class ChannelQuantParams:
    """Per-channel affine quantization parameters (one scale/zero-point per
    slice along ``axis``).

    Per-channel weight quantization is the standard refinement of the
    per-tensor scheme: each output channel gets its own range, recovering
    most of the accuracy lost when channel magnitudes differ widely.  The
    OUT unit supports it directly — its requantization range/scale/offset
    registers are per-lane (see repro.ncore.out).
    """

    scales: tuple[float, ...]
    zero_points: tuple[int, ...]
    axis: int
    dtype: NcoreDType = NcoreDType.UINT8

    def __post_init__(self) -> None:
        if len(self.scales) != len(self.zero_points):
            raise ValueError("scales and zero_points must have equal length")
        if not self.scales:
            raise ValueError("per-channel params need at least one channel")
        if any(s <= 0 for s in self.scales):
            raise ValueError("quantization scales must be positive")

    @property
    def num_channels(self) -> int:
        return len(self.scales)

    def _broadcast(self, values, ndim: int) -> np.ndarray:
        shape = [1] * ndim
        shape[self.axis] = self.num_channels
        return np.asarray(values, dtype=np.float64).reshape(shape)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        scales = self._broadcast(self.scales, x.ndim)
        zero_points = self._broadcast(self.zero_points, x.ndim)
        return saturate(np.round(x / scales) + zero_points, self.dtype)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64)
        scales = self._broadcast(self.scales, q.ndim)
        zero_points = self._broadcast(self.zero_points, q.ndim)
        return ((q - zero_points) * scales).astype(np.float32)


def choose_channel_quant_params(
    data: np.ndarray, axis: int, dtype: NcoreDType | str = NcoreDType.UINT8
) -> ChannelQuantParams:
    """Per-channel parameters from a weight tensor's per-slice ranges."""
    if isinstance(dtype, str):
        dtype = NcoreDType(dtype)
    data = np.asarray(data)
    reduce_axes = tuple(i for i in range(data.ndim) if i != axis)
    mins = np.min(data, axis=reduce_axes)
    maxs = np.max(data, axis=reduce_axes)
    params = [choose_quant_params(lo, hi, dtype) for lo, hi in zip(mins, maxs, strict=True)]
    return ChannelQuantParams(
        scales=tuple(p.scale for p in params),
        zero_points=tuple(p.zero_point for p in params),
        axis=axis,
        dtype=dtype,
    )


def quantize_multiplier(real_multiplier: float) -> tuple[int, int]:
    """Decompose a positive real multiplier into (int32 mantissa, right shift).

    Returns ``(m, shift)`` such that ``real_multiplier ~= m * 2**(-31 - shift)``
    with ``m`` in ``[2**30, 2**31)``.  ``shift`` may be negative, meaning a
    left shift — this corresponds to the OUT unit "shifting the result left
    or right based on a scale value".
    """
    if real_multiplier <= 0.0:
        raise ValueError("requantization multiplier must be positive")
    mantissa, exponent = np.frexp(real_multiplier)  # mantissa in [0.5, 1)
    m = int(round(mantissa * (1 << 31)))
    if m == (1 << 31):  # rounding overflowed the mantissa; renormalise
        m //= 2
        exponent += 1
    shift = -int(exponent)
    return m, shift


def _rounding_shift(
    x: np.ndarray, sign: np.ndarray, shift: npt.ArrayLike, half: npt.ArrayLike,
    mask: np.ndarray | None = None,
) -> None:
    """In place on int64 ``x``: ``x = (x + half + (x >> 63)) >> shift``.

    With ``half = 2**(shift - 1)`` this is gemmlowp's ``RoundingDivideByPOT``
    (round half away from zero): the sign word (-1 on negative lanes) makes
    the flooring shift break ties downward there.  A lane with ``shift ==
    0`` must not see it (it would come out one low): ``mask`` (0 / -1 per
    lane) clears it; ``None`` means every lane shifts.  ``sign`` is scratch.
    """
    np.right_shift(x, 63, out=sign)
    if mask is not None:
        sign &= mask
    x += sign
    x += half
    x >>= shift


def rounding_right_shift(x: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with round-half-away-from-zero, as int64.

    This is gemmlowp's ``RoundingDivideByPOT``: the rounding used by the OUT
    unit when discarding low accumulator bits.  ``shift`` must be >= 0.
    """
    if shift < 0:
        raise ValueError("shift must be non-negative")
    out = np.array(x, dtype=np.int64)
    if shift:
        _rounding_shift(out, np.empty_like(out), shift, 1 << (shift - 1))
    return out


#: Elements the OUT-unit epilogue holds at a time: two int64 scratch blocks
#: (2 x 256 KiB) stay cache-resident across its 12 in-place passes.  Per
#: element on 56x56x64 and 112x112x64 accumulators, quiet host: 4 K 6.4-8.4,
#: 8 K 5.8, 16 K 4.7, 32 K 4.2, 64 K 4.4, 128 K 4.7, 256 K 5.4, one
#: whole-array block 5.0-5.4 ns (8-11 with the other core busy).
_EPILOGUE_BLOCK = 1 << 15


def requantize(
    acc: np.ndarray,
    multiplier: npt.ArrayLike,
    shift: npt.ArrayLike,
    offset: npt.ArrayLike,
    dtype: NcoreDType | str = NcoreDType.UINT8,
    *,
    bias: np.ndarray | None = None,
    out_dtype: npt.DTypeLike | None = None,
    clamp: tuple[int, int] | None = None,
    bound: int | None = None,
) -> np.ndarray:
    """Requantize 32-bit accumulators to a narrow integer type.

    Implements the OUT unit datapath: multiply by the *range* value
    (``multiplier``, an int32 fixed-point mantissa), shift by the *scale*
    value (``shift``; positive = right, negative = left), then add the
    *offset* (the output zero point) and saturate to *dtype*.  Each of the
    three is a scalar or one value per lane of ``acc``'s last axis (the
    per-lane range / scale / offset registers).

    The one expression of the gemmlowp arithmetic in the repo: the
    quantized kernels, the macro-kernels and the instruction machine reach
    it through :mod:`repro.ncore.out`.  ``acc`` is any integer or
    integer-valued float64 array and is never written; ``bias`` is added
    first and the sum saturated to the 32-bit accumulator range.  The
    high-mul is the closed form ``(a * m + 2**30) >> 31`` (gemmlowp's
    sign-dependent nudge and truncating division, for every product), the
    right shift :func:`_rounding_shift` with the offset folded into its
    constant (proofs: docs/simulator-performance.md).  Work runs in place
    over row blocks of :data:`_EPILOGUE_BLOCK` elements in scratch owned by
    the call, written straight into the result (``out_dtype``, default
    *dtype*'s own numpy type).

    ``clamp`` is the final saturation range when it is narrower than
    *dtype*'s own (a fused ReLU / ReLU6 in the quantized domain).
    ``bound`` is a proof obligation the caller discharges statically:
    ``|acc| <= bound`` for every element.  When ``bound + max|bias|`` stays
    below ``2**31`` and no lane shifts left, the accumulator can never
    saturate, so the three 32-bit saturation passes are skipped and the
    bias rides in the high-mul's rounding constant:
    ``(a + b) * m + 2**30 == a * m + (b * m + 2**30)``.
    """
    info = dtype_info(dtype)
    acc = np.asarray(acc)
    multiplier = np.asarray(multiplier, dtype=np.int64)
    shift = np.asarray(shift, dtype=np.int64)
    lanes = np.broadcast(multiplier, shift, offset, 0 if bias is None else bias).size
    if lanes != 1 and lanes != acc.shape[-1]:
        raise ValueError(f"{lanes} requantization lanes for accumulator shape {acc.shape}")
    left, right = np.maximum(-shift, 0), np.maximum(shift, 0)
    mask = None if right.all() else -(right > 0).astype(np.int64)
    nudge = ((np.int64(1) << right) >> 1) + (np.asarray(offset, dtype=np.int64) << right)
    proved = bound is not None and not left.any()
    if proved and bias is not None:
        bound += int(np.abs(bias, dtype=np.int64).max(initial=0))
    proved = proved and bound < -ACC_MIN
    # |a + b| < 2**31 and m < 2**31: neither side of the identity leaves int64.
    half = bias * multiplier + (1 << 30) if proved and bias is not None else 1 << 30
    low, high = (info.min_value, info.max_value) if clamp is None else clamp
    flat = acc.reshape(-1, lanes)
    out = np.empty(flat.shape, info.numpy_dtype if out_dtype is None else out_dtype)
    step = max(1, _EPILOGUE_BLOCK // lanes)
    scratch = np.empty((2, min(step, len(flat)), lanes), dtype=np.int64)
    for start in range(0, len(flat), step):
        rows = flat[start : start + step]
        x, sign = scratch[:, : len(rows)]
        np.copyto(x, rows, casting="unsafe")
        if not proved:
            if bias is not None:
                x += bias
            np.clip(x, ACC_MIN, ACC_MAX, out=x)
            if left.any():  # left shift applied before the high-mul, as in gemmlowp
                x <<= left
                np.clip(x, ACC_MIN, ACC_MAX, out=x)
        x *= multiplier
        x += half
        x >>= 31
        if not proved:
            # The only overflow case is INT32_MIN * INT32_MIN; saturate regardless.
            np.minimum(x, ACC_MAX, out=x)
        _rounding_shift(x, sign, right, nudge, mask)
        np.clip(x, low, high, out=out[start : start + step], casting="unsafe")
    return out.reshape(acc.shape)
