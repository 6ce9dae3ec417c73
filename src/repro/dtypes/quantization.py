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


#: Elements the OUT-unit epilogue holds at a time: its scratch (int64
#: blocks, or the float64 rung's block and dense per-lane tiles) stays
#: cache-resident across the in-place passes.  Measurements:
#: docs/simulator-performance.md, "Block size".
_EPILOGUE_BLOCK = 1 << 15

#: Every integer of smaller magnitude is exact in float64.
_F64_EXACT = 1 << 53


def _f64_rung(
    bound: int, multiplier: np.ndarray, right: np.ndarray, nudge: np.ndarray,
    bias: np.ndarray | None, offset: np.ndarray, low: int,
) -> tuple[np.ndarray, ...] | None:
    """The float64 rung's per-lane constants, or ``None`` where its proof
    fails: ``(scale, const)``, plus ``(threshold, half)`` when some lane
    keeps the sign word.

    With ``u = 2**-(31 + s)`` and ``K = b*m + 2**30 + nudge * 2**31``, the
    nested-floor identity makes ``floor(a * (m*u) + K*u)`` the high-mul and
    the rounding shift in one (proofs: docs/simulator-performance.md); the
    sum is exact when ``bound*|m| + |K| < 2**53``.  RoundingDivideByPOT's
    sign word subtracts ``2**-s`` where ``y < z + 1/2``.  It is kept on
    lanes with ``s > 0`` whose clamp reaches below the offset, branch-free:
    ``const`` there is ``K*u - 2**-s/2``, and the loop adds
    ``copysign(2**-s/2, y - z - 1/2)``.  Both sums must be exact as well,
    so those lanes carry a ``2**31`` margin.  The caller has proved ``bound
    + |b| < 2**31``; with ``|m| < 2**31`` and ``|nudge| < 2**21`` checked
    first, no term leaves int64.
    """
    if (np.abs(multiplier) >= 1 << 31).any() or (np.abs(nudge) >= 1 << 21).any():
        return None
    const = (nudge << 31) + (1 << 30)
    if bias is not None:
        const = const + bias * multiplier
    signword = (right > 0) & (low < offset)
    reach = bound * np.abs(multiplier) + np.abs(const) + np.where(signword, 1 << 31, 0)
    if (reach >= _F64_EXACT).any():
        return None
    unit = np.ldexp(1.0, -31 - right)
    half = np.where(signword, unit * (1 << 30), 0.0)
    constants = (multiplier * unit, const * unit - half)
    return constants + ((nudge << 31) * unit - half, half) if signword.any() else constants


def requantize(
    acc: np.ndarray,
    multiplier: npt.ArrayLike,
    shift: npt.ArrayLike,
    offset: npt.ArrayLike,
    dtype: NcoreDType | str = NcoreDType.UINT8,
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
    it through :mod:`repro.ncore.out` and :class:`Requantizer`.  ``acc``
    is any integer or integer-valued float64 array and is never written;
    it is saturated to the 32-bit accumulator range first.  The high-mul
    is the closed form ``(a * m + 2**30) >> 31`` (gemmlowp's
    sign-dependent nudge and truncating division, for every product), the
    right shift :func:`_rounding_shift` with the offset folded into its
    constant (proofs: docs/simulator-performance.md).  Work runs in place
    over row blocks of :data:`_EPILOGUE_BLOCK` elements in scratch owned by
    the call, written straight into the result (*dtype*'s own numpy type;
    :class:`Requantizer` takes another).
    """
    return Requantizer(multiplier, shift, offset, dtype)(acc)


class Requantizer:
    """:func:`requantize` with every argument but ``acc`` bound: the
    per-lane constants are folded once, here, and each call runs only the
    block loop.  A caller that requantizes with the same registers, bias
    and bound on every query (a macro-kernel) builds one and keeps it.

    ``bias`` is added to the accumulator before the 32-bit saturation.
    ``clamp`` is the final saturation range when it is narrower than
    *dtype*'s own (a fused ReLU / ReLU6 in the quantized domain).
    ``bound`` is a proof obligation the caller discharges statically:
    ``|acc| <= bound`` for every element.  When ``bound + max|bias|`` stays
    below ``2**31`` and no lane shifts left, the accumulator can never
    saturate, so the three 32-bit saturation passes are skipped and the
    bias rides in the high-mul's rounding constant:
    ``(a + b) * m + 2**30 == a * m + (b * m + 2**30)``.  Where, on top of
    that, every lane's numerator stays below ``2**53`` (:func:`_f64_rung`),
    the epilogue runs in float64 instead.  ``rung`` names the loop that
    runs: ``"f64"`` or ``"int64"``; without a bound no proof is tried."""

    def __init__(
        self,
        multiplier: npt.ArrayLike,
        shift: npt.ArrayLike,
        offset: npt.ArrayLike,
        dtype: NcoreDType | str = NcoreDType.UINT8,
        *,
        bias: np.ndarray | None = None,
        out_dtype: npt.DTypeLike | None = None,
        clamp: tuple[int, int] | None = None,
        bound: int | None = None,
    ) -> None:
        info = dtype_info(dtype)
        multiplier = np.asarray(multiplier, dtype=np.int64)
        shift = np.asarray(shift, dtype=np.int64)
        offset = np.asarray(offset, dtype=np.int64)
        self.lanes = np.broadcast(multiplier, shift, offset, 0 if bias is None else bias).size
        left, right = np.maximum(-shift, 0), np.maximum(shift, 0)
        self.mask = None if right.all() else -(right > 0).astype(np.int64)
        self.nudge = ((np.int64(1) << right) >> 1) + (offset << right)
        self.low, self.high = (info.min_value, info.max_value) if clamp is None else clamp
        self.out_dtype = info.numpy_dtype if out_dtype is None else out_dtype
        self.multiplier, self.right, self.bias = multiplier, right, bias
        self.left = left if left.any() else None
        reach: int | None = None  # max |a + b|, where no lane shifts left
        if bound is not None and not left.any():
            reach = bound
            if bias is not None:
                reach += int(np.abs(bias, dtype=np.int64).max(initial=0))
        self.proved = proved = reach is not None and reach < -ACC_MIN
        # |a + b| < 2**31 and m < 2**31: neither side of the identity leaves int64.
        self.half = bias * multiplier + (1 << 30) if proved and bias is not None else 1 << 30
        self.lane_constants = (
            _f64_rung(bound, multiplier, right, self.nudge, bias, offset, self.low)
            if proved else None
        )
        self.rung = "int64" if self.lane_constants is None else "f64"

    def __call__(self, acc: np.ndarray) -> np.ndarray:
        acc = np.asarray(acc)
        lanes = self.lanes
        if lanes != 1 and lanes != acc.shape[-1]:
            raise ValueError(f"{lanes} requantization lanes for accumulator shape {acc.shape}")
        flat = acc.reshape(-1, lanes)
        out = np.empty(flat.shape, self.out_dtype)
        step = max(1, _EPILOGUE_BLOCK // lanes)
        block = (min(step, len(flat)), lanes)
        if self.lane_constants is None:
            self._int64_blocks(flat, out, step, block)
        else:
            self._f64_blocks(flat, out, step, block)
        return out.reshape(acc.shape)

    def _int64_blocks(
        self, flat: np.ndarray, out: np.ndarray, step: int, block: tuple[int, int]
    ) -> None:
        proved, bias, left = self.proved, self.bias, self.left
        scratch = np.empty((2, *block), dtype=np.int64)
        for start in range(0, len(flat), step):
            rows = flat[start : start + step]
            x, sign = scratch[:, : len(rows)]
            np.copyto(x, rows, casting="unsafe")
            if not proved:
                if bias is not None:
                    x += bias
                np.clip(x, ACC_MIN, ACC_MAX, out=x)
                if left is not None:  # left shift applied before the high-mul, as in gemmlowp
                    x <<= left
                    np.clip(x, ACC_MIN, ACC_MAX, out=x)
            x *= self.multiplier
            x += self.half
            x >>= 31
            if not proved:
                # The only overflow case is INT32_MIN * INT32_MIN; saturate regardless.
                np.minimum(x, ACC_MAX, out=x)
            _rounding_shift(x, sign, self.right, self.nudge, self.mask)
            np.clip(x, self.low, self.high, out=out[start : start + step], casting="unsafe")

    def _f64_blocks(
        self, flat: np.ndarray, out: np.ndarray, step: int, block: tuple[int, int]
    ) -> None:
        # One allocation: the float64 block (two with the sign word), then
        # the per-lane constants as dense (rows, lanes) tiles.  A broadcast
        # (lanes,) operand costs a pass about twice what a dense one does.
        constants = self.lane_constants
        work = 2 if len(constants) > 2 else 1
        scratch = np.empty((work + len(constants), *block))
        for tile, value in zip(scratch[work:], constants, strict=True):
            tile[...] = value
        scale, const, *signword = scratch[work:]
        floor = self.low < 0  # else the narrowing cast's truncation is the floor
        for start in range(0, len(flat), step):
            rows = flat[start : start + step]
            n = len(rows)
            y = scratch[0, :n]
            np.copyto(y, rows)  # a cast, then a same-type multiply: cheaper than a mixed one
            y *= scale[:n]
            y += const[:n]
            if signword:
                threshold, half = signword
                sign = scratch[1, :n]
                np.subtract(y, threshold[:n], out=sign)
                np.copysign(half[:n], sign, out=sign)
                y += sign
            if floor:
                np.floor(y, out=y)
            np.clip(y, self.low, self.high, out=out[start : start + step], casting="unsafe")
