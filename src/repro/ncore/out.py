"""The OUT unit: requantization, activations and result stores.

Section IV-D.5: requantization of the 32-bit accumulator to 8/16-bit types
"by multiplying the accumulator with a range value, shifting the result
left or right based on a scale value, and adding an offset value"; plus
activations (ReLU, tanh, sigmoid) and storing different transformations of
the accumulator.

The range/scale/offset values are *per-lane* configuration registers so
that per-output-channel quantization parameters can be applied in one
pass (channels are laid out across lanes by the NKL).  The arithmetic is
:func:`repro.dtypes.requantize`, which takes them per lane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dtypes import (
    ChannelQuantParams,
    NcoreDType,
    QuantParams,
    dtype_info,
    quantize_multiplier,
    requantize,
    to_bfloat16,
)
from repro.isa.instruction import Activation
from repro.ncore.errors import ExecutionError


def requantize_lanes(
    acc: np.ndarray,
    multiplier: np.ndarray,
    shift: np.ndarray,
    offset: np.ndarray,
    dtype: NcoreDType,
) -> np.ndarray:
    """Vectorised per-lane requantization (gemmlowp-compatible).

    :func:`repro.dtypes.requantize` — the one kernel — with per-lane
    multiplier / shift / offset arrays, returning int32 lanes saturated to
    the target type's range (not yet narrowed to bytes).
    """
    return requantize(acc, multiplier, shift, offset, dtype, out_dtype=np.int32)


@dataclass(frozen=True)
class RequantSpec:
    """Requantization of an int accumulator whose last axis is the output
    channel, with the multipliers precomputed: per-tensor weights use one
    mult/shift, per-channel weights one per output channel — exactly what
    the per-lane range/scale registers above implement.  The one
    graph-level requantize: the int64 reference kernels
    (:mod:`repro.runtime.qkernels`) build and apply it per call, the
    macro-kernels (:mod:`repro.ncore.codegen`) build it once at codegen."""

    zero_point: int
    dtype: NcoreDType
    mult: int = 0
    shift: int = 0
    lane_mults: np.ndarray | None = None
    lane_shifts: np.ndarray | None = None
    #: Code range of a fused activation (``None``: the dtype's own): the
    #: epilogue's final saturation, so ReLU / ReLU6 cost no pass of their own.
    clamp: tuple[int, int] | None = None

    @classmethod
    def build(cls, x_scale: float, w_qp: QuantParams | ChannelQuantParams,
              out_qp: QuantParams, clamp: tuple[int, int] | None = None) -> "RequantSpec":
        if isinstance(w_qp, ChannelQuantParams):
            pairs = [
                quantize_multiplier(x_scale * scale / out_qp.scale)
                for scale in w_qp.scales
            ]
            return cls(
                zero_point=out_qp.zero_point, dtype=out_qp.dtype, clamp=clamp,
                lane_mults=np.array([p[0] for p in pairs], dtype=np.int64),
                lane_shifts=np.array([p[1] for p in pairs], dtype=np.int64),
            )
        mult, shift = quantize_multiplier(x_scale * w_qp.scale / out_qp.scale)
        return cls(
            zero_point=out_qp.zero_point, dtype=out_qp.dtype, clamp=clamp,
            mult=mult, shift=shift,
        )

    def apply(self, acc: np.ndarray, bias: np.ndarray | None = None,
              bound: int | None = None) -> np.ndarray:
        """Requantize an integer (or integer-valued float) accumulator plus
        ``bias`` to the narrow type, saturating to ``clamp``.  ``bound`` is
        the caller's static proof that ``|acc| <= bound`` (see
        :func:`repro.dtypes.requantize`); without it the sum is clipped to
        the int32 accumulator range first."""
        if self.lane_mults is None or self.lane_shifts is None:
            mult, shift = self.mult, self.shift
        else:
            mult, shift = self.lane_mults, self.lane_shifts
        return requantize(
            acc, mult, shift, self.zero_point, self.dtype,
            bias=bias, clamp=self.clamp, bound=bound,
        )


def apply_integer_activation(
    values: np.ndarray,
    activation: Activation,
    zero_point: np.ndarray,
    act_qmax: int,
    lut: np.ndarray | None,
    dtype: NcoreDType,
) -> np.ndarray:
    """Apply an activation in the quantized domain.

    ReLU clamps at the per-lane output zero point; ReLU6 additionally
    clamps at the configured upper code ``act_qmax``.  tanh and sigmoid
    index a 256-entry lookup table loaded by the runtime (the standard way
    fixed-function hardware evaluates them).
    """
    if activation is Activation.NONE:
        return values
    if activation is Activation.RELU:
        return np.maximum(values, zero_point)
    if activation is Activation.RELU6:
        return np.clip(values, zero_point, act_qmax)
    if lut is None:
        raise ExecutionError(f"{activation.value} requires an activation LUT")
    info = dtype_info(dtype)
    if info.bytes_per_element != 1:
        raise ExecutionError("LUT activations are defined for 8-bit outputs only")
    index = (values - int(info.min_value)).astype(np.int64)  # 0..255
    return lut[index].astype(np.int32)


def narrow_to_rows(values: np.ndarray, dtype: NcoreDType) -> tuple[np.ndarray, np.ndarray]:
    """Split requantized int32 lanes into (low, high) byte rows.

    8-bit outputs fill only the low row; 16-bit outputs split into low and
    high byte rows, matching the RAM layout of 16-bit data (section
    IV-C.2).
    """
    info = dtype_info(dtype)
    narrowed = values.astype(info.numpy_dtype)
    if info.bytes_per_element == 1:
        low = narrowed.view(np.uint8)
        return low.copy(), np.zeros_like(low)
    raw = narrowed.view(np.uint8).reshape(-1, 2)
    return raw[:, 0].copy(), raw[:, 1].copy()


def float_output_rows(
    acc: np.ndarray, scale: float, activation: Activation
) -> tuple[np.ndarray, np.ndarray]:
    """bf16 output path: scale, activate, round to bf16, split into rows."""
    values = acc.astype(np.float32) * np.float32(scale)
    if activation is Activation.RELU:
        values = np.maximum(values, 0.0)
    elif activation is Activation.RELU6:
        values = np.clip(values, 0.0, 6.0)
    elif activation is Activation.TANH:
        values = np.tanh(values)
    elif activation is Activation.SIGMOID:
        values = 1.0 / (1.0 + np.exp(-values))
    rounded = to_bfloat16(values.astype(np.float32))
    bits = np.ascontiguousarray(rounded).view(np.uint32) >> np.uint32(16)
    low = (bits & np.uint32(0xFF)).astype(np.uint8)
    high = (bits >> np.uint32(8)).astype(np.uint8)
    return low, high
