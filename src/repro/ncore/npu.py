"""The Neural Processing Unit (NPU): the 4096-lane arithmetic array.

Section IV-D.4: MACs, additions, subtractions, min/max, logical operations;
optional conversion of unsigned 8-bit values to signed 9-bit by subtracting
a zero offset (separate offsets for data and weights); a 32-bit saturating
accumulator conditionally set via predication; data forwarding to the
adjacent slice's NPU with wraparound ("slide").

These are pure functions over integer lane arrays; bf16 lanes use a
float32 accumulator (hardware floating-point MACs keep a wide accumulator,
modelled here as IEEE float32).  :func:`execute_int` (int64, saturating)
is the spec; its one saturation proof, :func:`proven_bound`, lets the int32
:func:`execute_int8` (one issue) and :func:`fold_int8` (a block of issues,
for :mod:`repro.ncore.fastpath`) skip the clip.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

from repro.dtypes import ACC_MAX, ACC_MIN, NcoreDType
from repro.isa.instruction import NPUOp, NPUOpcode
from repro.ncore.errors import ExecutionError

SLICE_LANES = 256  # lanes per slice; the granularity of neighbour forwarding
Array = npt.NDArray[Any]


def slide_from_neighbor(lanes: Array) -> Array:
    """Forward each slice's data to the next slice, wrapping last -> first.

    Lane *l* receives the value lane *l - 256* held, so data "slides"
    across all 4,096 byte-wise execution elements over successive cycles.
    """
    return np.roll(lanes, SLICE_LANES)


#: The one spelling of each ALU opcode's combining function.  The
#: interpreter applies it to one issue's lanes, :func:`fold_int8` to a
#: (issues, lanes) block of them at once.
COMBINE: dict[NPUOpcode, np.ufunc] = {
    NPUOpcode.MAC: np.multiply,
    NPUOpcode.ADD: np.add,
    NPUOpcode.SUB: np.subtract,
    NPUOpcode.MIN: np.minimum,
    NPUOpcode.MAX: np.maximum,
    NPUOpcode.AND: np.bitwise_and,
    NPUOpcode.OR: np.bitwise_or,
    NPUOpcode.XOR: np.bitwise_xor,
}

_LOGICAL = frozenset({NPUOpcode.AND, NPUOpcode.OR, NPUOpcode.XOR})

#: The opcodes defined on bf16 lanes (logical ops are integer-only), which
#: are also the arithmetic and pooling folds the saturation proof covers.
FLOAT_OPCODES = NARROW_OPCODES = frozenset(COMBINE) - _LOGICAL


def fold_class(opcode: NPUOpcode, accumulate: bool) -> str:
    """How an issue's combined value meets the accumulator: logical ops
    and non-accumulating issues ``"replace"`` it, MIN/MAX fold against it
    (``"minmax"``, the pooling idiom), arithmetic ops ``"sum"`` into it."""
    if not accumulate or opcode in _LOGICAL:
        return "replace"
    if opcode in (NPUOpcode.MIN, NPUOpcode.MAX):
        return "minmax"
    return "sum"


def execute_int(
    op: NPUOp,
    data: Array,
    weight: Array,
    acc: Array,
    predicate_mask: Array | None,
) -> Array:
    """One integer NPU operation; returns the new accumulator.

    ``data``/``weight`` are already sign-interpreted int32 lane arrays with
    zero offsets and the data pre-shift applied.  Arithmetic ops accumulate
    by saturating addition (see :func:`fold_class`).
    """
    combine = COMBINE.get(op.opcode)
    if combine is None:
        raise ValueError(f"not an integer ALU opcode: {op.opcode}")
    combined: Array = combine(data, weight, dtype=np.int64)
    klass = fold_class(op.opcode, op.accumulate)
    if klass == "minmax":
        new_acc: Array = combine(acc, combined, out=combined)
    else:
        if klass == "sum":
            combined += acc
        new_acc = np.clip(combined, ACC_MIN, ACC_MAX, out=combined)
    new_acc = new_acc.astype(np.int32)
    if predicate_mask is not None:
        new_acc = np.where(predicate_mask, new_acc, acc)
    return new_acc


def proven_bound(opcode: NPUOpcode, signed: bool, data_zero: int, weight_zero: int,
                 acc: Array, issues: int) -> int | None:
    """The saturation proof: a bound on any combined lane value of an 8-bit
    (int8 when ``signed``) :data:`NARROW_OPCODES` issue subtracting these
    zero offsets, or None when ``issues`` such issues could saturate
    ``acc`` (MAC / ADD / SUB move it by up to the bound each).  A lane
    minus its offset ``z`` lies in ``[lo - z, hi - z]``, so its magnitude
    is at most ``max(|lo - z|, |hi - z|)``.  Under the proof the spec's
    clip is idle: an int32 fold in any order equals it."""
    lo, hi = (-128, 127) if signed else (0, 255)
    dbound = max(abs(lo - data_zero), abs(hi - data_zero))
    wbound = max(abs(lo - weight_zero), abs(hi - weight_zero))
    if opcode is NPUOpcode.MAC:
        bound = dbound * wbound
    elif opcode is NPUOpcode.ADD or opcode is NPUOpcode.SUB:
        bound = dbound + wbound
    else:
        bound = max(dbound, wbound)
        return bound if bound <= ACC_MAX else None
    peak = max(-int(acc.min()), int(acc.max())) + issues * bound
    return bound if peak <= ACC_MAX else None


def execute_int8(op: NPUOp, data: Array, weight: Array, data_zero: int,
                 weight_zero: int, acc: Array) -> Array:
    """One unpredicated 8-bit :data:`NARROW_OPCODES` issue without
    ``data_shift`` or neighbour forwarding, from its raw rows and the zero
    offsets it subtracts (0 without ``zero_offset``): in int32 under
    :func:`proven_bound`, else by the saturating spec :func:`execute_int`.
    """
    signed = op.dtype is NcoreDType.INT8
    if signed:
        data, weight = data.view(np.int8), weight.view(np.int8)
    data, weight = data.astype(np.int32), weight.astype(np.int32)
    if proven_bound(op.opcode, signed, data_zero, weight_zero, acc, 1) is None:
        return execute_int(op, data - data_zero, weight - weight_zero, acc, None)
    # The bound covers the offsets, so nothing below wraps.
    if data_zero or weight_zero:
        data -= data_zero
        weight -= weight_zero
    combine = COMBINE[op.opcode]
    combined: Array = combine(data, weight, out=data)
    klass = fold_class(op.opcode, op.accumulate)
    if klass == "sum":
        combined += acc
    elif klass == "minmax":
        combine(combined, acc, out=combined)
    return combined


def scratch(pool: dict[object, Array], tag: object, shape: tuple[int, ...],
            dtype: Any) -> Array:
    """``pool``'s reusable buffer for this (tag, dtype) slot, as ``shape``.

    Block evaluation needs multi-MB temporaries on every call; recycling
    them keeps the pages warm, and one buffer per slot, grown to the
    largest shape asked, bounds the pool.  Callers overwrite the buffer
    fully and never publish it into machine state without copying.
    """
    key, size = (tag, np.dtype(dtype).str), int(np.prod(shape))
    buf = pool.get(key)
    if buf is None or buf.size < size:
        buf = pool[key] = np.empty(size, dtype=dtype)
    return buf[:size].reshape(shape)


def fold_int8(op: NPUOp, data: Array, weight: Array, data_zero: int, weight_zero: int,
              acc: Array, pool: dict[object, Array]) -> Array | None:
    """The accumulator after one accumulating :func:`execute_int8` issue
    per entry of the leading (issues) axis of the raw ``data`` / ``weight``
    rows, or None when :func:`proven_bound` fails for that many issues.
    The operands broadcast against each other and their issue slices
    against ``acc`` (a ``(issues, groups, 1)`` operand is one byte per
    broadcast group, an ``(issues, 1, 64)`` one the same lanes for every
    group; neither is widened to the row).

    Under the proof the order-free int32 sum (or min/max reduction)
    equals the sequential saturating fold, so every issue combines at
    once.  A MAC against a broadcast operand runs as float32 matrix
    products (:func:`_broadcast_gemv`) where they are exact; otherwise the
    combine runs in the narrowest dtype holding every value under the
    bound (SIMD throughput scales with element width), into ``pool``'s
    buffers: ``data`` less its offset widens once into the combine buffer,
    a broadcast or offset ``weight`` widens alone, and the combine runs in
    one dtype, in place.
    """
    signed = op.dtype is NcoreDType.INT8
    bound = proven_bound(op.opcode, signed, data_zero, weight_zero, acc, len(data))
    if bound is None:
        return None
    if signed:
        data, weight = data.view(np.int8), weight.view(np.int8)
    if op.opcode is NPUOpcode.MAC and weight.shape[-1] == 1 < data.shape[-1]:
        sums = _broadcast_gemv(data, weight, data_zero, weight_zero, signed, pool)
        if sums is not None:
            gemv: Array = acc + sums
            return gemv
    cdtype: type
    offsets = bool(data_zero or weight_zero)
    if not (signed or offsets) and op.opcode is not NPUOpcode.SUB and bound <= 65535:
        cdtype = np.uint16
    elif bound <= 32767:
        cdtype = np.int16
    else:
        cdtype = np.int32
    out = scratch(pool, "combine", np.broadcast(data, weight).shape, cdtype)
    np.subtract(data, data_zero, dtype=cdtype, out=out)
    if weight_zero or weight.size < out.size:
        weight = np.subtract(weight, weight_zero, dtype=cdtype,
                             out=scratch(pool, "weight", weight.shape, cdtype))
    combine = COMBINE[op.opcode]
    combined: Array = combine(out, weight, out=out)
    if fold_class(op.opcode, op.accumulate) == "sum":
        total: Array = acc + combined.sum(axis=0, dtype=np.int32)
        return total
    folded: Array = combine(acc, combine.reduce(combined, axis=0))
    return folded.astype(np.int32, copy=False)


def _broadcast_gemv(data: Array, weight: Array, data_zero: int, weight_zero: int,
                    signed: bool, pool: dict[object, Array]) -> Array | None:
    """The MAC sum of :func:`fold_int8` for (issues, groups | 1, 64) ``data``
    against a (issues, groups, 1) broadcast ``weight``, as float32 matrix
    products: per group, the offset weight bytes ``w'`` (1 x issues) times
    the raw data (issues x 64), less ``data_zero * sum(w')``; data shared
    by every group is one product.  Every partial sum is an integer of
    magnitude at most issues * max|d| * max|w'|, so the float32 sums are
    exact while that stays below 2**24; None when it does not (the caller
    combines in integers instead).  The float32 data (4 bytes per lane and
    issue) is ``pool``'s."""
    lo, hi = (-128, 127) if signed else (0, 255)
    issues, groups = weight.shape[:2]
    if issues * max(-lo, hi) * max(abs(lo - weight_zero), abs(hi - weight_zero)) >= 1 << 24:
        return None
    offset = np.subtract(weight.reshape(issues, groups).T, weight_zero, dtype=np.float32)
    rows = scratch(pool, "gemv", data.shape, np.float32)
    np.copyto(rows, data)
    if data.shape[1] == 1:  # one tile for every group: a single product
        product = offset @ rows[:, 0]
    else:
        product = np.matmul(offset[:, None], rows.transpose(1, 0, 2))[:, 0]
    sums: Array = product.astype(np.int32)
    if data_zero:
        sums -= data_zero * offset.sum(axis=1).astype(np.int32)[:, None]
    return sums


def execute_float(
    op: NPUOp,
    data: Array,
    weight: Array,
    acc: Array,
    predicate_mask: Array | None,
) -> Array:
    """One bfloat16 NPU operation on the float32 accumulator."""
    if op.opcode not in FLOAT_OPCODES:
        raise ExecutionError(f"opcode {op.opcode} is not defined for bf16 lanes")
    combined: Array = COMBINE[op.opcode](data, weight)
    klass = fold_class(op.opcode, op.accumulate)
    if klass == "replace":
        new_acc = combined.astype(np.float32)
    elif klass == "minmax":
        new_acc = COMBINE[op.opcode](acc, combined).astype(np.float32)
    else:
        new_acc = (acc + combined).astype(np.float32)
    if predicate_mask is not None:
        new_acc = np.where(predicate_mask, new_acc, acc).astype(np.float32)
    return new_acc


def compare_gt(data: Array, weight: Array) -> Array:
    """CMPGT: compute the per-lane predicate ``data > weight``."""
    return data > weight
