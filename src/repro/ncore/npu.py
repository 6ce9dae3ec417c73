"""The Neural Processing Unit (NPU): the 4096-lane arithmetic array.

Section IV-D.4: MACs, additions, subtractions, min/max, logical operations;
optional conversion of unsigned 8-bit values to signed 9-bit by subtracting
a zero offset (separate offsets for data and weights); a 32-bit saturating
accumulator conditionally set via predication; data forwarding to the
adjacent slice's NPU with wraparound ("slide").

These are pure functions over integer lane arrays; bf16 lanes use a
float32 accumulator (hardware floating-point MACs keep a wide accumulator,
modelled here as IEEE float32).
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import ACC_MAX, ACC_MIN
from repro.isa.instruction import NPUOp, NPUOpcode
from repro.ncore.errors import ExecutionError

SLICE_LANES = 256  # lanes per slice; the granularity of neighbour forwarding


def slide_from_neighbor(lanes: np.ndarray) -> np.ndarray:
    """Forward each slice's data to the next slice, wrapping last -> first.

    Lane *l* receives the value lane *l - 256* held, so data "slides"
    across all 4,096 byte-wise execution elements over successive cycles.
    """
    return np.roll(lanes, SLICE_LANES)


#: The one spelling of each ALU opcode's combining function.  The
#: interpreter applies it to one issue's lanes, the trace-fused path
#: (:mod:`repro.ncore.fastpath`) to a whole block of trips at once.
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

#: The opcodes defined on bf16 lanes (logical ops are integer-only).
FLOAT_OPCODES = frozenset(COMBINE) - _LOGICAL


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
    data: np.ndarray,
    weight: np.ndarray,
    acc: np.ndarray,
    predicate_mask: np.ndarray | None,
) -> np.ndarray:
    """One integer NPU operation; returns the new accumulator.

    ``data``/``weight`` are already sign-interpreted int32 lane arrays with
    zero offsets and the data pre-shift applied.  Arithmetic ops accumulate
    by saturating addition (see :func:`fold_class`).
    """
    combine = COMBINE.get(op.opcode)
    if combine is None:
        raise ValueError(f"not an integer ALU opcode: {op.opcode}")
    combined = combine(data.astype(np.int64), weight.astype(np.int64))
    klass = fold_class(op.opcode, op.accumulate)
    if klass == "replace":
        new_acc = np.clip(combined, ACC_MIN, ACC_MAX)
    elif klass == "minmax":
        new_acc = combine(acc.astype(np.int64), combined)
    else:
        new_acc = np.clip(acc.astype(np.int64) + combined, ACC_MIN, ACC_MAX)
    new_acc = new_acc.astype(np.int32)
    if predicate_mask is not None:
        new_acc = np.where(predicate_mask, new_acc, acc)
    return new_acc


def execute_float(
    op: NPUOp,
    data: np.ndarray,
    weight: np.ndarray,
    acc: np.ndarray,
    predicate_mask: np.ndarray | None,
) -> np.ndarray:
    """One bfloat16 NPU operation on the float32 accumulator."""
    if op.opcode not in FLOAT_OPCODES:
        raise ExecutionError(f"opcode {op.opcode} is not defined for bf16 lanes")
    combined = COMBINE[op.opcode](data, weight)
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


def compare_gt(data: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """CMPGT: compute the per-lane predicate ``data > weight``."""
    return data > weight
