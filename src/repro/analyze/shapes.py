"""Shape and dtype propagation over the GIR.

The model builders declare every tensor's :class:`TensorType` explicitly;
this module recomputes the output types each node *should* produce from its
declared input types, so the GIR verifier can re-check every declaration
instead of trusting it.  The propagation covers the whole operator
vocabulary and reports every inconsistency.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.dtypes import NcoreDType
from repro.graph.gir import Graph, Node, TensorType


class ShapeInferenceError(ValueError):
    """A node's declared input types are inconsistent with its op."""


def _out_dim(size: int, k: int, stride: int, pad: tuple[int, int]) -> int:
    return (size + pad[0] + pad[1] - k) // stride + 1


def _require_rank(shape: tuple[int, ...], rank: int, what: str) -> None:
    if len(shape) != rank:
        raise ShapeInferenceError(f"{what} must be rank {rank}, got shape {shape}")


def _broadcast(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    try:
        return tuple(np.broadcast_shapes(a, b))
    except ValueError:
        raise ShapeInferenceError(f"shapes {a} and {b} do not broadcast") from None


DType = NcoreDType | str


def _conv2d(node: Node, ins: list[TensorType]) -> list[TensorType]:
    x, w = ins[0], ins[1]
    _require_rank(x.shape, 4, "conv2d input")
    _require_rank(w.shape, 4, "conv2d weights (HWIO)")
    if x.shape[3] != w.shape[2]:
        raise ShapeInferenceError(
            f"conv2d channel mismatch: input has {x.shape[3]}, weights expect {w.shape[2]}"
        )
    stride = node.attr("stride", (1, 1))
    padding = node.attr("padding", ((0, 0), (0, 0)))
    out = (
        x.shape[0],
        _out_dim(x.shape[1], w.shape[0], stride[0], padding[0]),
        _out_dim(x.shape[2], w.shape[1], stride[1], padding[1]),
        w.shape[3],
    )
    return [TensorType(out, x.dtype)]


def _depthwise(node: Node, ins: list[TensorType]) -> list[TensorType]:
    x, w = ins[0], ins[1]
    _require_rank(x.shape, 4, "depthwise input")
    _require_rank(w.shape, 3, "depthwise weights (HWC)")
    if x.shape[3] != w.shape[2]:
        raise ShapeInferenceError(
            f"depthwise channel mismatch: input has {x.shape[3]}, weights expect {w.shape[2]}"
        )
    stride = node.attr("stride", (1, 1))
    padding = node.attr("padding", ((0, 0), (0, 0)))
    out = (
        x.shape[0],
        _out_dim(x.shape[1], w.shape[0], stride[0], padding[0]),
        _out_dim(x.shape[2], w.shape[1], stride[1], padding[1]),
        w.shape[2],
    )
    return [TensorType(out, x.dtype)]


def _fully_connected(node: Node, ins: list[TensorType]) -> list[TensorType]:
    x, w = ins[0], ins[1]
    _require_rank(w.shape, 2, "fully_connected weights")
    if not x.shape or x.shape[-1] != w.shape[0]:
        raise ShapeInferenceError(
            f"fully_connected feature mismatch: input {x.shape} vs weights {w.shape}"
        )
    return [TensorType(x.shape[:-1] + (w.shape[1],), x.dtype)]


def _elementwise(node: Node, ins: list[TensorType]) -> list[TensorType]:
    return [TensorType(ins[0].shape, ins[0].dtype)]


def _binary(node: Node, ins: list[TensorType]) -> list[TensorType]:
    shape = _broadcast(ins[0].shape, ins[1].shape)
    return [TensorType(shape, ins[0].dtype)]


def _bias_add(node: Node, ins: list[TensorType]) -> list[TensorType]:
    x, bias = ins[0], ins[1]
    if bias.shape and x.shape and bias.shape[-1] != x.shape[-1]:
        raise ShapeInferenceError(
            f"bias length {bias.shape[-1]} does not match channels {x.shape[-1]}"
        )
    return [TensorType(x.shape, x.dtype)]


def _batch_norm(node: Node, ins: list[TensorType]) -> list[TensorType]:
    channels = ins[0].shape[-1] if ins[0].shape else 0
    for i, param in enumerate(ins[1:5], start=1):
        if param.shape and param.shape[-1] != channels:
            raise ShapeInferenceError(
                f"batch_norm parameter {i} has {param.shape[-1]} channels, input has {channels}"
            )
    return [TensorType(ins[0].shape, ins[0].dtype)]


def _concat(node: Node, ins: list[TensorType]) -> list[TensorType]:
    axis = node.attr("axis", -1)
    first = ins[0].shape
    rank = len(first)
    norm_axis = axis % rank if rank else 0
    total = 0
    for t in ins:
        if len(t.shape) != rank:
            raise ShapeInferenceError("concat inputs must share rank")
        for dim in range(rank):
            if dim != norm_axis and t.shape[dim] != first[dim]:
                raise ShapeInferenceError(
                    f"concat inputs disagree on non-axis dim {dim}: {t.shape} vs {first}"
                )
        total += t.shape[norm_axis]
    out = tuple(total if d == norm_axis else first[d] for d in range(rank))
    return [TensorType(out, ins[0].dtype)]


def _pad(node: Node, ins: list[TensorType]) -> list[TensorType]:
    x = ins[0]
    _require_rank(x.shape, 4, "pad input")
    (top, bottom), (left, right) = node.attrs["padding"]
    out = (x.shape[0], x.shape[1] + top + bottom, x.shape[2] + left + right, x.shape[3])
    return [TensorType(out, x.dtype)]


def _pool(node: Node, ins: list[TensorType]) -> list[TensorType]:
    x = ins[0]
    _require_rank(x.shape, 4, f"{node.op} input")
    kh, kw = node.attrs["ksize"]
    stride = node.attrs["stride"]
    padding = node.attr("padding", ((0, 0), (0, 0)))
    out = (
        x.shape[0],
        _out_dim(x.shape[1], kh, stride[0], padding[0]),
        _out_dim(x.shape[2], kw, stride[1], padding[1]),
        x.shape[3],
    )
    return [TensorType(out, x.dtype)]


def _mean(node: Node, ins: list[TensorType]) -> list[TensorType]:
    axes = node.attr("axis", (1, 2))
    if isinstance(axes, int):
        axes = (axes,)
    rank = len(ins[0].shape)
    keep = tuple(
        dim for i, dim in enumerate(ins[0].shape) if i not in {a % rank for a in axes}
    )
    return [TensorType(keep if keep else (1,), ins[0].dtype)]


def _reshape(node: Node, ins: list[TensorType]) -> list[TensorType]:
    shape = tuple(node.attrs["shape"])
    if int(np.prod(shape)) != ins[0].num_elements:
        raise ShapeInferenceError(
            f"reshape to {shape} changes element count "
            f"({ins[0].num_elements} -> {int(np.prod(shape))})"
        )
    return [TensorType(shape, ins[0].dtype)]


def _slice(node: Node, ins: list[TensorType]) -> list[TensorType]:
    x = ins[0]
    axis, begin, size = node.attrs["axis"], node.attrs["begin"], node.attrs["size"]
    rank = len(x.shape)
    axis = axis % rank
    if begin < 0 or begin + size > x.shape[axis]:
        raise ShapeInferenceError(
            f"slice [{begin}, {begin + size}) exceeds dim {axis} of size {x.shape[axis]}"
        )
    out = list(x.shape)
    out[axis] = size
    if node.attr("squeeze", False):
        del out[axis]
    return [TensorType(tuple(out), x.dtype)]


def _quantize(node: Node, ins: list[TensorType]) -> list[TensorType]:
    # Output dtype comes from the declared output tensor; shape is preserved.
    return [TensorType(ins[0].shape, NcoreDType.UINT8)]


def _dequantize(node: Node, ins: list[TensorType]) -> list[TensorType]:
    return [TensorType(ins[0].shape, "float32")]


def _embedding(node: Node, ins: list[TensorType]) -> list[TensorType]:
    table, ids = ins[0], ins[1]
    _require_rank(table.shape, 2, "embedding table")
    return [TensorType(ids.shape + (table.shape[1],), table.dtype)]


def _lstm_cell(node: Node, ins: list[TensorType]) -> list[TensorType]:
    x, w = ins[0], ins[1]
    _require_rank(w.shape, 2, "lstm_cell weights")
    hidden = w.shape[1] // 4
    if len(ins) > 3 and ins[3].shape and ins[3].shape[-1] != hidden:
        raise ShapeInferenceError(
            f"lstm_cell hidden state has {ins[3].shape[-1]} features, weights imply {hidden}"
        )
    if x.shape[-1] + hidden != w.shape[0]:
        raise ShapeInferenceError(
            f"lstm_cell weights expect {w.shape[0]} stacked features, "
            f"got input {x.shape[-1]} + hidden {hidden}"
        )
    state = TensorType((x.shape[0], hidden), x.dtype)
    return [state, state]


def _lstm_step(node: Node, ins: list[TensorType]) -> list[TensorType]:
    x_seq, wx, wh, h_prev = ins[0], ins[1], ins[2], ins[4]
    _require_rank(wx.shape, 2, "lstm_step input weights")
    _require_rank(wh.shape, 2, "lstm_step recurrent weights")
    hidden = wh.shape[0]
    if wx.shape[1] != 4 * hidden or wh.shape[1] != 4 * hidden:
        raise ShapeInferenceError(
            f"lstm_step gate widths disagree: wx {wx.shape}, wh {wh.shape} "
            f"(want (*, {4 * hidden}))"
        )
    if x_seq.shape[-1] != wx.shape[0]:
        raise ShapeInferenceError(
            f"lstm_step sequence has {x_seq.shape[-1]} features, "
            f"input weights expect {wx.shape[0]}"
        )
    if len(x_seq.shape) < 2:
        raise ShapeInferenceError("lstm_step sequence must be at least rank 2")
    t = node.attrs["t"]
    seq_len = x_seq.shape[-2]
    if not 0 <= int(t) < seq_len:
        raise ShapeInferenceError(
            f"lstm_step t={t} outside sequence of length {seq_len}"
        )
    if h_prev.shape and h_prev.shape[-1] != hidden:
        raise ShapeInferenceError(
            f"lstm_step hidden state has {h_prev.shape[-1]} features, "
            f"weights imply {hidden}"
        )
    state = TensorType((h_prev.shape[0], hidden), x_seq.dtype)
    return [state, state]


def _attention(node: Node, ins: list[TensorType]) -> list[TensorType]:
    query, keys = ins[0], ins[1]
    _require_rank(keys.shape, 3, "attention keys")
    if query.shape[-1] != keys.shape[-1]:
        raise ShapeInferenceError(
            f"attention hidden mismatch: query {query.shape[-1]} vs keys {keys.shape[-1]}"
        )
    return [TensorType((keys.shape[0], keys.shape[2]), query.dtype)]


def _softmax(node: Node, ins: list[TensorType]) -> list[TensorType]:
    return [TensorType(ins[0].shape, ins[0].dtype)]


def _nms(node: Node, ins: list[TensorType]) -> list[TensorType]:
    max_det = node.attr("max_detections", 10)
    return [
        TensorType((max_det, 4), "float32"),
        TensorType((max_det,), "float32"),
        TensorType((max_det,), "int32"),
    ]


_MIN_INPUTS: dict[str, int] = {
    "conv2d": 2, "depthwise_conv2d": 2, "fully_connected": 2, "bias_add": 2,
    "batch_norm": 5, "relu": 1, "relu6": 1, "tanh": 1, "sigmoid": 1,
    "softmax": 1, "add": 2, "mul": 2, "concat": 1, "pad": 1, "max_pool": 1,
    "avg_pool": 1, "mean": 1, "reshape": 1, "slice": 1, "quantize": 1,
    "dequantize": 1, "embedding": 2, "lstm_cell": 5, "lstm_step": 6,
    "attention": 2,
    "nms": 2, "identity": 1,
}

_INFERENCE: dict[str, Callable[[Node, list[TensorType]], list[TensorType]]] = {
    "conv2d": _conv2d,
    "depthwise_conv2d": _depthwise,
    "fully_connected": _fully_connected,
    "bias_add": _bias_add,
    "batch_norm": _batch_norm,
    "relu": _elementwise,
    "relu6": _elementwise,
    "tanh": _elementwise,
    "sigmoid": _elementwise,
    "softmax": _softmax,
    "add": _binary,
    "mul": _binary,
    "concat": _concat,
    "pad": _pad,
    "max_pool": _pool,
    "avg_pool": _pool,
    "mean": _mean,
    "reshape": _reshape,
    "slice": _slice,
    "quantize": _quantize,
    "dequantize": _dequantize,
    "embedding": _embedding,
    "lstm_cell": _lstm_cell,
    "lstm_step": _lstm_step,
    "attention": _attention,
    "nms": _nms,
    "identity": _elementwise,
}


def infer_node_types(graph: Graph, node: Node) -> list[TensorType]:
    """Output types ``node`` should produce, from its declared input types.

    Raises :class:`ShapeInferenceError` when the declared inputs are
    inconsistent with the op's semantics (wrong rank, channel mismatch,
    missing inputs, bad attributes).
    """
    if len(node.inputs) < _MIN_INPUTS.get(node.op, 0):
        raise ShapeInferenceError(
            f"{node.op} needs at least {_MIN_INPUTS[node.op]} inputs, "
            f"got {len(node.inputs)}"
        )
    ins = [graph.tensor(name).type for name in node.inputs]
    try:
        return _INFERENCE[node.op](node, ins)
    except KeyError as exc:  # missing required attribute
        raise ShapeInferenceError(f"{node.op} is missing attribute {exc}") from None


def is_float_dtype(dtype: NcoreDType | str) -> bool:
    if isinstance(dtype, str):
        return dtype == "float32"
    return dtype is NcoreDType.BF16
