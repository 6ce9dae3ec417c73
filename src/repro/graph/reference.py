"""Float32 reference semantics for every GIR operator.

These numpy implementations serve three roles:

1. the golden model quantized kernels and Ncore programs are checked
   against in tests;
2. the execution engine for the non-delegated (x86) subgraphs when a model
   runs in float;
3. shape checking for graph construction and optimization passes.

Activations are NHWC; convolution weights HWIO; depthwise weights HWC.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.dtypes import quantize as quantize_array
from repro.dtypes import dequantize as dequantize_array
from repro.graph.gir import Graph, GraphError, Node

Padding = tuple[tuple[int, int], tuple[int, int]]


def _pad_nhwc(x: np.ndarray, padding: Padding, value: float = 0.0) -> np.ndarray:
    (top, bottom), (left, right) = padding
    return np.pad(
        x, ((0, 0), (top, bottom), (left, right), (0, 0)), constant_values=value
    )


def conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    stride: tuple[int, int] = (1, 1),
    padding: Padding = ((0, 0), (0, 0)),
    bias: np.ndarray | None = None,
    activation: str = "none",
) -> np.ndarray:
    """2-D convolution, NHWC x HWIO -> NHWC, via im2col."""
    kh, kw, cin, cout = weights.shape
    if x.shape[3] != cin:
        raise GraphError(f"conv2d channel mismatch: input {x.shape[3]} vs weights {cin}")
    x = _pad_nhwc(x, padding)
    n, h, w, _ = x.shape
    sh, sw = stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    # im2col: gather all receptive fields, then one big matmul.
    cols = np.empty((n, oh, ow, kh * kw * cin), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            patch = x[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :]
            cols[..., (i * kw + j) * cin : (i * kw + j + 1) * cin] = patch
    flat_w = weights.reshape(kh * kw * cin, cout)
    out = cols.reshape(-1, kh * kw * cin) @ flat_w
    out = out.reshape(n, oh, ow, cout)
    if bias is not None:
        out = out + bias
    return apply_activation(out, activation)


def depthwise_conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    stride: tuple[int, int] = (1, 1),
    padding: Padding = ((0, 0), (0, 0)),
    bias: np.ndarray | None = None,
    activation: str = "none",
) -> np.ndarray:
    """Depthwise 2-D convolution, NHWC x HWC -> NHWC."""
    kh, kw, c = weights.shape
    if x.shape[3] != c:
        raise GraphError(f"depthwise channel mismatch: {x.shape[3]} vs {c}")
    x = _pad_nhwc(x, padding)
    n, h, w, _ = x.shape
    sh, sw = stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    out = np.zeros((n, oh, ow, c), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            patch = x[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :]
            out += patch.astype(np.float64) * weights[i, j]
    out = out.astype(np.float32)
    if bias is not None:
        out = out + bias
    return apply_activation(out, activation)


def fully_connected(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    activation: str = "none",
) -> np.ndarray:
    """Dense layer: (..., in) x (in, out) -> (..., out)."""
    out = x @ weights
    if bias is not None:
        out = out + bias
    return apply_activation(out, activation)


def batch_norm(
    x: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    epsilon: float = 1e-3,
) -> np.ndarray:
    return (x - mean) / np.sqrt(variance + epsilon) * gamma + beta


def apply_activation(x: np.ndarray, activation: str) -> np.ndarray:
    if activation in ("none", None):
        return np.asarray(x, dtype=np.float32)
    if activation == "relu":
        return np.maximum(x, 0.0).astype(np.float32)
    if activation == "relu6":
        return np.clip(x, 0.0, 6.0).astype(np.float32)
    if activation == "tanh":
        return np.tanh(x).astype(np.float32)
    if activation == "sigmoid":
        return (1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))).astype(np.float32)
    raise GraphError(f"unknown activation {activation!r}")


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return (e / np.sum(e, axis=axis, keepdims=True)).astype(np.float32)


def max_pool(
    x: np.ndarray,
    ksize: tuple[int, int],
    stride: tuple[int, int],
    padding: Padding = ((0, 0), (0, 0)),
) -> np.ndarray:
    x = _pad_nhwc(x, padding, value=-np.inf)
    n, h, w, c = x.shape
    kh, kw = ksize
    sh, sw = stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    out = np.full((n, oh, ow, c), -np.inf, dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            patch = x[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :]
            out = np.maximum(out, patch)
    return out


def avg_pool(
    x: np.ndarray,
    ksize: tuple[int, int],
    stride: tuple[int, int],
    padding: Padding = ((0, 0), (0, 0)),
) -> np.ndarray:
    x = _pad_nhwc(x, padding)
    n, h, w, c = x.shape
    kh, kw = ksize
    sh, sw = stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    out = np.zeros((n, oh, ow, c), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            out += x[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :]
    return (out / (kh * kw)).astype(np.float32)


def lstm_cell(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step.  Weights are ((in + hidden), 4 * hidden), gate order
    i, f, g, o (input, forget, cell, output)."""
    gates = np.concatenate([x, h_prev], axis=-1) @ weights + bias
    return _lstm_gates(gates, c_prev)


def _lstm_gates(gates: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared gate nonlinearity for lstm_cell / lstm_step (i, f, g, o order).

    The sigmoid runs once over the whole gate row (the g chunk's share is
    discarded) instead of per gate slice — elementwise, so the kept lanes
    are the same bits while the call count per step drops by ~3x.
    """
    hidden = gates.shape[-1] // 4
    sig = (1.0 / (1.0 + np.exp(-np.asarray(gates, dtype=np.float64)))).astype(
        np.float32
    )
    i = sig[..., :hidden]
    f = sig[..., hidden : 2 * hidden]
    o = sig[..., 3 * hidden :]
    g = np.tanh(gates[..., 2 * hidden : 3 * hidden]).astype(np.float32)
    c = f * c_prev + i * g
    h = o * np.tanh(c).astype(np.float32)
    return np.asarray(h, dtype=np.float32), np.asarray(c, dtype=np.float32)


def lstm_step_project(x_seq: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """Whole-sequence input projection for ``lstm_step``: every step's gate
    contribution from the (shared) input sequence, ``x_seq @ wx``.

    Part of the op's *reference semantics*: each ``lstm_step`` node projects
    the full sequence and uses only its own row.  A fused kernel (codegen's
    ``SeqFuseStep``) may compute this once per chain and slice —
    the arrays and the matmul call are identical, so the result is
    bit-identical to the per-node reference.
    """
    width = x_seq.shape[-1]
    flat = np.asarray(x_seq).reshape(-1, width) @ wx
    return flat.reshape(x_seq.shape[:-1] + (wx.shape[-1],))


def lstm_step_combine(
    xp_row: np.ndarray,
    wh: np.ndarray,
    bias: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Recurrent half of ``lstm_step``: add the recurrent matmul and bias to
    one projected row, then apply the lstm_cell gate math."""
    gates = xp_row + h_prev @ wh + bias
    return _lstm_gates(gates, c_prev)


def lstm_step(
    x_seq: np.ndarray,
    wx: np.ndarray,
    wh: np.ndarray,
    bias: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sequence-projected LSTM step ``t``.

    Unlike ``lstm_cell`` (stacked ``(in + hidden, 4 * hidden)`` weights over
    ``concat([x, h])``), the input and recurrent weights are split: ``wx``
    is ``(in, 4 * hidden)`` applied to the whole input sequence ``x_seq``
    (``(time, in)`` or ``(batch, time, in)``), ``wh`` is
    ``(hidden, 4 * hidden)`` applied to ``h_prev``.  The reference projects
    the entire sequence on every step — the honest unfused formulation, like
    recomputing attention scores per query — and uses row ``t``.
    """
    xp = lstm_step_project(x_seq, wx)
    return lstm_step_combine(xp[..., t, :], wh, bias, h_prev, c_prev)


def attention(query: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Dot-product attention: context over encoder states.

    query (n, hidden); keys (n, time, hidden) serve as both keys and
    values, as in GNMT's attention over encoder outputs.
    """
    scores = np.einsum("nh,nth->nt", query, keys) / np.sqrt(keys.shape[-1])
    weights = softmax(scores, axis=-1)
    return np.einsum("nt,nth->nh", weights, keys).astype(np.float32)


def nms(
    boxes: np.ndarray,
    scores: np.ndarray,
    iou_threshold: float = 0.6,
    score_threshold: float = 0.3,
    max_detections: int = 10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class non-maximum suppression (the SSD postprocess).

    boxes (anchors, 4) as (y1, x1, y2, x2); scores (anchors, classes).
    Returns (selected_boxes, selected_scores, selected_classes), padded to
    ``max_detections``.  This operator runs on x86 in the paper's system —
    "TensorFlow-Lite's implementation of the NMS operation does not support
    batching" (section VI-C).
    """
    num_classes = scores.shape[1]
    picked: list[tuple[float, int, int]] = []  # (score, anchor, class)
    for cls in range(num_classes):
        cls_scores = scores[:, cls]
        order = np.argsort(-cls_scores)
        candidates = order[cls_scores[order] >= score_threshold]
        kept: list[int] = []
        for anchor in candidates:
            if all(_iou(boxes[anchor], boxes[k]) <= iou_threshold for k in kept):
                kept.append(anchor)
        picked.extend((float(cls_scores[a]), a, cls) for a in kept)
    picked.sort(reverse=True)
    picked = picked[:max_detections]
    out_boxes = np.zeros((max_detections, 4), dtype=np.float32)
    out_scores = np.zeros(max_detections, dtype=np.float32)
    out_classes = np.full(max_detections, -1, dtype=np.int32)
    for i, (score, anchor, cls) in enumerate(picked):
        out_boxes[i] = boxes[anchor]
        out_scores[i] = score
        out_classes[i] = cls
    return out_boxes, out_scores, out_classes


def _iou(a: np.ndarray, b: np.ndarray) -> float:
    y1, x1 = max(a[0], b[0]), max(a[1], b[1])
    y2, x2 = min(a[2], b[2]), min(a[3], b[3])
    inter = max(0.0, y2 - y1) * max(0.0, x2 - x1)
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return float(inter / union) if union > 0 else 0.0


# ---------------------------------------------------------------------------
# Graph execution
# ---------------------------------------------------------------------------


def execute_float(graph: Graph, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Execute a graph in float32, returning its output tensors."""
    values: dict[str, np.ndarray] = {}
    for name, tensor in graph.tensors.items():
        if tensor.is_constant:
            values[name] = tensor.data
    for name in graph.inputs:
        if name not in feeds:
            raise GraphError(f"missing feed for graph input {name!r}")
        values[name] = np.asarray(feeds[name])
    for node in graph.nodes:
        ins = [values[name] for name in node.inputs]
        outs = execute_node(graph, node, ins)
        for name, value in zip(node.outputs, outs, strict=False):
            values[name] = value
    return {name: values[name] for name in graph.outputs}


def execute_node(graph: Graph, node: Node, ins: list[np.ndarray]) -> list[np.ndarray]:
    """Execute a single node given its input arrays (reference semantics)."""
    if node.op == "quantize":
        qp = graph.tensor(node.outputs[0]).quant
        if qp is None:
            raise GraphError(f"quantize node {node.name!r} output lacks quant params")
        return [quantize_array(ins[0], qp)]
    if node.op == "dequantize":
        qp = graph.tensor(node.inputs[0]).quant
        if qp is None:
            raise GraphError(f"dequantize node {node.name!r} input lacks quant params")
        return [dequantize_array(ins[0], qp)]
    return execute_op(node.op, node.attrs, ins)


def execute_op(op: str, attrs: dict[str, Any], ins: list[np.ndarray]) -> list[np.ndarray]:
    """Reference semantics of every op that reads nothing from a ``Graph``
    (all but quantize / dequantize, whose quant params live on tensors)."""
    act = attrs.get("activation", "none")
    if op == "conv2d":
        bias = ins[2] if len(ins) > 2 else None
        return [
            conv2d(
                ins[0], ins[1],
                stride=attrs.get("stride", (1, 1)),
                padding=attrs.get("padding", ((0, 0), (0, 0))),
                bias=bias, activation=act,
            )
        ]
    if op == "depthwise_conv2d":
        bias = ins[2] if len(ins) > 2 else None
        return [
            depthwise_conv2d(
                ins[0], ins[1],
                stride=attrs.get("stride", (1, 1)),
                padding=attrs.get("padding", ((0, 0), (0, 0))),
                bias=bias, activation=act,
            )
        ]
    if op == "fully_connected":
        bias = ins[2] if len(ins) > 2 else None
        return [fully_connected(ins[0], ins[1], bias, act)]
    if op == "bias_add":
        return [apply_activation(ins[0] + ins[1], act)]
    if op == "batch_norm":
        return [
            batch_norm(ins[0], ins[1], ins[2], ins[3], ins[4], attrs.get("epsilon", 1e-3))
        ]
    if op in ("relu", "relu6", "tanh", "sigmoid"):
        return [apply_activation(ins[0], op)]
    if op == "softmax":
        return [softmax(ins[0], attrs.get("axis", -1))]
    if op == "add":
        return [apply_activation(ins[0] + ins[1], act)]
    if op == "mul":
        return [(ins[0] * ins[1]).astype(np.float32)]
    if op == "concat":
        return [np.concatenate(ins, axis=attrs.get("axis", -1))]
    if op == "pad":
        return [_pad_nhwc(ins[0], attrs["padding"], attrs.get("value", 0.0))]
    if op == "max_pool":
        return [
            max_pool(ins[0], attrs["ksize"], attrs["stride"], attrs.get("padding", ((0, 0), (0, 0))))
        ]
    if op == "avg_pool":
        return [
            avg_pool(ins[0], attrs["ksize"], attrs["stride"], attrs.get("padding", ((0, 0), (0, 0))))
        ]
    if op == "mean":
        return [np.mean(ins[0], axis=attrs.get("axis", (1, 2))).astype(np.float32)]
    if op == "reshape":
        return [ins[0].reshape(attrs["shape"])]
    if op == "slice":
        axis, begin, size = attrs["axis"], attrs["begin"], attrs["size"]
        index = [slice(None)] * ins[0].ndim
        index[axis] = slice(begin, begin + size)
        out = ins[0][tuple(index)]
        if attrs.get("squeeze", False):
            out = np.squeeze(out, axis=axis)
        return [out]
    if op == "embedding":
        table, ids = ins[0], ins[1]
        return [table[ids.astype(np.int64)]]
    if op == "lstm_cell":
        h, c = lstm_cell(ins[0], ins[1], ins[2], ins[3], ins[4])
        return [h, c]
    if op == "lstm_step":
        h, c = lstm_step(
            ins[0], ins[1], ins[2], ins[3], ins[4], ins[5], int(attrs["t"])
        )
        return [h, c]
    if op == "attention":
        return [attention(ins[0], ins[1])]
    if op == "nms":
        boxes, scores, classes = nms(
            ins[0], ins[1],
            iou_threshold=attrs.get("iou_threshold", 0.6),
            score_threshold=attrs.get("score_threshold", 0.3),
            max_detections=attrs.get("max_detections", 10),
        )
        return [boxes, scores, classes]
    if op == "identity":
        return [ins[0]]
    raise GraphError(f"no reference implementation for op {op!r}")
