"""Quantized operator kernels: the Ncore-equivalent integer semantics.

These kernels compute exactly what Ncore's pipeline computes — int32
accumulation of zero-offset uint8 operands, gemmlowp-style requantization,
activation clamps in the quantized domain — vectorised with numpy.  They
serve as (a) the fast-model execution path for full networks and (b) the
x86 reference kernels the instruction-level simulator is validated against
(tests cross-check the two on small shapes).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.dtypes import (
    ChannelQuantParams,
    QuantParams,
    quantize,
    quantize_multiplier,
    requantize,
    rounding_right_shift,
    saturate,
)
from repro.graph.gir import Graph, GraphError, Node
from repro.graph.reference import execute_node as execute_float_node

_ADD_SHIFT = 20  # fixed-point headroom for elementwise rescaling


def _requant_acc(acc: np.ndarray, real_multiplier: float, out_qp: QuantParams) -> np.ndarray:
    mult, shift = quantize_multiplier(real_multiplier)
    return requantize(acc.astype(np.int32), mult, shift, out_qp.zero_point, out_qp.dtype)


def _weight_offsets(weights: np.ndarray, w_qp) -> np.ndarray:
    """Weights with their zero point(s) removed, as int64."""
    w = weights.astype(np.int64)
    if isinstance(w_qp, ChannelQuantParams):
        shape = [1] * w.ndim
        shape[w_qp.axis] = w_qp.num_channels
        return w - np.asarray(w_qp.zero_points, dtype=np.int64).reshape(shape)
    return w - w_qp.zero_point


def _requant_output(acc: np.ndarray, x_scale: float, w_qp, out_qp: QuantParams) -> np.ndarray:
    """Requantize an accumulator whose last axis is the output channel.

    Per-tensor weights use one multiplier; per-channel weights use one per
    output channel — exactly what the OUT unit's per-lane range/scale
    registers implement (repro.ncore.out.requantize_lanes).
    """
    if not isinstance(w_qp, ChannelQuantParams):
        return _requant_acc(acc, x_scale * w_qp.scale / out_qp.scale, out_qp)
    from repro.ncore.out import requantize_lanes

    channels = acc.shape[-1]
    pairs = [
        quantize_multiplier(x_scale * scale / out_qp.scale) for scale in w_qp.scales
    ]
    mults = np.array([p[0] for p in pairs], dtype=np.int64)
    shifts = np.array([p[1] for p in pairs], dtype=np.int64)
    flat = np.clip(acc, -(2**31), 2**31 - 1).astype(np.int32).reshape(-1, channels)
    values = requantize_lanes(
        flat,
        np.broadcast_to(mults, flat.shape),
        np.broadcast_to(shifts, flat.shape),
        np.full(flat.shape, out_qp.zero_point, dtype=np.int64),
        out_qp.dtype,
    )
    return saturate(values.reshape(acc.shape), out_qp.dtype)


def _activation_clamp(values: np.ndarray, activation: str, out_qp: QuantParams) -> np.ndarray:
    if activation in ("none", None):
        return values
    if activation == "relu":
        return np.maximum(values, out_qp.zero_point)
    if activation == "relu6":
        six = int(quantize(np.array(6.0), out_qp))
        return np.clip(values, out_qp.zero_point, six)
    raise GraphError(f"activation {activation!r} has no quantized form")


def qconv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
    stride=(1, 1),
    padding=((0, 0), (0, 0)),
    activation: str = "none",
) -> np.ndarray:
    """Quantized conv2d: NHWC uint8 x HWIO uint8 -> uint8."""
    kh, kw, cin, cout = weights.shape
    # Padding inserts the input zero point (real value 0.0).
    (pt, pb), (pl, pr) = padding
    xq = np.pad(
        x.astype(np.int64) - x_qp.zero_point,
        ((0, 0), (pt, pb), (pl, pr), (0, 0)),
    )
    wq = _weight_offsets(weights, w_qp)
    n, h, w, _ = xq.shape
    sh, sw = stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    cols = np.empty((n, oh, ow, kh * kw * cin), dtype=np.int64)
    for i in range(kh):
        for j in range(kw):
            patch = xq[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :]
            cols[..., (i * kw + j) * cin : (i * kw + j + 1) * cin] = patch
    acc = cols.reshape(-1, kh * kw * cin) @ wq.reshape(kh * kw * cin, cout)
    acc = acc.reshape(n, oh, ow, cout)
    if bias is not None:
        acc = acc + bias.astype(np.int64)
    acc = np.clip(acc, -(2**31), 2**31 - 1)
    out = _requant_output(acc, x_qp.scale, w_qp, out_qp)
    return _activation_clamp(out, activation, out_qp).astype(out.dtype)


def qdepthwise(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
    stride=(1, 1),
    padding=((0, 0), (0, 0)),
    activation: str = "none",
) -> np.ndarray:
    kh, kw, c = weights.shape
    (pt, pb), (pl, pr) = padding
    xq = np.pad(
        x.astype(np.int64) - x_qp.zero_point,
        ((0, 0), (pt, pb), (pl, pr), (0, 0)),
    )
    wq = _weight_offsets(weights, w_qp)
    n, h, w, _ = xq.shape
    sh, sw = stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    acc = np.zeros((n, oh, ow, c), dtype=np.int64)
    for i in range(kh):
        for j in range(kw):
            acc += xq[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :] * wq[i, j]
    if bias is not None:
        acc = acc + bias.astype(np.int64)
    acc = np.clip(acc, -(2**31), 2**31 - 1)
    out = _requant_output(acc, x_qp.scale, w_qp, out_qp)
    return _activation_clamp(out, activation, out_qp).astype(out.dtype)


def qfully_connected(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    x_qp: QuantParams,
    w_qp: QuantParams,
    out_qp: QuantParams,
    activation: str = "none",
) -> np.ndarray:
    acc = (x.astype(np.int64) - x_qp.zero_point) @ _weight_offsets(weights, w_qp)
    if bias is not None:
        acc = acc + bias.astype(np.int64)
    acc = np.clip(acc, -(2**31), 2**31 - 1)
    out = _requant_output(acc, x_qp.scale, w_qp, out_qp)
    return _activation_clamp(out, activation, out_qp).astype(out.dtype)


def _rescale_to(values: np.ndarray, qp: QuantParams, out_qp: QuantParams) -> np.ndarray:
    """Fixed-point rescale of a quantized tensor into another scale,
    without the output zero point (int64 result, 2**-_ADD_SHIFT units)."""
    factor = int(round(qp.scale / out_qp.scale * (1 << _ADD_SHIFT)))
    return (values.astype(np.int64) - qp.zero_point) * factor


def qadd(
    a: np.ndarray,
    a_qp: QuantParams,
    b: np.ndarray,
    b_qp: QuantParams,
    out_qp: QuantParams,
    activation: str = "none",
) -> np.ndarray:
    """Quantized residual add with fixed-point input rescaling."""
    total = _rescale_to(a, a_qp, out_qp) + _rescale_to(b, b_qp, out_qp)
    out = rounding_right_shift(total, _ADD_SHIFT) + out_qp.zero_point
    out = saturate(out, out_qp.dtype)
    return _activation_clamp(out, activation, out_qp).astype(out.dtype)


def qrequant(values: np.ndarray, qp: QuantParams, out_qp: QuantParams) -> np.ndarray:
    """Requantize a tensor to different affine parameters (concat inputs)."""
    total = _rescale_to(values, qp, out_qp)
    out = rounding_right_shift(total, _ADD_SHIFT) + out_qp.zero_point
    return saturate(out, out_qp.dtype)


def qavg_pool(
    x: np.ndarray, ksize, stride, padding=((0, 0), (0, 0))
) -> np.ndarray:
    """Average pool on quantized values (input and output share params)."""
    kh, kw = ksize
    (pt, pb), (pl, pr) = padding
    # Average in the quantized domain with round-half-up.
    xq = np.pad(x.astype(np.int64), ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    n, h, w, c = xq.shape
    sh, sw = stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    acc = np.zeros((n, oh, ow, c), dtype=np.int64)
    for i in range(kh):
        for j in range(kw):
            acc += xq[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :]
    count = kh * kw
    out = (acc + count // 2) // count
    return out.astype(x.dtype)


def qmax_pool(x: np.ndarray, ksize, stride, padding=((0, 0), (0, 0))) -> np.ndarray:
    kh, kw = ksize
    (pt, pb), (pl, pr) = padding
    # Max pooling must not let padding or the fold's initial value clamp
    # real codes: both start at the type's minimum (matters for int16,
    # whose quantized codes go negative).
    floor = np.iinfo(x.dtype).min
    xq = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=floor)
    n, h, w, c = xq.shape
    sh, sw = stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    out = np.full((n, oh, ow, c), floor, dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            out = np.maximum(out, xq[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :])
    return out


def seed_values(graph: Graph, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The environment a graph walk starts from: constants plus feeds."""
    values: dict[str, np.ndarray] = {}
    for name, tensor in graph.tensors.items():
        if tensor.is_constant:
            values[name] = tensor.data
    for name in graph.inputs:
        if name not in feeds:
            raise GraphError(f"missing feed for graph input {name!r}")
        values[name] = np.asarray(feeds[name])
    return values


def run_nodes(graph: Graph, nodes: Iterable[Node], values: dict[str, np.ndarray]) -> None:
    """Run ``nodes`` in order against ``values``, in place.

    The one per-node walk: the whole graph for :func:`execute_quantized`,
    one segment at a time for the executor and its Tier-3 oracle.
    """
    for node in nodes:
        ins = [values[name] for name in node.inputs]
        outs = _execute_quantized_node(graph, node, ins)
        for name, value in zip(node.outputs, outs, strict=False):
            values[name] = value


def execute_quantized(graph: Graph, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Execute a (possibly mixed) quantized graph.

    Quantized ops run through the integer kernels above; float ops fall
    back to the reference float semantics.  This is the functional model
    of what the CompiledModel computes across Ncore and x86 segments.
    """
    values = seed_values(graph, feeds)
    run_nodes(graph, graph.nodes, values)
    return {name: values[name] for name in graph.outputs}


def _qp(graph: Graph, name: str) -> QuantParams:
    qp = graph.tensor(name).quant
    if qp is None:
        raise GraphError(f"tensor {name!r} lacks quantization parameters")
    return qp


def round_float_outputs(
    graph: Graph, node: Node, outs: list[np.ndarray]
) -> list[np.ndarray]:
    """Apply the float-region write-back rounding to a node's outputs.

    bf16 graphs round every intermediate to bfloat16 precision, as the OUT
    unit does when writing results back to the RAMs; float32 tensors pass
    through untouched.  This is the bit-exactness contract for the float
    region — the Tier-3 float macro-kernels (:mod:`repro.ncore.codegen`)
    replicate exactly this rounding per node output.
    """
    from repro.dtypes import NcoreDType, to_bfloat16

    rounded = []
    for name, value in zip(node.outputs, outs, strict=False):
        if graph.tensor(name).type.dtype is NcoreDType.BF16:
            rounded.append(to_bfloat16(np.asarray(value, dtype=np.float32)))
        else:
            rounded.append(value)
    return rounded


def _execute_quantized_node(graph: Graph, node: Node, ins: list[np.ndarray]):
    out_name = node.outputs[0]
    out_tensor = graph.tensor(out_name)
    if out_tensor.quant is None and node.op not in ("quantize",):
        # Float region: use the reference semantics (incl. dequantize).
        outs = execute_float_node(graph, node, ins)
        return round_float_outputs(graph, node, outs)
    attrs = node.attrs
    act = attrs.get("activation", "none")
    if node.op == "quantize":
        return execute_float_node(graph, node, ins)
    if node.op == "conv2d":
        bias = ins[2] if len(ins) > 2 else None
        return [
            qconv2d(
                ins[0], ins[1], bias,
                _qp(graph, node.inputs[0]), _qp(graph, node.inputs[1]), _qp(graph, out_name),
                attrs.get("stride", (1, 1)), attrs.get("padding", ((0, 0), (0, 0))), act,
            )
        ]
    if node.op == "depthwise_conv2d":
        bias = ins[2] if len(ins) > 2 else None
        return [
            qdepthwise(
                ins[0], ins[1], bias,
                _qp(graph, node.inputs[0]), _qp(graph, node.inputs[1]), _qp(graph, out_name),
                attrs.get("stride", (1, 1)), attrs.get("padding", ((0, 0), (0, 0))), act,
            )
        ]
    if node.op == "fully_connected":
        bias = ins[2] if len(ins) > 2 else None
        return [
            qfully_connected(
                ins[0], ins[1], bias,
                _qp(graph, node.inputs[0]), _qp(graph, node.inputs[1]), _qp(graph, out_name),
                act,
            )
        ]
    if node.op == "add":
        return [
            qadd(
                ins[0], _qp(graph, node.inputs[0]),
                ins[1], _qp(graph, node.inputs[1]),
                _qp(graph, out_name), act,
            )
        ]
    if node.op == "max_pool":
        return [
            qmax_pool(ins[0], attrs["ksize"], attrs["stride"], attrs.get("padding", ((0, 0), (0, 0))))
        ]
    if node.op == "avg_pool":
        return [
            qavg_pool(ins[0], attrs["ksize"], attrs["stride"], attrs.get("padding", ((0, 0), (0, 0))))
        ]
    if node.op == "mean":
        axis = attrs.get("axis", (1, 2))
        acc = np.sum(ins[0].astype(np.int64), axis=axis)
        count = int(np.prod([ins[0].shape[a] for a in axis]))
        in_qp, out_qp = _qp(graph, node.inputs[0]), _qp(graph, out_name)
        mean_q = (acc + count // 2) // count
        if in_qp == out_qp:
            return [saturate(mean_q, out_qp.dtype)]
        return [qrequant(saturate(mean_q, in_qp.dtype), in_qp, out_qp)]
    if node.op == "concat":
        out_qp = _qp(graph, out_name)
        parts = [
            qrequant(value, _qp(graph, name), out_qp)
            for value, name in zip(ins, node.inputs, strict=True)
        ]
        return [np.concatenate(parts, axis=attrs.get("axis", -1))]
    if node.op in ("relu", "relu6"):
        return [_activation_clamp(ins[0], node.op, _qp(graph, out_name)).astype(ins[0].dtype)]
    if node.op == "reshape":
        return [ins[0].reshape(node.attrs["shape"])]
    if node.op == "identity":
        return [ins[0]]
    raise GraphError(f"op {node.op!r} has no quantized kernel")
