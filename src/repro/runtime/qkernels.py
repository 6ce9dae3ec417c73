"""Quantized operator kernels: the Ncore-equivalent integer semantics.

These kernels compute exactly what Ncore's pipeline computes — int32
accumulation of zero-offset uint8 operands, gemmlowp-style requantization,
activation clamps in the quantized domain — vectorised with numpy.  They
serve as (a) the fast-model execution path for full networks and (b) the
x86 reference kernels the instruction-level simulator is validated against
(tests cross-check the two on small shapes).

This module is also the **one op table** of the graph-level model: a
:class:`BoundNode` (a node plus the quant params, attrs and bf16
write-back flags the kernels read from its ``Graph``) runs through
:data:`INT8_KERNELS` or :data:`FLOAT_KERNELS`, keyed by op name.  The
per-node walk (:func:`run_nodes`) binds and runs one node at a time; the
Tier-3 macro-kernels (:mod:`repro.ncore.codegen`) keep the bound nodes in
their artifacts and run them through the same tables, so the walk is the
one-node-segment, no-dispatcher case of the macro-kernel path.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.dtypes import (
    ChannelQuantParams,
    NcoreDType,
    QuantParams,
    dequantize,
    dtype_info,
    quantize,
    rounding_right_shift,
    saturate,
    to_bfloat16,
)
from repro.graph.gir import Graph, GraphError, Node
from repro.graph.reference import execute_op
from repro.ncore.out import RequantSpec

_ADD_SHIFT = 20  # fixed-point headroom for elementwise rescaling


def _weight_offsets(weights: np.ndarray, w_qp) -> np.ndarray:
    """Weights with their zero point(s) removed, as int64."""
    w = weights.astype(np.int64)
    if isinstance(w_qp, ChannelQuantParams):
        shape = [1] * w.ndim
        shape[w_qp.axis] = w_qp.num_channels
        return w - np.asarray(w_qp.zero_points, dtype=np.int64).reshape(shape)
    return w - w_qp.zero_point


@functools.lru_cache(maxsize=256)
def _quantized_six(out_qp: QuantParams) -> int:
    """ReLU6's upper clamp: the code of real 6.0 under ``out_qp``."""
    return int(quantize(np.array(6.0), out_qp))


def _activation_range(activation: str | None, out_qp: QuantParams) -> tuple[int, int] | None:
    """The code range a fused activation saturates to (``None``: the
    dtype's own): ReLU floors at the zero point, ReLU6 also caps at 6.0."""
    if activation in ("none", None):
        return None
    if activation == "relu":
        return out_qp.zero_point, int(dtype_info(out_qp.dtype).max_value)
    if activation == "relu6":
        return out_qp.zero_point, _quantized_six(out_qp)
    raise GraphError(f"activation {activation!r} has no quantized form")


def _activation_clamp(values: np.ndarray, activation: str, out_qp: QuantParams) -> np.ndarray:
    clamp = _activation_range(activation, out_qp)
    return values if clamp is None else np.clip(values, *clamp)


def _requantize(acc, bias, x_qp, w_qp, out_qp, activation) -> np.ndarray:
    """The OUT-unit tail of the three matmul kernels: add the bias, clamp
    to the int32 accumulator range, requantize, saturate to the activation's
    code range.  No static bound is passed, so the full epilogue runs."""
    clamp = _activation_range(activation, out_qp)
    return RequantSpec.build(x_qp.scale, w_qp, out_qp, clamp).apply(acc, bias)


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
    return _requantize(acc, bias, x_qp, w_qp, out_qp, activation)


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
    return _requantize(acc, bias, x_qp, w_qp, out_qp, activation)


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
    return _requantize(acc, bias, x_qp, w_qp, out_qp, activation)


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


# ----------------------------------------------------------------------
# The bound node and the op tables
# ----------------------------------------------------------------------

_NO_PADDING = ((0, 0), (0, 0))


@dataclass(frozen=True)
class BoundNode:
    """A node plus the only things the kernels ever read from its
    ``Graph``: its inputs' and outputs' quant params, its attrs, and which
    outputs are typed bf16 (rounded on write-back, as the OUT unit does
    when storing to the RAMs; float32 passes through untouched).

    Graph-free and picklable.  It bakes no weights: constants are read
    from the environment like any other input."""

    op: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    attrs: dict[str, Any] = field(default_factory=dict)
    in_qps: tuple[QuantParams | None, ...] = ()
    out_qps: tuple[QuantParams | None, ...] = ()
    bf16_outputs: tuple[str, ...] = ()
    #: Float region (first output carries no quant params): the node runs
    #: through FLOAT_KERNELS; otherwise through INT8_KERNELS.
    is_float: bool = False

    def in_qp(self, index: int) -> QuantParams:
        return _require_qp(self.in_qps[index], self.inputs[index])

    def out_qp(self) -> QuantParams:
        return _require_qp(self.out_qps[0], self.outputs[0])

    def store(self, env: dict[str, np.ndarray], outs: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Write ``outs`` back under the output names (bf16-typed ones
        rounded) and return what was stored."""
        stored = [
            to_bfloat16(np.asarray(value, dtype=np.float32))
            if name in self.bf16_outputs else value
            for name, value in zip(self.outputs, outs, strict=False)
        ]
        env.update(zip(self.outputs, stored, strict=False))
        return stored

    def run(self, env: dict[str, np.ndarray]) -> None:
        """Look the op up in its table and run it against ``env`` in place."""
        kernel = (FLOAT_KERNELS if self.is_float else INT8_KERNELS).get(self.op)
        if kernel is None:
            family = "float" if self.is_float else "quantized"
            raise GraphError(f"op {self.op!r} has no {family} kernel")
        self.store(env, kernel(self, [env[name] for name in self.inputs]))


def _require_qp(qp: QuantParams | None, name: str) -> QuantParams:
    if qp is None:
        raise GraphError(f"tensor {name!r} lacks quantization parameters")
    return qp


def bind(graph: Graph, node: Node) -> BoundNode:
    """Bind ``node`` to what the kernels read from ``graph``."""
    ins = [graph.tensor(name) for name in node.inputs]
    outs = [graph.tensor(name) for name in node.outputs]
    return BoundNode(
        op=node.op,
        inputs=tuple(node.inputs),
        outputs=tuple(node.outputs),
        attrs=node.attrs,
        in_qps=tuple(tensor.quant for tensor in ins),
        out_qps=tuple(tensor.quant for tensor in outs),
        bf16_outputs=tuple(
            tensor.name for tensor in outs if tensor.type.dtype is NcoreDType.BF16
        ),
        is_float=outs[0].quant is None and node.op != "quantize",
    )


#: ``kernel(bound, input arrays) -> output arrays``.
Kernel = Callable[[BoundNode, list[np.ndarray]], Sequence[np.ndarray]]


def _matmul_args(b: BoundNode, ins: list[np.ndarray]) -> tuple[Any, ...]:
    bias = ins[2] if len(ins) > 2 else None
    return ins[0], ins[1], bias, b.in_qp(0), b.in_qp(1), b.out_qp()


def _conv_kernel(conv: Callable[..., np.ndarray]) -> Kernel:
    def kernel(b: BoundNode, ins: list[np.ndarray]) -> list[np.ndarray]:
        attrs = b.attrs
        return [conv(
            *_matmul_args(b, ins), attrs.get("stride", (1, 1)),
            attrs.get("padding", _NO_PADDING), attrs.get("activation", "none"),
        )]

    return kernel


def _pool_kernel(pool: Callable[..., np.ndarray]) -> Kernel:
    def kernel(b: BoundNode, ins: list[np.ndarray]) -> list[np.ndarray]:
        attrs = b.attrs
        return [pool(
            ins[0], attrs["ksize"], attrs["stride"], attrs.get("padding", _NO_PADDING)
        )]

    return kernel


def _qmean(b: BoundNode, ins: list[np.ndarray]) -> list[np.ndarray]:
    axis = b.attrs.get("axis", (1, 2))
    acc = np.sum(ins[0].astype(np.int64), axis=axis)
    count = int(np.prod([ins[0].shape[a] for a in axis]))
    in_qp, out_qp = b.in_qp(0), b.out_qp()
    mean_q = (acc + count // 2) // count
    if in_qp == out_qp:
        return [saturate(mean_q, out_qp.dtype)]
    return [qrequant(saturate(mean_q, in_qp.dtype), in_qp, out_qp)]


def _qconcat(b: BoundNode, ins: list[np.ndarray]) -> list[np.ndarray]:
    out_qp = b.out_qp()
    parts = [qrequant(value, b.in_qp(i), out_qp) for i, value in enumerate(ins)]
    return [np.concatenate(parts, axis=b.attrs.get("axis", -1))]


def _qclamp(b: BoundNode, ins: list[np.ndarray]) -> list[np.ndarray]:
    return [_activation_clamp(ins[0], b.op, b.out_qp()).astype(ins[0].dtype)]


#: The quantized family: every op the converter quantizes, plus the
#: ``quantize`` entry into it.  ``tests/runtime/test_op_table.py`` pins the
#: key set to ``QUANTIZABLE_OPS | {"quantize"}``.
INT8_KERNELS: dict[str, Kernel] = {
    "quantize": lambda b, ins: [quantize(ins[0], b.out_qp())],
    "conv2d": _conv_kernel(qconv2d),
    "depthwise_conv2d": _conv_kernel(qdepthwise),
    "fully_connected": lambda b, ins: [
        qfully_connected(*_matmul_args(b, ins), b.attrs.get("activation", "none"))
    ],
    "add": lambda b, ins: [
        qadd(ins[0], b.in_qp(0), ins[1], b.in_qp(1), b.out_qp(),
             b.attrs.get("activation", "none"))
    ],
    "max_pool": _pool_kernel(qmax_pool),
    "avg_pool": _pool_kernel(qavg_pool),
    "mean": _qmean,
    "concat": _qconcat,
    "relu": _qclamp,
    "relu6": _qclamp,
    "reshape": lambda b, ins: [ins[0].reshape(b.attrs["shape"])],
    "identity": lambda b, ins: [ins[0]],
}


def _reference(b: BoundNode, ins: list[np.ndarray]) -> list[np.ndarray]:
    return execute_op(b.op, b.attrs, ins)


#: Float forms only the per-node walk runs: Tier-3 codegen records a
#: segment holding one as uncovered and the executor walks it.  NMS's
#: sort-driven control flow is the one op the paper kept on x86 outright;
#: float conv / pool never reach Ncore segments in the zoo.
WALK_ONLY_OPS = frozenset(
    {"conv2d", "depthwise_conv2d", "max_pool", "avg_pool", "nms"}
)

#: The float region (bf16 / float32): ``dequantize`` out of the quantized
#: family, and the float reference semantics verbatim for everything else
#: — GNMT's hot ops first, then the x86-resident tails and the attention
#: composite, then the walk-only forms above.
FLOAT_KERNELS: dict[str, Kernel] = {
    "dequantize": lambda b, ins: [dequantize(ins[0], b.in_qp(0))],
    **dict.fromkeys(
        (
            "lstm_step", "lstm_cell", "embedding", "fully_connected",
            "slice", "concat", "reshape",
            "batch_norm", "softmax", "mean", "add", "mul", "relu", "relu6",
            "tanh", "sigmoid", "attention", "identity", "pad", "bias_add",
            *sorted(WALK_ONLY_OPS),
        ),
        _reference,
    ),
}


# ----------------------------------------------------------------------
# The per-node walk
# ----------------------------------------------------------------------


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

    The one per-node walk — bind, look up, call: the whole graph for
    :func:`execute_quantized`, one segment at a time for the executor and
    its Tier-3 oracle.
    """
    for node in nodes:
        bind(graph, node).run(values)


def execute_quantized(graph: Graph, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Execute a (possibly mixed) quantized graph.

    Quantized ops run through the integer kernels above; float ops fall
    back to the reference float semantics.  This is the functional model
    of what the CompiledModel computes across Ncore and x86 segments.
    """
    values = seed_values(graph, feeds)
    run_nodes(graph, graph.nodes, values)
    return {name: values[name] for name in graph.outputs}
