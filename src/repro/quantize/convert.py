"""Graph conversion: float32 -> quantized uint8, or float32 -> bfloat16.

The uint8 scheme is the re-training-free affine scheme the paper adopts
(section II-A.6): activations and weights are per-tensor affine uint8,
biases are int32 at scale ``s_input * s_weight``, and each quantized op
requantizes its 32-bit accumulator to the output tensor's parameters —
exactly the arithmetic Ncore's OUT unit implements.

Ops with no efficient integer form (softmax, NMS, ...) stay in float;
``quantize`` / ``dequantize`` nodes are inserted at every boundary.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import (
    ChannelQuantParams,
    NcoreDType,
    QuantParams,
    choose_channel_quant_params,
    choose_quant_params,
    quantize,
    to_bfloat16,
)
from repro.graph.gir import Graph, GraphError, Node, Tensor, TensorType
from repro.graph.passes import PassManager, fold_batch_norm, fuse_bias_add, fuse_pad
from repro.quantize.calibrate import CalibrationResult

# Ops rewritten to integer arithmetic.
QUANTIZABLE_OPS = frozenset(
    {
        "conv2d",
        "depthwise_conv2d",
        "fully_connected",
        "add",
        "max_pool",
        "avg_pool",
        "mean",
        "concat",
        "relu",
        "relu6",
        "reshape",
        "identity",
    }
)

# Pool-like ops that must preserve their input's quantization parameters.
_SAME_QP_AS_INPUT = frozenset(
    {"max_pool", "avg_pool", "relu", "relu6", "reshape", "identity"}
)


# Output-channel axis of each weight layout.
_WEIGHT_CHANNEL_AXIS = {"conv2d": 3, "depthwise_conv2d": 2, "fully_connected": 1}


class _Converter:
    def __init__(
        self,
        graph: Graph,
        calibration: CalibrationResult,
        dtype: NcoreDType,
        per_channel_weights: bool,
    ):
        self.src = graph
        self.cal = calibration
        self.act_dtype = dtype
        self.per_channel_weights = per_channel_weights
        self.out = Graph(graph.name + "_quant")
        # For each source tensor, the names of its float / quantized
        # versions in the output graph (created lazily).
        self.float_version: dict[str, str] = {}
        self.quant_version: dict[str, str] = {}
        self.counter = 0

    # -- helpers ---------------------------------------------------------

    def _fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}__q{self.counter}"

    def _activation_qp(self, name: str) -> QuantParams:
        lo, hi = self.cal.range_of(name)
        return choose_quant_params(lo, hi, self.act_dtype)

    def _ensure_quant(self, name: str) -> str:
        """Return a quantized version of source activation ``name``."""
        if name in self.quant_version:
            return self.quant_version[name]
        if name not in self.float_version:
            raise GraphError(f"tensor {name!r} has no version yet (graph order bug)")
        qp = self._activation_qp(name)
        qname = self._fresh(name)
        shape = self.src.tensor(name).shape
        self.out.add_tensor(Tensor(qname, TensorType(shape, self.act_dtype), quant=qp))
        self.out.add_node(
            Node(self._fresh(f"quantize_{name}"), "quantize", [self.float_version[name]], [qname])
        )
        self.quant_version[name] = qname
        return qname

    def _ensure_float(self, name: str) -> str:
        if name in self.float_version:
            return self.float_version[name]
        if name not in self.quant_version:
            raise GraphError(f"tensor {name!r} has no version yet (graph order bug)")
        fname = self._fresh(name)
        shape = self.src.tensor(name).shape
        self.out.add_tensor(Tensor(fname, TensorType(shape, "float32")))
        self.out.add_node(
            Node(
                self._fresh(f"dequantize_{name}"),
                "dequantize",
                [self.quant_version[name]],
                [fname],
            )
        )
        self.float_version[name] = fname
        return fname

    @property
    def _weight_dtype(self) -> NcoreDType:
        """int16 activations pair with *int8* weights (the 16x8 scheme):
        s16 x s16 products would overflow the 32-bit saturating
        accumulator within a few taps, so the precision win comes from the
        activation side while weights stay 8-bit."""
        if self.act_dtype is NcoreDType.INT16:
            return NcoreDType.INT8
        return self.act_dtype

    def _quantize_weights(self, node: Node) -> tuple[str, QuantParams | ChannelQuantParams]:
        weights = self.src.tensor(node.inputs[1])
        if self.per_channel_weights:
            axis = _WEIGHT_CHANNEL_AXIS[node.op]
            qp = choose_channel_quant_params(weights.data, axis, self._weight_dtype)
            quantized = qp.quantize(weights.data)
        else:
            lo, hi = float(weights.data.min()), float(weights.data.max())
            qp = choose_quant_params(lo, hi, self._weight_dtype)
            quantized = quantize(weights.data, qp)
        qname = node.inputs[1] + "__w"
        if qname not in self.out.tensors:
            self.out.add_constant(qname, quantized, quant=qp)
        return qname, self.out.tensor(qname).quant

    def _quantize_bias(self, node: Node, input_qp: QuantParams, weight_qp) -> str | None:
        if len(node.inputs) <= 2:
            return None
        bias = self.src.tensor(node.inputs[2])
        # Bias lives in accumulator units: per-channel when the weights are.
        scale = input_qp.scale * (
            np.asarray(weight_qp.scales, dtype=np.float64)
            if isinstance(weight_qp, ChannelQuantParams)
            else weight_qp.scale
        )
        data = np.round(bias.data / scale).astype(np.int64)
        data = np.clip(data, -(2**31), 2**31 - 1).astype(np.int32)
        qname = node.inputs[2] + "__b"
        if qname not in self.out.tensors:
            self.out.add_constant(qname, data)
        return qname

    # -- main loop -------------------------------------------------------

    def convert(self) -> Graph:
        for name in self.src.inputs:
            tensor = self.src.tensor(name)
            self.out.add_input(name, tensor.type)
            self.float_version[name] = name
        for name, tensor in self.src.tensors.items():
            if tensor.is_constant and name not in self.src.inputs:
                # Constants feeding float ops are copied verbatim on demand
                # via float_version; weights are handled per-node.
                self.float_version.setdefault(name, name)
        for node in self.src.nodes:
            if node.op in QUANTIZABLE_OPS:
                self._convert_quantized(node)
            else:
                self._convert_float(node)
        for name in self.src.outputs:
            self.out.mark_output(self._ensure_float(name))
        self.out.validate()
        return self.out

    def _convert_quantized(self, node: Node) -> None:
        op_inputs: list[str] = []
        if node.op in ("conv2d", "depthwise_conv2d", "fully_connected"):
            x_q = self._ensure_quant(node.inputs[0])
            w_q, w_qp = self._quantize_weights(node)
            op_inputs = [x_q, w_q]
            input_qp = self.out.tensor(x_q).quant
            bias = self._quantize_bias(node, input_qp, w_qp)
            if bias is not None:
                op_inputs.append(bias)
        else:
            for name in node.inputs:
                tensor = self.src.tensor(name)
                if tensor.is_constant:
                    # Quantized elementwise constants use their own range.
                    lo, hi = float(tensor.data.min()), float(tensor.data.max())
                    qp = choose_quant_params(lo, hi, self.act_dtype)
                    qname = name + "__c"
                    if qname not in self.out.tensors:
                        self.out.add_constant(qname, quantize(tensor.data, qp), quant=qp)
                    op_inputs.append(qname)
                else:
                    op_inputs.append(self._ensure_quant(name))
        out_name = node.outputs[0]
        shape = self.src.tensor(out_name).shape
        out_qp = (
            self.out.tensor(op_inputs[0]).quant
            if node.op in _SAME_QP_AS_INPUT
            else self._activation_qp(out_name)
        )
        self.out.add_tensor(Tensor(out_name, TensorType(shape, self.act_dtype), quant=out_qp))
        self.out.add_node(Node(node.name, node.op, op_inputs, [out_name], dict(node.attrs)))
        self.quant_version[out_name] = out_name

    def _convert_float(self, node: Node) -> None:
        op_inputs = []
        for name in node.inputs:
            tensor = self.src.tensor(name)
            if tensor.is_constant:
                if name not in self.out.tensors:
                    self.out.add_constant(name, tensor.data)
                op_inputs.append(name)
            else:
                op_inputs.append(self._ensure_float(name))
        for out_name in node.outputs:
            src_type = self.src.tensor(out_name).type
            self.out.add_tensor(Tensor(out_name, src_type))
            self.float_version[out_name] = out_name
        self.out.add_node(Node(node.name, node.op, op_inputs, list(node.outputs), dict(node.attrs)))


def _fold_into_convs(
    graph: Graph, calibration: CalibrationResult
) -> tuple[Graph, CalibrationResult]:
    """The graph the GCL hands the Delegate (section V-B): a copy of
    ``graph`` with every explicit ``pad``, ``batch_norm`` and ``bias_add``
    a convolution can absorb folded into it, and the ranges to quantize it
    with.  An absorbing conv's output *is* the tensor the absorbed node
    produced, so it takes that tensor's observed range."""
    folded = graph.copy()
    PassManager([fuse_pad, fold_batch_norm, fuse_bias_add]).run(folded)
    kept = {node.name for node in folded.nodes}
    ranges = dict(calibration.ranges)
    stands_for: dict[str, str] = {}
    for node in graph.nodes:  # topological: the last absorbed node wins
        if node.name in kept or node.op == "pad":
            continue
        absorbed, conv_out = node.outputs[0], node.inputs[0]
        stands_for[absorbed] = conv_out = stands_for.get(conv_out, conv_out)
        if absorbed in ranges:
            ranges[conv_out] = ranges[absorbed]
    return folded, CalibrationResult(ranges)


def quantize_graph(
    graph: Graph,
    calibration: CalibrationResult,
    dtype: NcoreDType = NcoreDType.UINT8,
    per_channel_weights: bool = False,
) -> Graph:
    """Convert a float graph to affine-quantized integer arithmetic.

    ``dtype`` selects the activation/weight type: uint8/int8 for the
    standard 8-bit path, or int16 — the fallback "particularly useful to
    maintain precision" (section II-A.6) at 4x the NPU issue latency.
    ``per_channel_weights`` quantizes conv/dense weights per output
    channel, using the OUT unit's per-lane requantization registers.

    ``graph`` is left untouched: conversion works on a copy on which the
    conv-absorbing float passes (``fuse_pad``, ``fold_batch_norm``,
    ``fuse_bias_add``) have run first, as the GCL runs them before the
    Delegate partitions, so the zoo recipe — quantize, then compile —
    gets the segments an optimize-first order would.  ``calibration`` is
    the un-optimised graph's: each absorbing conv's output is quantized with
    the range of the tensor it replaced.  A ``batch_norm`` / ``pad`` no
    conv can absorb (two consumers, non-conv producer) stays a float
    island between ``dequantize`` / ``quantize``.
    """
    if dtype not in (NcoreDType.UINT8, NcoreDType.INT8, NcoreDType.INT16):
        raise ValueError("post-training quantization targets integer dtypes")
    graph, calibration = _fold_into_convs(graph, calibration)
    return _Converter(graph, calibration, dtype, per_channel_weights).convert()


def convert_to_bf16(graph: Graph) -> Graph:
    """Rewrite a float32 graph to bfloat16 (the GNMT conversion path).

    Constants are rounded to bfloat16 once at conversion time; activation
    tensors are re-typed so the runtime and NKL schedule them as bf16
    (3-cycle NPU issues, 2 bytes/element).
    """
    out = Graph(graph.name + "_bf16")
    for name, tensor in graph.tensors.items():
        if tensor.is_constant:
            if tensor.type.dtype == "float32":
                data = to_bfloat16(tensor.data)
                out.add_tensor(
                    Tensor(name, TensorType(tensor.shape, NcoreDType.BF16), data)
                )
            else:
                out.add_tensor(Tensor(name, tensor.type, tensor.data))
        else:
            dtype = NcoreDType.BF16 if tensor.type.dtype == "float32" else tensor.type.dtype
            out.add_tensor(Tensor(name, TensorType(tensor.shape, dtype)))
    out.inputs = list(graph.inputs)
    out.outputs = list(graph.outputs)
    for node in graph.nodes:
        out.add_node(Node(node.name, node.op, list(node.inputs), list(node.outputs), dict(node.attrs)))
    out.validate()
    return out
