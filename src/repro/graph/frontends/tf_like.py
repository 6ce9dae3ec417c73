"""TensorFlow-style frontend: NHWC / HWIO with "SAME"/"VALID" padding.

The input format is a plain dict (the shape a flatbuffer/protobuf parser
would hand over): ``{"inputs": [...], "outputs": [...], "operators":
[...], "tensors": {...}}`` — close in spirit to a parsed TensorFlow-Lite
model.  "SAME" / "VALID" resolve through :mod:`repro.graph.window`, the
one owner of the window geometry (``same_padding`` there carries TF's rule
for where the extra padding pixel goes).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graph.gir import Graph, GraphError, Node, Tensor, TensorType
from repro.graph.window import resolve_padding

# Framework op name -> GIR op name.
_OP_MAP = {
    "CONV_2D": "conv2d",
    "DEPTHWISE_CONV_2D": "depthwise_conv2d",
    "FULLY_CONNECTED": "fully_connected",
    "ADD": "add",
    "MUL": "mul",
    "RELU": "relu",
    "RELU6": "relu6",
    "TANH": "tanh",
    "LOGISTIC": "sigmoid",
    "SOFTMAX": "softmax",
    "MAX_POOL_2D": "max_pool",
    "AVERAGE_POOL_2D": "avg_pool",
    "MEAN": "mean",
    "RESHAPE": "reshape",
    "CONCATENATION": "concat",
    "PAD": "pad",
    "BATCH_NORM": "batch_norm",
    "BIAS_ADD": "bias_add",
}

_ACTIVATIONS = {"NONE": "none", "RELU": "relu", "RELU6": "relu6"}


def import_tf_like(model: dict[str, Any], name: str = "tf_import") -> Graph:
    """Import a TF-style model dict into the GIR."""
    graph = Graph(name)
    tensors: dict[str, dict] = model.get("tensors", {})
    for tensor_name, spec in tensors.items():
        shape = tuple(spec["shape"])
        data = spec.get("data")
        if data is not None:
            graph.add_constant(tensor_name, np.asarray(data))
        else:
            graph.add_tensor(Tensor(tensor_name, TensorType(shape, spec.get("dtype", "float32"))))
    for input_name in model.get("inputs", []):
        if input_name not in graph.tensors:
            raise GraphError(f"model input {input_name!r} has no tensor spec")
        graph.inputs.append(input_name)

    for index, op in enumerate(model.get("operators", [])):
        op_code = op["op"]
        if op_code not in _OP_MAP:
            raise GraphError(f"unsupported TF-style op {op_code!r}")
        gir_op = _OP_MAP[op_code]
        attrs: dict[str, Any] = {}
        node_name = op.get("name", f"{gir_op}_{index}")
        inputs = list(op["inputs"])
        if gir_op in ("conv2d", "depthwise_conv2d"):
            attrs["stride"] = tuple(op.get("stride", (1, 1)))
            attrs["padding"] = resolve_padding(
                op.get("padding", "VALID"), graph.tensor(inputs[0]).shape[1:3],
                graph.tensor(inputs[1]).shape[:2], attrs["stride"],
            )
            act = _ACTIVATIONS.get(op.get("fused_activation", "NONE"))
            if act is None:
                raise GraphError(f"unknown fused activation in {node_name!r}")
            if act != "none":
                attrs["activation"] = act
        elif gir_op in ("max_pool", "avg_pool"):
            attrs["ksize"] = tuple(op["ksize"])
            attrs["stride"] = tuple(op.get("stride", attrs["ksize"]))
            attrs["padding"] = resolve_padding(
                op.get("padding", "VALID"), graph.tensor(inputs[0]).shape[1:3],
                attrs["ksize"], attrs["stride"],
            )
        elif gir_op == "reshape":
            attrs["shape"] = tuple(op["shape"])
        elif gir_op == "concat":
            attrs["axis"] = op.get("axis", -1)
        elif gir_op == "pad":
            attrs["padding"] = tuple(tuple(p) for p in op["padding"])
        elif gir_op == "mean":
            attrs["axis"] = tuple(op.get("axis", (1, 2)))
        elif gir_op in ("add", "fully_connected"):
            act = _ACTIVATIONS.get(op.get("fused_activation", "NONE"), "none")
            if act != "none":
                attrs["activation"] = act
        graph.add_node(Node(node_name, gir_op, inputs, list(op["outputs"]), attrs))

    for output_name in model.get("outputs", []):
        graph.mark_output(output_name)
    graph.validate()
    return graph
