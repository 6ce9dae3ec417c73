"""PyTorch-style frontend: NCHW / OIHW with symmetric integer padding.

PyTorch convolutions take a single symmetric padding integer per axis and
carry weights as OIHW; activations are NCHW.  The frontend normalizes all
of it into the GIR's NHWC/HWIO conventions at import time — shapes are
permuted, weight constants transposed — so the rest of the compiler never
sees framework-specific layouts.  (This is the "subtle differences that go
beyond just the on-disk serialization format" normalization of section
V-B: for even kernels or asymmetric SAME cases, TF and torch disagree on
where padding lands; torch's symmetric convention is preserved exactly.)

Use :func:`nchw_to_nhwc` to adapt input arrays at the boundary.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graph.gir import Graph, GraphError, Node, Tensor, TensorType

_OP_MAP = {
    "conv2d": "conv2d",
    "conv2d_depthwise": "depthwise_conv2d",
    "linear": "fully_connected",
    "add": "add",
    "relu": "relu",
    "relu6": "relu6",
    "tanh": "tanh",
    "sigmoid": "sigmoid",
    "softmax": "softmax",
    "max_pool2d": "max_pool",
    "avg_pool2d": "avg_pool",
    "batch_norm": "batch_norm",
    "flatten": "reshape",
    "cat": "concat",
}


def nchw_to_nhwc(array: np.ndarray) -> np.ndarray:
    """Adapt an NCHW activation array for the imported graph."""
    return np.ascontiguousarray(np.transpose(array, (0, 2, 3, 1)))


def _shape_to_nhwc(shape: tuple[int, ...]) -> tuple[int, ...]:
    if len(shape) == 4:
        n, c, h, w = shape
        return (n, h, w, c)
    return shape


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def import_torch_like(model: dict[str, Any], name: str = "torch_import") -> Graph:
    """Import a torch-style model dict (NCHW / OIHW) into the GIR."""
    graph = Graph(name)
    for tensor_name, spec in model.get("tensors", {}).items():
        data = spec.get("data")
        if data is not None:
            data = np.asarray(data)
            role = spec.get("role", "generic")
            if role == "conv_weight":           # OIHW -> HWIO
                data = np.transpose(data, (2, 3, 1, 0))
            elif role == "depthwise_weight":    # (C,1,kh,kw) -> HWC
                data = np.transpose(data[:, 0], (1, 2, 0))
            elif role == "linear_weight":       # (out, in) -> (in, out)
                data = np.transpose(data, (1, 0))
            graph.add_constant(tensor_name, np.ascontiguousarray(data))
        else:
            shape = _shape_to_nhwc(tuple(spec["shape"]))
            graph.add_tensor(Tensor(tensor_name, TensorType(shape, spec.get("dtype", "float32"))))
    for input_name in model.get("inputs", []):
        graph.inputs.append(input_name)

    for index, op in enumerate(model.get("operators", [])):
        op_code = op["op"]
        if op_code not in _OP_MAP:
            raise GraphError(f"unsupported torch-style op {op_code!r}")
        gir_op = _OP_MAP[op_code]
        node_name = op.get("name", f"{gir_op}_{index}")
        attrs: dict[str, Any] = {}
        if gir_op in ("conv2d", "depthwise_conv2d"):
            attrs["stride"] = _pair(op.get("stride", 1))
            ph, pw = _pair(op.get("padding", 0))
            attrs["padding"] = ((ph, ph), (pw, pw))  # torch pads symmetrically
        elif gir_op in ("max_pool", "avg_pool"):
            attrs["ksize"] = _pair(op["kernel_size"])
            attrs["stride"] = _pair(op.get("stride", op["kernel_size"]))
            ph, pw = _pair(op.get("padding", 0))
            attrs["padding"] = ((ph, ph), (pw, pw))
        elif gir_op == "reshape":
            attrs["shape"] = tuple(op["shape"])
        elif gir_op == "concat":
            # torch dim over NCHW: dim=1 (channels) is NHWC's last axis.
            dim = op.get("dim", 1)
            attrs["axis"] = {0: 0, 1: 3, 2: 1, 3: 2}.get(dim, dim)
        elif gir_op == "batch_norm":
            attrs["epsilon"] = op.get("eps", 1e-5)
        graph.add_node(Node(node_name, gir_op, list(op["inputs"]), list(op["outputs"]), attrs))

    for output_name in model.get("outputs", []):
        graph.mark_output(output_name)
    graph.validate()
    return graph
