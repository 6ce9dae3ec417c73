"""On-disk serialization of the GIR: a JSON structure plus an .npz sidecar.

``save_graph`` writes ``<path>.json`` (structure: tensors, nodes, attrs,
quantization parameters) and ``<path>.npz`` (constant arrays);
``load_graph`` reconstructs an identical graph.  The exported pair is what
the paper calls the model "exported from a DL framework" entering the
toolflow (section V-B), in Ncore's own format.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from repro.dtypes import ChannelQuantParams, NcoreDType, QuantParams
from repro.graph.gir import Graph, GraphError, Node, Tensor, TensorType

FORMAT_VERSION = 1


def _dtype_to_json(dtype) -> str:
    return dtype.value if isinstance(dtype, NcoreDType) else dtype


def _dtype_from_json(value: str):
    if value in ("float32", "int32"):
        return value
    return NcoreDType(value)


def _quant_to_json(quant):
    if quant is None:
        return None
    if isinstance(quant, ChannelQuantParams):
        return {
            "per_channel": True,
            "scales": list(quant.scales),
            "zero_points": list(quant.zero_points),
            "axis": quant.axis,
            "dtype": quant.dtype.value,
        }
    return {
        "scale": quant.scale,
        "zero_point": quant.zero_point,
        "dtype": quant.dtype.value,
    }


def _quant_from_json(spec):
    if spec is None:
        return None
    if spec.get("per_channel"):
        return ChannelQuantParams(
            tuple(spec["scales"]),
            tuple(spec["zero_points"]),
            spec["axis"],
            NcoreDType(spec["dtype"]),
        )
    return QuantParams(spec["scale"], spec["zero_point"], NcoreDType(spec["dtype"]))


def _attrs_to_json(attrs: dict) -> dict:
    """Attrs are JSON-ified; tuples round-trip via lists + shape knowledge."""
    out = {}
    for key, value in attrs.items():
        out[key] = (
            [list(v) if isinstance(v, tuple) else v for v in value]
            if isinstance(value, tuple)
            else value
        )
    return out


_TUPLE_ATTRS = {"stride", "ksize", "shape", "axis"}
_NESTED_TUPLE_ATTRS = {"padding"}


def _attrs_from_json(attrs: dict) -> dict:
    out = {}
    for key, value in attrs.items():
        if key in _NESTED_TUPLE_ATTRS and isinstance(value, list):
            out[key] = tuple(tuple(v) for v in value)
        elif key in _TUPLE_ATTRS and isinstance(value, list):
            out[key] = tuple(value)
        else:
            out[key] = value
    return out


def save_graph(graph: Graph, path: str | Path) -> tuple[Path, Path]:
    """Serialize a graph; returns the (json_path, npz_path) pair."""
    path = Path(path)
    json_path = path.with_suffix(".json")
    npz_path = path.with_suffix(".npz")
    constants: dict[str, np.ndarray] = {}
    tensors = {}
    for name, tensor in graph.tensors.items():
        tensors[name] = {
            "shape": list(tensor.shape),
            "dtype": _dtype_to_json(tensor.type.dtype),
            "quant": _quant_to_json(tensor.quant),
            "constant": tensor.is_constant,
        }
        if tensor.is_constant:
            constants[name] = tensor.data
    document = {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "inputs": graph.inputs,
        "outputs": graph.outputs,
        "tensors": tensors,
        "nodes": [
            {
                "name": node.name,
                "op": node.op,
                "inputs": node.inputs,
                "outputs": node.outputs,
                "attrs": _attrs_to_json(node.attrs),
            }
            for node in graph.nodes
        ],
    }
    json_path.write_text(json.dumps(document, indent=1))
    np.savez_compressed(npz_path, **constants)
    return json_path, npz_path


def load_graph(path: str | Path) -> Graph:
    """Reconstruct a graph saved by :func:`save_graph`.

    A missing ``.json`` raises ``FileNotFoundError``; any other defect of
    the pair (bad JSON, a missing key, an unknown dtype, an unreadable or
    incomplete ``.npz``) raises :class:`GraphError` naming the file.
    """
    path = Path(path)
    json_path = path.with_suffix(".json")
    npz_path = path.with_suffix(".npz")
    text = json_path.read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise GraphError(f"{json_path}: not valid JSON ({error})") from None
    version = document.get("format_version") if isinstance(document, dict) else None
    if version != FORMAT_VERSION:
        raise GraphError(f"{json_path}: unsupported GIR format version {version!r}")
    try:
        with open(npz_path, "rb") as handle, np.load(handle) as archive:
            constants = dict(archive)
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        raise GraphError(f"{npz_path}: cannot read the constants ({error})") from None
    try:
        return _graph_from_json(document, constants, npz_path)
    except KeyError as error:
        raise GraphError(f"{json_path}: missing key {error}") from None
    except (TypeError, ValueError) as error:  # GraphError too: an inconsistent graph
        raise GraphError(f"{json_path}: {error}") from None


def _graph_from_json(document: dict, constants: dict[str, np.ndarray],
                     npz_path: Path) -> Graph:
    graph = Graph(document["name"])
    for name, spec in document["tensors"].items():
        dtype = _dtype_from_json(spec["dtype"])
        if spec["constant"] and name not in constants:
            raise GraphError(f"no array for constant {name!r} in {npz_path.name}")
        data = constants[name] if spec["constant"] else None
        graph.add_tensor(
            Tensor(
                name,
                TensorType(tuple(spec["shape"]), dtype),
                data,
                _quant_from_json(spec["quant"]),
            )
        )
    graph.inputs = list(document["inputs"])
    graph.outputs = list(document["outputs"])
    for node_spec in document["nodes"]:
        graph.add_node(
            Node(
                node_spec["name"],
                node_spec["op"],
                list(node_spec["inputs"]),
                list(node_spec["outputs"]),
                _attrs_from_json(node_spec["attrs"]),
            )
        )
    graph.validate()
    return graph
