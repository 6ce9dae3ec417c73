"""Deterministic content fingerprints for compile-cache keys.

A compile is a pure function of (graph structure + constant data,
Ncore configuration, pipeline identity, verification mode).  This module
digests each ingredient into a stable hex string so that
:class:`~repro.compiler.cache.CompileCache` can address compiled
artifacts by content: two structurally identical graphs — however they
were built — share a key, and any change to a weight byte, a node
attribute, the :class:`~repro.ncore.config.NcoreConfig` or the pipeline
invalidates it.

Fingerprints are computed *before* any optimization pass touches the
graph, so the key identifies what the caller handed in, not what the
pipeline made of it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np

from repro.dtypes import NcoreDType
from repro.graph.gir import Graph
from repro.ncore.config import NcoreConfig

#: Bump to invalidate every existing cache entry (artifact layout change).
CACHE_FORMAT_VERSION = 5


def _canonical(value: Any) -> Any:
    """Reduce an attribute/quant value to a JSON-stable representation."""
    if isinstance(value, NcoreDType):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _canonical(val) for key, val in sorted(value.items())}
    if isinstance(value, np.ndarray):  # array-valued attrs digest by content
        return {
            "__ndarray__": hashlib.sha256(
                np.ascontiguousarray(value).tobytes()
            ).hexdigest(),
            "shape": list(value.shape),
            "dtype": str(value.dtype),
        }
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return value


def _quant_spec(quant: Any) -> Any:
    """Canonical form of a QuantParams / ChannelQuantParams (or None)."""
    if quant is None:
        return None
    if hasattr(quant, "scales"):  # per-channel
        return {
            "per_channel": True,
            "scales": [float(s) for s in quant.scales],
            "zero_points": [int(z) for z in quant.zero_points],
            "axis": int(quant.axis),
            "dtype": quant.dtype.value,
        }
    return {
        "scale": float(quant.scale),
        "zero_point": int(quant.zero_point),
        "dtype": quant.dtype.value,
    }


def _tensor_digest(tensor: Any) -> str | None:
    """SHA-256 of one constant's bytes, memoized on the tensor.

    The memo is stamped with the array's identity/shape/dtype, so
    reassigning ``tensor.data`` (how every pass rewrites constants)
    recomputes it.  When the array owns its memory it is frozen
    (``writeable = False``) as the memo is taken — an in-place mutation
    afterwards raises instead of silently serving a stale digest; arrays
    that cannot be frozen (views) are hashed fresh every time.
    """
    data = tensor.data
    if data is None:
        return None
    stamp = (id(data), data.nbytes, str(data.dtype), data.shape)
    memo = tensor._content_digest
    if memo is not None and memo[0] == stamp:
        return memo[1]
    contiguous = np.ascontiguousarray(data)
    digest = hashlib.sha256()
    digest.update(str(contiguous.dtype).encode("utf-8"))
    digest.update(memoryview(contiguous).cast("B"))
    hexdigest = digest.hexdigest()
    if contiguous is data:
        try:
            data.flags.writeable = False
        except ValueError:
            pass  # a view we don't own: never memoize
        else:
            tensor._content_digest = (stamp, hexdigest)
    return hexdigest


def fingerprint_graph(graph: Graph) -> str:
    """SHA-256 digest of a graph's structure plus its constant data.

    Covers: inputs/outputs, every tensor's shape/dtype/quant parameters,
    every node's op/wiring/attributes (in topological order), and the raw
    bytes of every constant (memoized per tensor, see
    :func:`_tensor_digest`).  Excludes the graph's display ``name`` so a
    rename never defeats the cache.
    """
    structure: dict[str, Any] = {
        "inputs": list(graph.inputs),
        "outputs": list(graph.outputs),
        "tensors": {
            name: {
                "shape": list(tensor.type.shape),
                "dtype": _canonical(tensor.type.dtype),
                "quant": _quant_spec(tensor.quant),
                "constant": tensor.is_constant,
            }
            for name, tensor in sorted(graph.tensors.items())
        },
        "nodes": [
            {
                "name": node.name,
                "op": node.op,
                "inputs": list(node.inputs),
                "outputs": list(node.outputs),
                "attrs": {
                    key: _canonical(value)
                    for key, value in sorted(node.attrs.items())
                },
            }
            for node in graph.nodes
        ],
    }
    digest = hashlib.sha256()
    digest.update(json.dumps(structure, sort_keys=True).encode("utf-8"))
    for name, tensor in sorted(graph.tensors.items()):
        content = _tensor_digest(tensor)
        if content is None:
            continue
        digest.update(name.encode("utf-8"))
        digest.update(content.encode("utf-8"))
    return digest.hexdigest()


def fingerprint_config(config: NcoreConfig) -> str:
    """SHA-256 digest of every architectural parameter of an Ncore."""
    fields = dataclasses.asdict(config)
    digest = hashlib.sha256()
    digest.update(json.dumps(fields, sort_keys=True, default=str).encode("utf-8"))
    return digest.hexdigest()


def compile_key(
    graph: Graph,
    config: NcoreConfig,
    pipeline_id: str,
    *,
    name: str | None = None,
    verify: bool = True,
) -> str:
    """The content address of one compilation.

    ``name`` participates because it is baked into the artifact (loadable
    names are derived from it); ``verify`` participates because a
    verified and an unverified compile are different contracts.
    """
    digest = hashlib.sha256()
    digest.update(f"v{CACHE_FORMAT_VERSION}".encode("utf-8"))
    digest.update(fingerprint_graph(graph).encode("utf-8"))
    digest.update(fingerprint_config(config).encode("utf-8"))
    digest.update(pipeline_id.encode("utf-8"))
    digest.update((name or graph.name).encode("utf-8"))
    digest.update(b"verified" if verify else b"unverified")
    return digest.hexdigest()


__all__ = [
    "CACHE_FORMAT_VERSION",
    "compile_key",
    "fingerprint_config",
    "fingerprint_graph",
]
