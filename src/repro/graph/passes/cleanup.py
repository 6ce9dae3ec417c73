"""Cleanup passes: constant folding and dead-code elimination."""

from __future__ import annotations

from collections import Counter

from repro.graph.gir import Graph
from repro.graph.reference import execute_node

# Ops whose results are worth folding at compile time when all inputs are
# constant.  Multi-output and data-dependent ops are excluded.
_FOLDABLE = frozenset(
    {
        "conv2d",
        "depthwise_conv2d",
        "fully_connected",
        "bias_add",
        "batch_norm",
        "relu",
        "relu6",
        "tanh",
        "sigmoid",
        "softmax",
        "add",
        "mul",
        "concat",
        "pad",
        "reshape",
        "mean",
        "identity",
    }
)


def constant_fold(graph: Graph) -> bool:
    """Evaluate nodes whose inputs are all constants."""
    changed = False
    for node in list(graph.nodes):
        if node.op not in _FOLDABLE or len(node.outputs) != 1:
            continue
        tensors = [graph.tensor(name) for name in node.inputs]
        if not tensors or not all(t.is_constant for t in tensors):
            continue
        (result,) = execute_node(graph, node, [t.data for t in tensors])
        graph.tensor(node.outputs[0]).data = result
        graph.remove_node(node)
        changed = True
    return changed


def dead_code_elimination(graph: Graph) -> bool:
    """Remove nodes whose outputs reach neither a consumer nor an output."""
    changed = False
    outputs = set(graph.outputs)
    # How many node inputs read each tensor; a removal gives its reads back.
    uses = Counter(name for node in graph.nodes for name in node.inputs)
    # Sweep in reverse topological order so chains die in one pass.
    for node in reversed(list(graph.nodes)):
        if any(name in outputs or uses[name] for name in node.outputs):
            continue
        graph.remove_node(node)
        uses.subtract(node.inputs)
        changed = True
    return changed


def common_subexpression_elimination(graph: Graph) -> bool:
    """Merge nodes that compute the identical value.

    Two nodes are equivalent when they run the same op over the same input
    tensors with the same attributes; the later node's outputs are rewired
    to the earlier node's.  (Multi-output and stateful ops are skipped.)
    """
    changed = False
    seen: dict[tuple, str] = {}
    for node in list(graph.nodes):
        if len(node.outputs) != 1 or node.op in ("quantize", "dequantize"):
            continue
        key = (node.op, tuple(node.inputs), _freeze(node.attrs))
        if key in seen:
            graph.replace_uses(node.outputs[0], seen[key])
            graph.remove_node(node)
            changed = True
        else:
            seen[key] = node.outputs[0]
    return changed


def _freeze(value):
    """Hashable view of an attrs structure."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value
