"""Batch-normalization folding (section V-B).

"An example optimization pass is to eliminate batch-normalization
operations by folding the batch-normalization constants into adjacent
bias-addition operations and convolution filters."
"""

from __future__ import annotations

import numpy as np

from repro.graph.gir import Graph, Node

_FOLDABLE_PRODUCERS = ("conv2d", "depthwise_conv2d", "fully_connected")


def fold_batch_norm(graph: Graph) -> bool:
    """Fold every batch_norm whose input is produced by a conv/dense op."""
    changed = False
    for bn in list(graph.find_nodes("batch_norm")):
        producer = graph.producer(bn.inputs[0])
        if producer is None or producer.op not in _FOLDABLE_PRODUCERS:
            continue
        if len(graph.consumers(bn.inputs[0])) != 1 or bn.inputs[0] in graph.outputs:
            continue  # conv output used elsewhere: folding would change it
        if producer.attr("activation", "none") != "none":
            continue  # bn(act(conv)) is not act(conv'): nothing to fold into
        mean = graph.tensor(bn.inputs[1]).data
        variance = graph.tensor(bn.inputs[2]).data
        gamma = graph.tensor(bn.inputs[3]).data
        beta = graph.tensor(bn.inputs[4]).data
        if any(v is None for v in (mean, variance, gamma, beta)):
            continue
        epsilon = bn.attr("epsilon", 1e-3)
        scale = gamma / np.sqrt(variance + epsilon)
        _scale_weights(graph, producer, scale)
        _fold_bias(graph, producer, scale, beta - mean * scale)
        graph.replace_uses(bn.outputs[0], producer.outputs[0])
        graph.remove_node(bn)
        changed = True
    return changed


def _scale_weights(graph: Graph, node: Node, scale: np.ndarray) -> None:
    weights = graph.tensor(node.inputs[1])
    # conv2d HWIO and fully_connected (in, out) scale the last axis;
    # depthwise HWC also scales the last (channel) axis.
    weights.data = (weights.data * scale).astype(np.float32)


def _fold_bias(graph: Graph, node: Node, scale: np.ndarray, shift: np.ndarray) -> None:
    if len(node.inputs) > 2:
        bias = graph.tensor(node.inputs[2])
        bias.data = (bias.data * scale + shift).astype(np.float32)
    else:
        name = f"{node.name}_folded_bias"
        graph.add_constant(name, shift.astype(np.float32))
        node.inputs.append(name)
