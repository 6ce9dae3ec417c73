"""Fusion passes: explicit pads, bias additions and activations.

Section V-B: "A common, subsequent optimization pass fuses the element-wise
bias-addition and activation functions into operations such as convolution"
and "a graph-level optimization pass fuses these explicit pad operations
into an adjacent convolution" (the ResNet-50-V1.5 MLPerf reference graph
has four explicit pads).
"""

from __future__ import annotations

from repro.graph.gir import Graph

_CONV_LIKE = ("conv2d", "depthwise_conv2d")
_BIAS_TARGETS = ("conv2d", "depthwise_conv2d", "fully_connected")
_ACT_TARGETS = ("conv2d", "depthwise_conv2d", "fully_connected", "add")
_FUSABLE_ACTS = ("relu", "relu6", "tanh", "sigmoid")


def fuse_pad(graph: Graph) -> bool:
    """Fold zero-valued explicit pad ops into the following convolution."""
    changed = False
    for pad in list(graph.find_nodes("pad")):
        if pad.attr("value", 0.0) != 0.0:
            continue
        consumers = graph.consumers(pad.outputs[0])
        if len(consumers) != 1 or consumers[0].op not in _CONV_LIKE:
            continue
        if pad.outputs[0] in graph.outputs:
            continue
        conv = consumers[0]
        (pt, pb), (pl, pr) = pad.attrs["padding"]
        (ct, cb), (cl, cr) = conv.attr("padding", ((0, 0), (0, 0)))
        conv.attrs["padding"] = ((pt + ct, pb + cb), (pl + cl, pr + cr))
        graph.rewire_input(conv, pad.outputs[0], pad.inputs[0])
        graph.remove_node(pad)
        changed = True
    return changed


def fuse_bias_add(graph: Graph) -> bool:
    """Attach constant bias_add vectors to the producing conv/dense op."""
    changed = False
    for bias_add in list(graph.find_nodes("bias_add")):
        producer = graph.producer(bias_add.inputs[0])
        if producer is None or producer.op not in _BIAS_TARGETS:
            continue
        if len(producer.inputs) > 2:
            continue  # already carries a bias
        if producer.attr("activation", "none") != "none":
            continue  # the bias would move inside the activation
        if len(graph.consumers(bias_add.inputs[0])) != 1 or bias_add.inputs[0] in graph.outputs:
            continue
        if not graph.tensor(bias_add.inputs[1]).is_constant:
            continue
        producer.inputs.append(bias_add.inputs[1])
        # Preserve any activation the bias_add itself carried.
        act = bias_add.attr("activation", "none")
        if act != "none":
            producer.attrs["activation"] = act
        graph.replace_uses(bias_add.outputs[0], producer.outputs[0])
        graph.remove_node(bias_add)
        changed = True
    return changed


def fuse_activations(graph: Graph) -> bool:
    """Fold standalone activation nodes into the producing op's attribute."""
    changed = False
    for node in list(graph.nodes):
        if node.op not in _FUSABLE_ACTS:
            continue
        producer = graph.producer(node.inputs[0])
        if producer is None or producer.op not in _ACT_TARGETS:
            continue
        if producer.attr("activation", "none") != "none":
            continue
        if len(graph.consumers(producer.outputs[0])) != 1:
            continue
        producer.attrs["activation"] = node.op
        graph.replace_uses(node.outputs[0], producer.outputs[0])
        graph.remove_node(node)
        changed = True
    return changed
