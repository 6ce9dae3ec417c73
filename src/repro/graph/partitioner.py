"""Delegate-style graph partitioning (Fig. 9).

TensorFlow-Lite's Delegate interface "splits a network's graph into
subgraphs, assigning execution of each subgraph to a specific target" —
compatible portions to Ncore, the rest (preprocessing, NMS, framework-only
ops) to the x86 cores, with TensorFlow handling the callbacks between
them.  This module reproduces that split over the GIR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.gir import Graph, Node

# Ops the Ncore kernel library can lower.  Everything else falls back to
# x86 — notably NMS, which TensorFlow-Lite ran on the CPU in the paper's
# SSD-MobileNet submission (section VI-C), reshapes (pure layout, handled
# at subgraph edges), and softmax.
NCORE_OPS = frozenset(
    {
        "conv2d",
        "depthwise_conv2d",
        "fully_connected",
        "add",
        "mul",
        "relu",
        "relu6",
        "tanh",
        "sigmoid",
        "max_pool",
        "avg_pool",
        "mean",
        "concat",
        "quantize",
        "dequantize",
        "lstm_cell",
        "lstm_step",
        "attention",
        "slice",
        "identity",
    }
)

# Ops that join Ncore segments only inside the bf16 float region.  A
# quantized model's reshapes still break segments at subgraph edges (the
# historical Delegate behaviour, and what the int8 codegen was tuned
# against), but in GNMT's bf16 region a reshape is a pure layout no-op
# between LSTM steps and forcing an x86 island around each one shatters
# the float region into per-node fragments.
NCORE_FLOAT_OPS = frozenset({"reshape"})

NCORE_TARGET = "ncore"
X86_TARGET = "x86"


@dataclass
class Segment:
    """A maximal run of same-target nodes, executed as one unit."""

    target: str
    nodes: list[Node] = field(default_factory=list)

    def input_tensors(self, graph: Graph) -> list[str]:
        """Tensors this segment consumes from outside itself (non-const)."""
        internal = {name for node in self.nodes for name in node.outputs}
        seen: list[str] = []
        for node in self.nodes:
            for name in node.inputs:
                tensor = graph.tensor(name)
                if name in internal or tensor.is_constant or name in seen:
                    continue
                seen.append(name)
        return seen

    def output_tensors(self, graph: Graph) -> list[str]:
        """Tensors produced here that are used outside (or graph outputs)."""
        internal_nodes = set(id(node) for node in self.nodes)
        # One pass over the graph: every tensor some outside node reads.
        read_outside = {
            name for node in graph.nodes if id(node) not in internal_nodes
            for name in node.inputs
        }
        out: list[str] = []
        for node in self.nodes:
            for name in node.outputs:
                if (name in read_outside or name in graph.outputs) and name not in out:
                    out.append(name)
        return out

    def __len__(self) -> int:
        return len(self.nodes)


def node_target(node: Node, graph: Graph | None = None) -> str:
    """Which engine a single node runs on.

    Pass ``graph`` to enable the bf16-region relaxation for
    :data:`NCORE_FLOAT_OPS`; without it the historical op-only rule applies.
    """
    if node.op in NCORE_OPS:
        return NCORE_TARGET
    if graph is not None and node.op in NCORE_FLOAT_OPS and _bf16_region(graph, node):
        return NCORE_TARGET
    return X86_TARGET


def _bf16_region(graph: Graph, node: Node) -> bool:
    """Whether every tensor the node touches is a bf16 float-region value."""
    from repro.dtypes import NcoreDType

    for name in (*node.inputs, *node.outputs):
        tensor = graph.tensor(name)
        if tensor.quant is not None or tensor.type.dtype is not NcoreDType.BF16:
            return False
    return True


def partition(graph: Graph) -> list[Segment]:
    """Split the (topologically ordered) graph into target segments.

    Consecutive nodes with the same target merge into one segment, which
    keeps dependencies intact because node order is preserved.  The result
    matches the Delegate behaviour in Fig. 9: large Ncore subgraphs with
    x86 islands around unsupported ops.
    """
    segments: list[Segment] = []
    for node in graph.nodes:
        target = node_target(node, graph)
        if segments and segments[-1].target == target:
            segments[-1].nodes.append(node)
        else:
            segments.append(Segment(target, [node]))
    return segments


def ncore_coverage(graph: Graph, segments: list[Segment] | None = None) -> float:
    """Fraction of MAC work landing on Ncore (a compile-quality metric)."""
    from repro.graph.gir import _node_macs

    segments = segments if segments is not None else partition(graph)
    total = graph.count_macs()
    if total == 0:
        return 0.0
    ncore = sum(
        _node_macs(graph, node)
        for segment in segments
        if segment.target == NCORE_TARGET
        for node in segment.nodes
    )
    return ncore / total
