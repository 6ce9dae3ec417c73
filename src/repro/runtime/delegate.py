"""Delegate result types and the x86-side cost of one inference.

The paper's execution model (Fig. 8 / Fig. 9): the framework splits the
graph into subgraphs; Ncore subgraphs are compiled through the GCL/NKL
into loadables (:func:`repro.compiler.compile_graph`), x86 subgraphs run
on the cores, and the runtime (:class:`repro.runtime.executor.NcoreExecutor`)
handles the callbacks between them.  This module holds what both share:
the per-query result/timing records and the roofline cost of the
x86-resident nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.graph.gir import Graph, Node
from repro.graph.loadable import CompiledModel
from repro.graph.partitioner import Segment
from repro.obs import NULL_OBSERVATION, Observation
from repro.soc.x86 import X86Core

# Fixed software cost of one delegate transition (framework callback,
# buffer handoff): tens of microseconds of interpreter work.
DELEGATE_TRANSITION_SECONDS = 10e-6


@dataclass
class RunTiming:
    """Latency breakdown of one inference (the Table IX decomposition)."""

    ncore_seconds: float
    x86_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.ncore_seconds + self.x86_seconds

    @property
    def ncore_fraction(self) -> float:
        total = self.total_seconds
        return self.ncore_seconds / total if total else 0.0


@dataclass
class RunResult:
    outputs: dict[str, np.ndarray]
    timing: RunTiming


def _x86_node_cost(graph: Graph, node) -> dict:
    """Roofline parameters for one x86-resident node."""
    out_bytes = sum(graph.tensor(n).type.num_bytes for n in node.outputs)
    in_bytes = sum(
        graph.tensor(n).type.num_bytes for n in node.inputs if not graph.tensor(n).is_constant
    )
    if node.op == "nms":
        anchors = graph.tensor(node.inputs[0]).shape[0]
        classes = graph.tensor(node.inputs[1]).shape[-1]
        # Sorting plus pairwise IoU work per class.
        return {"ops": 60.0 * anchors * classes, "bytes_moved": in_bytes + out_bytes}
    if node.op == "softmax":
        elements = graph.tensor(node.outputs[0]).type.num_elements
        return {"ops": 8.0 * elements, "bytes_moved": in_bytes + out_bytes}
    if node.op in ("reshape", "identity", "concat", "pad"):
        return {"bytes_moved": in_bytes + out_bytes}
    if node.op == "embedding":
        return {"bytes_moved": out_bytes}
    # Generic fallback: stream the data once.
    return {"ops": 2.0 * graph.tensor(node.outputs[0]).type.num_elements,
            "bytes_moved": in_bytes + out_bytes}


def x86_segment_costs(
    graph: Graph, segment: Segment, core: X86Core
) -> Iterator[tuple[Node | None, float]]:
    """The x86 cost terms of one non-delegated segment on ``core``, in
    order: one delegate transition (node ``None``), then the roofline
    seconds of each node.  The segment's cost is their sum."""
    yield None, DELEGATE_TRANSITION_SECONDS
    for node in segment.nodes:
        yield node, core.task_seconds(**_x86_node_cost(graph, node))


def x86_graph_seconds(
    model: CompiledModel, core: X86Core, obs: Observation = NULL_OBSERVATION
) -> tuple[float, float]:
    """x86 time of the non-delegated segments: (total, non-batchable NMS share).

    The total is every :func:`x86_segment_costs` term of the x86
    segments; under a live ``obs`` the Table IX attribution (where the
    fallback time goes) is counted too.
    """
    metrics = obs.metrics
    total = 0.0
    nonbatchable = 0.0
    for index in model.x86_segments:
        for node, seconds in x86_segment_costs(model.graph, model.segments[index], core):
            total += seconds
            if node is None:
                if metrics.enabled:
                    metrics.counter("delegate.transitions").inc()
                continue
            if node.op == "nms":
                # "TensorFlow-Lite's implementation of the NMS operation
                # does not support batching" (section VI-C).
                nonbatchable += seconds
            if metrics.enabled:
                metrics.counter(
                    f"x86.fallback.{node.op}.cycles", unit="cycles"
                ).inc(seconds * core.clock_hz)
                metrics.counter("x86.fallback.seconds", unit="s").inc(seconds)
    return total, nonbatchable
