"""Graph-level optimization passes (section V-B).

The paper's examples, all implemented here:

- eliminate batch-normalization by folding its constants into adjacent
  convolution filters and bias vectors (:mod:`folding`);
- fuse element-wise bias-addition and activation functions into operations
  such as convolution (:mod:`fusion`);
- fuse explicit pad operations into an adjacent convolution — the
  ResNet-50-V1.5 MLPerf reference graph has four of these (:mod:`fusion`);
- constant folding and dead-code elimination (:mod:`cleanup`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.graph.gir import Graph
from repro.graph.passes.cleanup import (
    common_subexpression_elimination,
    constant_fold,
    dead_code_elimination,
)
from repro.graph.passes.folding import fold_batch_norm
from repro.graph.passes.fusion import fuse_bias_add, fuse_activations, fuse_pad

GraphPass = Callable[[Graph], bool]


@dataclass
class PassRunStats:
    """What one :meth:`PassManager.run` call did to the graph.

    ``pass_changes`` counts, per pass, the sweeps in which that pass
    reported a change; ``pass_nodes_removed`` attributes node-count
    shrinkage to the pass that caused it (folding/fusion/DCE work).
    """

    sweeps: int = 0
    reached_fixed_point: bool = True
    nodes_before: int = 0
    nodes_after: int = 0
    dead_tensors_pruned: int = 0
    pass_changes: dict[str, int] = field(default_factory=dict)
    pass_nodes_removed: dict[str, int] = field(default_factory=dict)


class PassManager:
    """Runs a pipeline of passes to a fixed point.

    Each pass returns True when it changed the graph; the manager repeats
    the pipeline until a full sweep makes no changes (bounded, since every
    pass strictly shrinks or annotates the graph).  Every run records a
    :class:`PassRunStats` on ``last_stats``; the compiler's optimize stage
    reports a run that exhausted ``max_sweeps`` without reaching a fixed
    point (an instant marker plus a counter) instead of stopping silently.
    """

    def __init__(self, passes: list[GraphPass], max_sweeps: int = 10) -> None:
        self.passes = list(passes)
        self.max_sweeps = max_sweeps
        self.last_stats: PassRunStats | None = None

    def run(self, graph: Graph) -> int:
        """Optimize in place; returns the number of changing sweeps."""
        stats = PassRunStats(nodes_before=len(graph.nodes))
        stats.pass_changes = {p.__name__: 0 for p in self.passes}
        stats.pass_nodes_removed = {p.__name__: 0 for p in self.passes}
        sweeps = 0
        fixed_point = False
        for _ in range(self.max_sweeps):
            changed = False
            for graph_pass in self.passes:
                nodes_before_pass = len(graph.nodes)
                if graph_pass(graph):
                    changed = True
                    graph.validate()
                    name = graph_pass.__name__
                    stats.pass_changes[name] += 1
                    stats.pass_nodes_removed[name] += (
                        nodes_before_pass - len(graph.nodes)
                    )
            if not changed:
                fixed_point = True
                break
            sweeps += 1
        stats.sweeps = sweeps
        stats.reached_fixed_point = fixed_point
        stats.nodes_after = len(graph.nodes)
        stats.dead_tensors_pruned = graph.prune_dead_tensors()
        self.last_stats = stats
        return sweeps


def default_pipeline() -> PassManager:
    """The standard GCL optimization pipeline."""
    return PassManager(
        [
            fuse_pad,
            fold_batch_norm,
            fuse_bias_add,
            fuse_activations,
            constant_fold,
            common_subexpression_elimination,
            dead_code_elimination,
        ]
    )


__all__ = [
    "PassManager",
    "PassRunStats",
    "common_subexpression_elimination",
    "constant_fold",
    "dead_code_elimination",
    "default_pipeline",
    "fold_batch_norm",
    "fuse_activations",
    "fuse_bias_add",
    "fuse_pad",
]
