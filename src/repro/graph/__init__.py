"""The Ncore Graph Compiler Library (GCL).

Section V-B: the GCL imports framework-specific graph representations into
Ncore's own graph IR, runs generic graph-level optimizations (batch-norm
folding, pad fusion, bias/activation fusion), selects data layouts, plans
scratchpad memory and weight movement, and lowers the result to an Ncore
Loadable via the kernel library.
"""

from repro.graph.gir import (
    Graph,
    GraphError,
    Node,
    Tensor,
    TensorType,
)
from repro.graph.loadable import CompiledModel, NcoreLoadable, Segment
from repro.graph.partitioner import partition
from repro.graph.passes import PassManager, default_pipeline
from repro.graph.planner import MemoryPlan, plan_memory
from repro.graph.reference import execute_float

__all__ = [
    "CompiledModel",
    "Graph",
    "GraphError",
    "MemoryPlan",
    "NcoreLoadable",
    "Node",
    "PassManager",
    "Segment",
    "Tensor",
    "TensorType",
    "default_pipeline",
    "execute_float",
    "partition",
    "plan_memory",
]
