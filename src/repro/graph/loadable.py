"""The Ncore Loadable: everything needed to run a model on Ncore.

Section V-B: "The final result is an Ncore Loadable which contains
everything needed to execute the DL model on Ncore" — the lowered kernels,
the memory plan, the weight images and the DMA schedule.  A
:class:`CompiledModel` strings loadables and x86 segments together in
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.graph.gir import Graph
from repro.graph.partitioner import Segment
from repro.graph.planner import MemoryPlan
from repro.ncore.config import CHA_NCORE

if TYPE_CHECKING:
    from repro.ncore.codegen import MacroKernelSet


@dataclass
class KernelInvocation:
    """One lowered operation: which NKL kernel runs a node, and its cost."""

    node_name: str
    op: str
    kernel: str
    cycles: int
    macs: int = 0
    weight_bytes: int = 0
    output_tensor: str = ""
    meta: dict[str, Any] = field(default_factory=dict)
    lanes: int = CHA_NCORE.lanes  # SIMD width the kernel was lowered for

    @property
    def utilization(self) -> float:
        """MAC-lane utilization of this kernel (1.0 = all lanes busy)."""
        if self.cycles == 0:
            return 0.0
        return self.macs / (self.cycles * self.lanes)


@dataclass
class NcoreLoadable:
    """A compiled Ncore segment."""

    name: str
    segment: Segment
    memory_plan: MemoryPlan
    kernels: list[KernelInvocation] = field(default_factory=list)
    weight_image_bytes: int = 0

    @property
    def compute_cycles(self) -> int:
        return sum(k.cycles for k in self.kernels)

    def total_cycles(self, dma_bytes_per_cycle: float = 40.96) -> int:
        """Cycle estimate with weight DMA overlapped against compute.

        Pinned weights cost a one-time preload (not counted per inference).
        Streamed weights prefetch one layer ahead; a layer stalls only when
        its weight DMA outlives the previous layer's compute.
        """
        total = 0
        previous_compute = 0
        for kernel in self.kernels:
            stall = 0
            if not self.memory_plan.weights_pinned and kernel.weight_bytes:
                dma_cycles = int(np.ceil(kernel.weight_bytes / dma_bytes_per_cycle))
                stall = max(0, dma_cycles - previous_compute)
            total += kernel.cycles + stall
            previous_compute = kernel.cycles
        return total

    def seconds(self, clock_hz: float = 2.5e9, dma_bytes_per_cycle: float = 40.96) -> float:
        return self.total_cycles(dma_bytes_per_cycle) / clock_hz

    @property
    def mean_utilization(self) -> float:
        lane_cycles = sum(k.cycles * k.lanes for k in self.kernels)
        if lane_cycles == 0:
            return 0.0
        return sum(k.macs for k in self.kernels) / lane_cycles


@dataclass
class CompiledModel:
    """The full compilation result: segments in execution order.

    ``compile_info`` carries the compiler driver's provenance — the
    content-address key, pipeline id and per-stage change stats — when
    the model came through ``repro.compiler``; it stays empty for
    hand-assembled models.  ``macro_kernels`` is the Tier-3 step program
    of every covered segment (the ``codegen`` stage's output; ``None``
    for pipelines without one, e.g. O0/O1): the model is the whole
    artifact the runtime executes, so it travels, caches and pickles as
    one object.  Compiled models are treated as immutable artifacts once
    built (the compile cache hands the same object to every hit).
    """

    name: str
    graph: Graph
    segments: list[Segment]
    loadables: dict[int, NcoreLoadable] = field(default_factory=dict)  # by segment idx
    compile_info: dict[str, Any] = field(default_factory=dict)
    macro_kernels: "MacroKernelSet | None" = field(
        default=None, compare=False, repr=False
    )

    @property
    def ncore_segments(self) -> list[int]:
        return [i for i, s in enumerate(self.segments) if s.target == "ncore"]

    @property
    def x86_segments(self) -> list[int]:
        return [i for i, s in enumerate(self.segments) if s.target == "x86"]

    def ncore_cycles(self, dma_bytes_per_cycle: float = 40.96) -> int:
        return sum(
            self.loadables[i].total_cycles(dma_bytes_per_cycle)
            for i in self.ncore_segments
            if i in self.loadables
        )

    @property
    def streamed_weight_bytes(self) -> int:
        """Weight bytes DMA-streamed per inference (pinned images excluded)."""
        return sum(
            loadable.weight_image_bytes
            for i in self.ncore_segments
            if (loadable := self.loadables.get(i)) is not None
            and not loadable.memory_plan.weights_pinned
        )

    def ncore_cycles_batched(
        self, batch: int, dma_bytes_per_cycle: float = 40.96
    ) -> float:
        """Per-item Ncore cycles with a batch amortizing streamed weights.

        Streamed weights are fetched once per batch while compute scales
        with the batch — "a batch size of 64 to increase the arithmetic
        intensity" (section VI-A) is exactly this amortization.  Pinned
        weights never stream, so batching changes nothing for them.
        """
        if batch < 1:
            raise ValueError("batch must be at least 1")
        compute = sum(
            self.loadables[i].compute_cycles
            for i in self.ncore_segments
            if i in self.loadables
        )
        dma = self.streamed_weight_bytes / dma_bytes_per_cycle
        return (max(compute * batch, dma) + min(compute, dma)) / batch

    def summary(self) -> str:
        """Human-readable compilation report (utilization, DMA, placement)."""
        lines = [f"CompiledModel {self.name!r}: {len(self.segments)} segments"]
        for i, segment in enumerate(self.segments):
            line = f"  [{i}] {segment.target:<5} {len(segment.nodes):>3} nodes"
            if i in self.loadables:
                loadable = self.loadables[i]
                pinned = "pinned" if loadable.memory_plan.weights_pinned else "streamed"
                line += (
                    f"  {loadable.compute_cycles:>9} cycles"
                    f"  util {loadable.mean_utilization:5.1%}"
                    f"  weights {pinned}"
                )
            lines.append(line)
        return "\n".join(lines)


def render_partition(model: CompiledModel, max_nodes_per_segment: int = 6) -> str:
    """A Fig. 9-style rendering of the delegate's graph modification:
    which subgraphs run on Ncore, which fall back to x86."""
    lines = [f"Delegate partition of {model.name!r}:"]
    for index, segment in enumerate(model.segments):
        marker = "[Ncore]" if segment.target == "ncore" else "[ x86 ]"
        lines.append(f"  {marker} segment {index} ({len(segment.nodes)} nodes)")
        shown = segment.nodes[:max_nodes_per_segment]
        for node in shown:
            lines.append(f"      {node.op:<18} {node.name}")
        if len(segment.nodes) > len(shown):
            lines.append(f"      ... {len(segment.nodes) - len(shown)} more")
    return "\n".join(lines)
