"""Direct tests for the loadable cycle/stall model and reports."""

import pytest

from repro.graph.loadable import (
    KernelInvocation,
    NcoreLoadable,
)
from repro.graph.partitioner import Segment
from repro.graph.planner import MemoryPlan


def kernel(name, cycles, weight_bytes=0, macs=0):
    return KernelInvocation(
        node_name=name, op="conv2d", kernel="conv2d",
        cycles=cycles, macs=macs, weight_bytes=weight_bytes,
    )


def loadable(kernels, pinned=True):
    plan = MemoryPlan()
    plan.weights_pinned = pinned
    return NcoreLoadable(
        name="l", segment=Segment("ncore", []), memory_plan=plan, kernels=kernels
    )


class TestStallModel:
    def test_pinned_weights_have_no_stalls(self):
        l = loadable([kernel("a", 100, weight_bytes=10**9)], pinned=True)
        assert l.total_cycles() == 100

    def test_first_streamed_layer_pays_full_dma(self):
        # Nothing to hide behind: the first layer stalls for its whole DMA.
        import numpy as np

        l = loadable([kernel("a", 100, weight_bytes=4096)], pinned=False)
        dma = int(np.ceil(4096 / 40.96))
        assert l.total_cycles(40.96) == 100 + dma

    def test_prefetch_hides_behind_previous_compute(self):
        # Layer b's weights (100 DMA cycles) hide behind a's 1000 cycles.
        l = loadable(
            [kernel("a", 1000), kernel("b", 50, weight_bytes=4096)], pinned=False
        )
        assert l.total_cycles(40.96) == 1000 + 50

    def test_partial_stall_when_compute_too_short(self):
        # b needs ~100 DMA cycles but a only provides 60 of cover.
        import numpy as np

        l = loadable(
            [kernel("a", 60), kernel("b", 50, weight_bytes=4096)], pinned=False
        )
        dma = int(np.ceil(4096 / 40.96))
        assert l.total_cycles(40.96) == 60 + (dma - 60) + 50


class TestUtilization:
    def test_kernel_utilization(self):
        k = kernel("a", cycles=10, macs=10 * 4096)
        assert k.utilization == pytest.approx(1.0)
        assert kernel("b", cycles=10, macs=0).utilization == 0.0

    def test_mean_utilization_weights_by_cycles(self):
        l = loadable([
            kernel("a", cycles=10, macs=10 * 4096),   # 100% for 10 cycles
            kernel("b", cycles=30, macs=0),           # 0% for 30 cycles
        ])
        assert l.mean_utilization == pytest.approx(0.25)

    def test_empty_loadable(self):
        l = loadable([])
        assert l.mean_utilization == 0.0
        assert l.total_cycles() == 0
