"""Tests for lowering GIR segments to Ncore Loadables."""

import numpy as np
import pytest

from repro.graph import Graph, Node, Tensor, TensorType, partition
from repro.nkl import lower_segment
from repro.nkl.lower import _node_dtype
from repro.dtypes import NcoreDType
from tests.helpers import CHA_DMA_BYTES_PER_CYCLE


def conv_pool_graph():
    g = Graph("lower_test")
    g.add_input("x", TensorType((1, 16, 16, 8), NcoreDType.UINT8))
    g.add_constant("w", np.zeros((3, 3, 8, 16), np.int8))
    g.add_tensor(Tensor("c", TensorType((1, 16, 16, 16), NcoreDType.UINT8)))
    g.add_tensor(Tensor("p", TensorType((1, 8, 8, 16), NcoreDType.UINT8)))
    g.add_node(Node("conv", "conv2d", ["x", "w"], ["c"], {"padding": ((1, 1), (1, 1))}))
    g.add_node(Node("pool", "max_pool", ["c"], ["p"], {"ksize": (2, 2), "stride": (2, 2)}))
    g.mark_output("p")
    return g


class TestLowerSegment:
    def test_kernels_in_node_order(self):
        g = conv_pool_graph()
        (segment,) = partition(g)
        loadable = lower_segment(g, segment)
        assert [k.node_name for k in loadable.kernels] == ["conv", "pool"]
        assert [k.kernel for k in loadable.kernels] == ["conv2d", "pool"]

    def test_cycles_and_macs_recorded(self):
        g = conv_pool_graph()
        (segment,) = partition(g)
        loadable = lower_segment(g, segment)
        conv = loadable.kernels[0]
        assert conv.cycles > 0
        assert conv.macs == 16 * 16 * 16 * 3 * 3 * 8
        assert loadable.kernels[1].macs == 0  # pooling moves, no MACs

    def test_weight_bytes_from_constants(self):
        g = conv_pool_graph()
        (segment,) = partition(g)
        loadable = lower_segment(g, segment)
        assert loadable.kernels[0].weight_bytes == 3 * 3 * 8 * 16
        assert loadable.weight_image_bytes == 3 * 3 * 8 * 16

    def test_memory_plan_attached(self):
        g = conv_pool_graph()
        (segment,) = partition(g)
        loadable = lower_segment(g, segment)
        assert loadable.memory_plan.weights_pinned  # 1 KB of weights
        assert "x" in loadable.memory_plan.data_allocs

    def test_x86_segment_rejected(self):
        g = Graph()
        g.add_input("x", TensorType((4, 4)))
        g.add_tensor(Tensor("y", TensorType((4, 4))))
        g.add_node(Node("s", "softmax", ["x"], ["y"]))
        g.mark_output("y")
        (segment,) = partition(g)
        assert segment.target == "x86"
        with pytest.raises(ValueError):
            lower_segment(g, segment)

    def test_float_nodes_lower_as_bf16(self):
        # Float32 ops execute on Ncore as bfloat16 (the GNMT path).
        g = Graph()
        g.add_input("x", TensorType((1, 64)))
        g.add_constant("w", np.zeros((64, 64), np.float32))
        g.add_tensor(Tensor("y", TensorType((1, 64))))
        g.add_node(Node("fc", "fully_connected", ["x", "w"], ["y"]))
        g.mark_output("y")
        assert _node_dtype(g, g.node("fc")) is NcoreDType.BF16
        (segment,) = partition(g)
        loadable = lower_segment(g, segment)
        assert loadable.kernels[0].meta["dtype"] == "bf16"

    def test_utilization_meta(self):
        g = conv_pool_graph()
        (segment,) = partition(g)
        loadable = lower_segment(g, segment)
        assert 0.0 < loadable.kernels[0].meta["utilization"] <= 1.0
        assert 0.0 < loadable.mean_utilization <= 1.0

    def test_dma_overlap_model(self):
        # With pinned weights, total == compute; forcing streaming can
        # only add stall cycles.
        g = conv_pool_graph()
        (segment,) = partition(g)
        loadable = lower_segment(g, segment)
        assert loadable.total_cycles(CHA_DMA_BYTES_PER_CYCLE) == loadable.compute_cycles
        loadable.memory_plan.weights_pinned = False
        assert loadable.total_cycles(CHA_DMA_BYTES_PER_CYCLE) >= loadable.compute_cycles
