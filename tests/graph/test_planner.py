"""Tests for scratchpad memory planning and weight scheduling."""

import numpy as np
import pytest

from repro.analyze import analyze_loadable
from repro.graph import Graph, Node, Tensor, TensorType, partition, plan_memory
from repro.graph.planner import PlanningError, RowRange
from repro.ncore import NcoreConfig
from repro.nkl import lower_segment


def chain_graph(layers=3, features=1024, weight_mb_per_layer=1.0):
    """fc chain with configurable weight footprint."""
    g = Graph("chain")
    g.add_input("x", TensorType((1, features)))
    rows = int(weight_mb_per_layer * 1024 * 1024 / 4)  # float32 elements
    in_features = rows // features
    prev = "x"
    for i in range(layers):
        w = f"w{i}"
        out = f"t{i}"
        g.add_constant(
            w, np.zeros((features, in_features * features // features), np.float32)
        )
        # Use a plain (features, features)-ish weight sized to the target MB.
        g.tensors[w].data = np.zeros(
            (features, max(1, rows // features)), dtype=np.float32
        )
        g.tensors[w].type = TensorType(g.tensors[w].data.shape, "float32")
        g.add_tensor(Tensor(out, TensorType((1, g.tensors[w].data.shape[1]))))
        g.add_node(Node(f"fc{i}", "fully_connected", [prev, w], [out]))
        prev = out
        features = g.tensors[w].data.shape[1]
    g.mark_output(prev)
    return g


def biased_chain(widths=(64,) * 7):
    """fc chain, ``widths[i] -> widths[i + 1]`` features at layer ``i``,
    where every layer reads a weight and a bias constant."""
    g = Graph("biased")
    g.add_input("x", TensorType((1, widths[0])))
    prev = "x"
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        g.add_constant(f"w{i}", np.zeros((fan_in, fan_out), np.float32))
        g.add_constant(f"b{i}", np.zeros((fan_out,), np.float32))
        g.add_tensor(Tensor(f"t{i}", TensorType((1, fan_out))))
        g.add_node(Node(f"fc{i}", "fully_connected", [prev, f"w{i}", f"b{i}"], [f"t{i}"]))
        prev = f"t{i}"
    g.mark_output(prev)
    return g


def small_graph():
    g = Graph()
    g.add_input("x", TensorType((1, 32, 32, 8)))
    g.add_constant("w", np.zeros((3, 3, 8, 8), np.float32))
    g.add_tensor(Tensor("a", TensorType((1, 32, 32, 8))))
    g.add_tensor(Tensor("b", TensorType((1, 32, 32, 8))))
    g.add_node(Node("c1", "conv2d", ["x", "w"], ["a"], {"padding": ((1, 1), (1, 1))}))
    g.add_node(Node("c2", "conv2d", ["a", "w"], ["b"], {"padding": ((1, 1), (1, 1))}))
    g.mark_output("b")
    return g


class TestActivationAllocation:
    def test_allocations_do_not_overlap_while_live(self):
        g = small_graph()
        (segment,) = partition(g)
        plan = plan_memory(g, segment)
        # x and a are simultaneously live (conv c1), a and b likewise.
        for pair in (("x", "a"), ("a", "b")):
            r0, r1 = plan.data_allocs[pair[0]], plan.data_allocs[pair[1]]
            assert r0.end <= r1.start or r1.end <= r0.start

    def test_dead_tensor_rows_reused(self):
        g = small_graph()
        (segment,) = partition(g)
        plan = plan_memory(g, segment)
        # x dies after c1; b can reuse its rows.
        assert plan.data_allocs["b"].start == plan.data_allocs["x"].start

    def test_capacity_exceeded_raises(self):
        g = small_graph()
        (segment,) = partition(g)
        with pytest.raises(PlanningError):
            plan_memory(g, segment, NcoreConfig(sram_rows=2))


class TestWeightPinning:
    def test_small_weights_pinned(self):
        # The MobileNet case: weights fit -> promoted to persistent.
        g = chain_graph(layers=3, weight_mb_per_layer=1.0)
        (segment,) = partition(g)
        plan = plan_memory(g, segment)
        assert plan.weights_pinned
        assert plan.prefetches == []
        assert len(plan.weight_allocs) == 3

    def test_pinned_weights_do_not_overlap(self):
        g = chain_graph(layers=3, weight_mb_per_layer=1.0)
        (segment,) = partition(g)
        plan = plan_memory(g, segment)
        ranges = sorted(plan.weight_allocs.values(), key=lambda r: r.start)
        for a, b in zip(ranges, ranges[1:], strict=False):
            assert a.end <= b.start

    def test_large_weights_streamed_with_prefetch(self):
        # The ResNet case: > 8 MB of weights -> double-buffered streaming.
        g = chain_graph(layers=6, weight_mb_per_layer=2.5)
        (segment,) = partition(g)
        plan = plan_memory(g, segment)
        assert not plan.weights_pinned
        assert len(plan.prefetches) == 6
        # Prefetches are as early as possible: one layer ahead.
        for prefetch in plan.prefetches:
            assert prefetch.issue_at_node <= max(0, prefetch.needed_at_node - 1)

    def test_oversized_single_layer_tiled(self):
        # A layer whose weights exceed half the weight RAM is split into
        # chunked prefetches (intra-layer weight tiling).
        g = chain_graph(layers=2, weight_mb_per_layer=5.0)
        (segment,) = partition(g)
        plan = plan_memory(g, segment)
        assert not plan.weights_pinned
        assert len(plan.prefetches) > 2  # more prefetches than layers
        half = 2048 // 2
        assert all(r.rows <= half for r in plan.weight_allocs.values())
        # The chunked transfers still move every byte exactly once.
        total = sum(p.num_bytes for p in plan.prefetches)
        weight_bytes = sum(
            g.tensor(n).type.num_bytes
            for n in g.tensors
            if g.tensor(n).is_constant
        )
        assert total >= weight_bytes


class TestDoubleBuffer:
    # 64x64 float32 weights are 4 rows, biases 1 row: 30 rows of weights
    # through a 16-row RAM, so the chain streams through two 8-row halves.
    CONFIG = NcoreConfig(sram_rows=16)

    def _streamed(self):
        g = biased_chain()
        (segment,) = partition(g)
        plan = plan_memory(g, segment, self.CONFIG)
        assert not plan.weights_pinned
        return g, segment, plan

    def test_consecutive_layers_alternate_halves(self):
        _, _, plan = self._streamed()
        half = self.CONFIG.sram_rows // 2
        halves: dict[int, set[int]] = {}
        for prefetch in plan.prefetches:
            # Every transfer lies within one half of the weight RAM.
            side = prefetch.rows.start // half
            assert prefetch.rows.end <= (side + 1) * half
            halves.setdefault(prefetch.needed_at_node, set()).add(side)
        assert list(halves) == list(range(6))
        # One node's weight and bias share a half; neighbours differ.
        assert all(len(sides) == 1 for sides in halves.values())
        sides = [next(iter(halves[node])) for node in range(6)]
        assert sides == [0, 1, 0, 1, 0, 1]
        # Alternation keeps every transfer one layer ahead.
        assert [p.issue_at_node for p in plan.prefetches] == [
            max(0, p.needed_at_node - 1) for p in plan.prefetches
        ]

    def test_streamed_chain_analyzes_clean(self):
        g, segment, plan = self._streamed()
        loadable = lower_segment(g, segment, self.CONFIG, plan=plan)
        report = analyze_loadable(g, loadable, self.CONFIG)
        assert len(report) == 0, [d.render() for d in report]

    def test_tiled_layers_issue_where_their_half_is_free(self):
        # 64x384 and 384x64 float32 weights are 24 rows each, tiled into
        # three 8-row chunks that alternate halves (each bias spills).
        g = biased_chain((64, 64, 384, 64))
        (segment,) = partition(g)
        plan = plan_memory(g, segment, self.CONFIG)
        loadable = lower_segment(g, segment, self.CONFIG, plan=plan)
        assert len(analyze_loadable(g, loadable, self.CONFIG)) == 0
        # fc1's first chunk looks ahead into the half fc0 does not read;
        # its spill into fc0's half waits for fc0 to run, and nothing
        # queued behind that transfer issues earlier.  fc1 fills both
        # halves, so fc2 cannot look ahead at all.
        assert [(p.tensor, p.issue_at_node) for p in plan.prefetches] == [
            ("w0", 0), ("b0", 0),
            ("w1#chunk0", 0), ("w1#chunk1", 1), ("w1#chunk2", 1), ("b1", 1),
            ("w2#chunk0", 2), ("w2#chunk1", 2), ("w2#chunk2", 2), ("b2", 2),
        ]


class TestRowRange:
    def test_end(self):
        assert RowRange(10, 5).end == 15
