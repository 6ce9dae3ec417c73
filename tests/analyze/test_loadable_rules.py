"""One seeded violation per Loadable analyzer rule.

Each test lowers a small quantized segment with ``verify=False`` and then
mutates the memory plan / prefetch schedule / kernel list to carry exactly
the defect the rule targets.
"""

import numpy as np
import pytest

from repro.analyze import AnalysisError, analyze_loadable, analyze_model
from repro.compiler import compile_graph
from repro.dtypes import NcoreDType, QuantParams
from repro.graph.gir import Graph, Node, Tensor, TensorType
from repro.graph.partitioner import Segment, partition
from repro.graph.planner import Prefetch, RowRange
from repro.ncore.config import NcoreConfig
from repro.nkl.lower import lower_segment

UINT8 = NcoreDType.UINT8
QP = QuantParams(scale=0.05, zero_point=128)


def _find(report, rule_id):
    found = report.by_rule(rule_id)
    assert found, f"no {rule_id} in {[d.rule for d in report]}"
    return found[0]


def _relu_chain():
    """x -> relu1 -> y -> relu2 -> z, all quantized uint8."""
    graph = Graph("ldb-fixture")
    ttype = TensorType((1, 4, 4, 16), UINT8)
    graph.add_input("x", ttype, quant=QP)
    graph.add_tensor(Tensor("y", ttype, quant=QP))
    graph.add_tensor(Tensor("z", ttype, quant=QP))
    graph.add_node(Node("relu1", "relu", ["x"], ["y"]))
    graph.add_node(Node("relu2", "relu", ["y"], ["z"]))
    graph.mark_output("z")
    return graph


def _fc_chain():
    """x -> fc1(w1) -> h -> fc2(w2) -> y -> relu -> z."""
    graph = Graph("fc-fixture")
    graph.add_input("x", TensorType((1, 64), UINT8), quant=QP)
    graph.add_constant("w1", np.ones((64, 64), np.uint8), quant=QP)
    graph.add_constant("w2", np.ones((64, 64), np.uint8), quant=QP)
    graph.add_tensor(Tensor("h", TensorType((1, 64), UINT8), quant=QP))
    graph.add_tensor(Tensor("y", TensorType((1, 64), UINT8), quant=QP))
    graph.add_tensor(Tensor("z", TensorType((1, 64), UINT8), quant=QP))
    graph.add_node(Node("fc1", "fully_connected", ["x", "w1"], ["h"]))
    graph.add_node(Node("fc2", "fully_connected", ["h", "w2"], ["y"]))
    graph.add_node(Node("relu", "relu", ["y"], ["z"]))
    graph.mark_output("z")
    return graph


def _lower(graph):
    (segment,) = partition(graph)
    assert segment.target == "ncore"
    return segment, lower_segment(graph, segment, verify=False)


class TestCleanLoadable:
    def test_lowered_segment_is_clean(self):
        graph = _relu_chain()
        _, loadable = _lower(graph)
        report = analyze_loadable(graph, loadable)
        assert report.ok and len(report) == 0

    def test_fc_segment_is_clean(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        assert analyze_loadable(graph, loadable).ok


class TestMemoryRules:
    def test_sram_overflow(self):
        graph = _relu_chain()
        _, loadable = _lower(graph)
        rows = NcoreConfig().sram_rows
        loadable.memory_plan.data_allocs["y"] = RowRange(rows - 2, 4)
        finding = _find(analyze_loadable(graph, loadable), "ldb.sram-overflow")
        assert finding.location.element == "y"

    def test_alloc_overlap(self):
        graph = _relu_chain()
        _, loadable = _lower(graph)
        # x (live 0..0) and y (live 0..1) overlap in time; alias their rows
        loadable.memory_plan.data_allocs["x"] = RowRange(0, 4)
        loadable.memory_plan.data_allocs["y"] = RowRange(2, 4)
        finding = _find(analyze_loadable(graph, loadable), "ldb.alloc-overlap")
        assert finding.location.element in ("x", "y")

    def test_unplaced_tensor(self):
        graph = _relu_chain()
        _, loadable = _lower(graph)
        del loadable.memory_plan.data_allocs["y"]
        findings = analyze_loadable(graph, loadable).by_rule("ldb.unplaced-tensor")
        # y is written by relu1 and read by relu2: two findings
        assert {f.location.element for f in findings} == {"relu1", "relu2"}

    def test_uninitialized_read(self):
        graph = _relu_chain()
        reversed_segment = Segment(
            "ncore", [graph.node("relu2"), graph.node("relu1")]
        )
        loadable = lower_segment(graph, reversed_segment, verify=False)
        finding = _find(
            analyze_loadable(graph, loadable), "ldb.uninitialized-read"
        )
        assert finding.location.element == "relu2"
        assert finding.location.index == 0


class TestWeightRules:
    def test_missing_weight_allocation(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        del loadable.memory_plan.weight_allocs["w1"]
        finding = _find(analyze_loadable(graph, loadable), "ldb.missing-weights")
        assert finding.location.element == "fc1"

    def test_streamed_weights_without_prefetch(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        plan = loadable.memory_plan
        plan.weights_pinned = False
        plan.prefetches = [Prefetch("w1", 0, 0, 64)]  # w2 never prefetched
        finding = _find(analyze_loadable(graph, loadable), "ldb.missing-weights")
        assert finding.location.element == "fc2"

    def test_late_prefetch(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        plan = loadable.memory_plan
        plan.weights_pinned = False
        plan.prefetches = [
            Prefetch("w1", 0, 0, 64),
            Prefetch("w2", 2, 1, 64),  # issued after the node that needs it
        ]
        finding = _find(analyze_loadable(graph, loadable), "ldb.late-prefetch")
        assert finding.location.element == "w2"
        assert finding.location.index == 1

    def test_prefetch_range(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        plan = loadable.memory_plan
        plan.weights_pinned = False
        plan.prefetches = [
            Prefetch("w1", 0, 0, 64),
            Prefetch("w2", 0, 7, 64),  # segment has only 3 nodes
        ]
        finding = _find(analyze_loadable(graph, loadable), "ldb.prefetch-range")
        assert finding.location.element == "w2"

    def test_dma_hazard(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        plan = loadable.memory_plan
        plan.weights_pinned = False
        plan.weight_allocs = {"w1": RowRange(0, 4), "w2": RowRange(2, 4)}
        plan.prefetches = [
            Prefetch("w1", 0, 1, 64),
            # issued (before node 0) while w1's rows are still unread
            Prefetch("w2", 0, 2, 64),
        ]
        finding = _find(analyze_loadable(graph, loadable), "ldb.dma-hazard")
        assert finding.location.element == "w2"


class TestKernelRules:
    def test_kernel_mismatch(self):
        graph = _relu_chain()
        _, loadable = _lower(graph)
        loadable.kernels.reverse()
        assert _find(analyze_loadable(graph, loadable), "ldb.kernel-mismatch")

    def test_missing_kernel(self):
        graph = _relu_chain()
        _, loadable = _lower(graph)
        loadable.kernels.pop()
        assert _find(analyze_loadable(graph, loadable), "ldb.kernel-mismatch")


class TestPipelineGate:
    """The acceptance criterion: illegal artifacts fail at compile time."""

    def test_lower_segment_rejects_bad_dataflow(self):
        graph = _relu_chain()
        reversed_segment = Segment(
            "ncore", [graph.node("relu2"), graph.node("relu1")]
        )
        with pytest.raises(AnalysisError) as exc_info:
            lower_segment(graph, reversed_segment)  # strict by default
        assert "ldb.uninitialized-read" in str(exc_info.value)

    def test_compile_model_rejects_bad_graph(self):
        graph = _relu_chain()
        # declare a wrong output shape after construction
        graph.tensors["z"] = Tensor("z", TensorType((1, 4, 4, 8), UINT8), quant=QP)
        with pytest.raises(AnalysisError) as exc_info:
            compile_graph(graph, pipeline="O0")
        assert "gir.shape-mismatch" in str(exc_info.value)

    def test_verify_opt_out_skips_the_gate(self):
        graph = _relu_chain()
        reversed_segment = Segment(
            "ncore", [graph.node("relu2"), graph.node("relu1")]
        )
        loadable = lower_segment(graph, reversed_segment, verify=False)
        assert loadable.kernels  # lowered despite the bad schedule

    def test_compile_model_clean_path(self):
        graph = _relu_chain()
        model = compile_graph(graph, pipeline="O0").model  # strict gate passes
        report = analyze_model(model)
        assert report.ok
