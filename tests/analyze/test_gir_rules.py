"""One seeded violation per GIR / quantization / layout analyzer rule.

Each test builds a fixture graph carrying exactly the defect the rule
targets and asserts the emitted diagnostic's rule id and location.
"""

import numpy as np
import pytest

from repro.analyze import Severity, analyze_graph
from repro.dtypes import ChannelQuantParams, NcoreDType, QuantParams
from repro.graph.gir import Graph, Node, Tensor, TensorType
from tests.helpers import by_rule

UINT8 = NcoreDType.UINT8
INT8 = NcoreDType.INT8


def _find(report, rule_id):
    found = by_rule(report, rule_id)
    assert found, f"no {rule_id} in {[d.rule for d in report]}"
    return found[0]


def _relu_graph(out_shape=(1, 8), out_dtype="float32"):
    graph = Graph("fixture")
    graph.add_input("x", TensorType((1, 8)))
    graph.add_tensor(Tensor("y", TensorType(out_shape, out_dtype)))
    graph.add_node(Node("r0", "relu", ["x"], ["y"]))
    graph.mark_output("y")
    return graph


class TestStructuralRules:
    def test_clean_graph_has_no_findings(self):
        assert len(analyze_graph(_relu_graph())) == 0

    def test_unknown_tensor(self):
        graph = _relu_graph()
        # bypass add_node, which rejects this edit at insert time
        graph.nodes.append(Node("r1", "relu", ["ghost"], ["y"]))
        finding = _find(analyze_graph(graph), "gir.unknown-tensor")
        assert finding.location.element == "r1"
        assert finding.severity is Severity.ERROR

    def test_duplicate_node(self):
        graph = _relu_graph()
        graph.nodes.append(Node("r0", "relu", ["x"], ["y"]))
        finding = _find(analyze_graph(graph), "gir.duplicate-node")
        assert finding.location.element == "r0"

    def test_topology(self):
        graph = Graph("fixture")
        graph.add_input("x", TensorType((1, 8)))
        graph.add_tensor(Tensor("y", TensorType((1, 8))))
        graph.add_tensor(Tensor("z", TensorType((1, 8))))
        # r1 reads y before r0 produces it
        graph.nodes.append(Node("r1", "relu", ["y"], ["z"]))
        graph.nodes.append(Node("r0", "relu", ["x"], ["y"]))
        graph.mark_output("z")
        finding = _find(analyze_graph(graph), "gir.topology")
        assert finding.location.element == "r1"

    def test_multi_producer(self):
        graph = _relu_graph()
        graph.add_node(Node("r1", "relu", ["x"], ["y"]))
        finding = _find(analyze_graph(graph), "gir.multi-producer")
        assert finding.location.element == "y"

    def test_dangling_output(self):
        graph = _relu_graph()
        graph.add_tensor(Tensor("ghost", TensorType((1, 8))))
        graph.mark_output("ghost")
        finding = _find(analyze_graph(graph), "gir.dangling-output")
        assert finding.location.element == "ghost"

    def test_unknown_tensor_suppresses_type_checks(self):
        graph = _relu_graph(out_shape=(1, 9))  # would be a shape mismatch
        graph.nodes.append(Node("r1", "relu", ["ghost"], ["y"]))
        report = analyze_graph(graph)
        assert by_rule(report, "gir.unknown-tensor")
        assert not by_rule(report, "gir.shape-mismatch")


class TestTypeRules:
    def test_bad_op_signature(self):
        graph = Graph("fixture")
        graph.add_input("x", TensorType((1, 8, 8, 4)))
        graph.add_constant("w", np.zeros((3, 3, 4), np.float32))  # rank 3, not HWIO
        graph.add_tensor(Tensor("y", TensorType((1, 6, 6, 8))))
        graph.add_node(Node("c0", "conv2d", ["x", "w"], ["y"]))
        graph.mark_output("y")
        finding = _find(analyze_graph(graph), "gir.bad-op-signature")
        assert finding.location.element == "c0"

    def test_window_larger_than_padded_input(self):
        # A 5x5 window over an unpadded 2x2 input has no output: a bad
        # signature, reported, not a crash of the verifier.
        graph = Graph("fixture")
        graph.add_input("x", TensorType((1, 2, 2, 1)))
        graph.add_constant("w", np.ones((5, 5, 1, 1), np.float32))
        graph.add_tensor(Tensor("y", TensorType((1, 1, 1, 1))))
        graph.add_node(Node("c0", "conv2d", ["x", "w"], ["y"], {"padding": ((1, 0), (0, 1))}))
        graph.mark_output("y")
        finding = _find(analyze_graph(graph), "gir.bad-op-signature")
        assert finding.location.element == "c0"
        assert "5x5 window does not fit the padded 3x3 input" in finding.message

    def test_stride_not_positive(self):
        graph = Graph("fixture")
        graph.add_input("x", TensorType((1, 4, 4, 1)))
        graph.add_tensor(Tensor("y", TensorType((1, 3, 3, 1))))
        graph.add_node(Node("m0", "max_pool", ["x"], ["y"], {"ksize": (2, 2), "stride": (0, 1)}))
        graph.mark_output("y")
        finding = _find(analyze_graph(graph), "gir.bad-op-signature")
        assert finding.location.element == "m0"
        assert "stride (0, 1) is not positive" in finding.message

    def test_shape_mismatch(self):
        graph = _relu_graph(out_shape=(1, 9))
        finding = _find(analyze_graph(graph), "gir.shape-mismatch")
        assert finding.location.element == "y"

    def test_dtype_mismatch(self):
        graph = _relu_graph(out_dtype=UINT8)  # float in, integer out
        finding = _find(analyze_graph(graph), "gir.dtype-mismatch")
        assert finding.location.element == "y"

    def test_quantize_contract(self):
        graph = Graph("fixture")
        graph.add_input("x", TensorType((1, 8)))
        graph.add_tensor(Tensor("q", TensorType((1, 8), "float32")))  # no quant
        graph.add_node(Node("q0", "quantize", ["x"], ["q"]))
        graph.mark_output("q")
        findings = by_rule(analyze_graph(graph), "gir.quantize-contract")
        # float output AND missing quant params: two contract violations
        assert len(findings) == 2
        assert all(f.location.element == "q0" for f in findings)

    def test_dequantize_contract(self):
        graph = Graph("fixture")
        graph.add_input("x", TensorType((1, 8), UINT8))  # no quant params
        graph.add_tensor(Tensor("f", TensorType((1, 8), "float32")))
        graph.add_node(Node("d0", "dequantize", ["x"], ["f"]))
        graph.mark_output("f")
        assert _find(analyze_graph(graph), "gir.quantize-contract")


class TestLivenessRules:
    def test_dead_node_is_a_warning(self):
        graph = _relu_graph()
        graph.add_tensor(Tensor("unused", TensorType((1, 8))))
        graph.add_node(Node("dead", "relu", ["x"], ["unused"]))
        report = analyze_graph(graph)
        finding = _find(report, "gir.dead-node")
        assert finding.location.element == "dead"
        assert finding.severity is Severity.WARNING
        assert report.ok  # warnings never gate

    def test_duplicate_compute(self):
        graph = _relu_graph()
        graph.add_tensor(Tensor("y2", TensorType((1, 8))))
        graph.add_node(Node("r1", "relu", ["x"], ["y2"]))
        graph.mark_output("y2")
        finding = _find(analyze_graph(graph), "gir.duplicate-compute")
        assert finding.location.element == "r1"
        assert finding.severity is Severity.WARNING


class TestQuantRules:
    def _graph_with_quant(self, dtype, quant):
        graph = Graph("fixture")
        graph.add_input("x", TensorType((1, 2, 2, 4), dtype)).quant = quant
        return graph

    def test_scale_nan(self):
        # NaN slips through QuantParams' own scale <= 0 check
        quant = QuantParams(scale=float("nan"), zero_point=0)
        graph = self._graph_with_quant(UINT8, quant)
        finding = _find(analyze_graph(graph), "qnt.scale")
        assert finding.location.element == "x"

    def test_scale_inf(self):
        quant = QuantParams(scale=float("inf"), zero_point=0)
        graph = self._graph_with_quant(UINT8, quant)
        assert _find(analyze_graph(graph), "qnt.scale")

    def test_zero_point_outside_tensor_dtype(self):
        # zp 200 is legal for the params' own UINT8 but not for the INT8 tensor
        quant = QuantParams(scale=0.1, zero_point=200, dtype=UINT8)
        graph = self._graph_with_quant(INT8, quant)
        finding = _find(analyze_graph(graph), "qnt.zero-point")
        assert finding.location.element == "x"

    def test_dtype_mismatch(self):
        quant = QuantParams(scale=0.1, zero_point=10, dtype=UINT8)
        graph = self._graph_with_quant(INT8, quant)
        finding = _find(analyze_graph(graph), "qnt.dtype-mismatch")
        assert finding.location.element == "x"

    def test_channel_count_mismatch(self):
        quant = ChannelQuantParams(
            scales=(0.1, 0.2), zero_points=(0, 0), axis=3, dtype=UINT8
        )
        graph = self._graph_with_quant(UINT8, quant)  # 4 channels, 2 params
        finding = _find(analyze_graph(graph), "qnt.channels")
        assert finding.location.element == "x"

    def test_channel_scale_and_zero_point(self):
        quant = ChannelQuantParams(
            scales=(0.1, float("nan"), 0.2, 0.3),
            zero_points=(0, 0, 300, 0),  # 300 outside uint8
            axis=3,
            dtype=UINT8,
        )
        graph = self._graph_with_quant(UINT8, quant)
        report = analyze_graph(graph)
        assert _find(report, "qnt.scale")
        assert _find(report, "qnt.zero-point")


class TestLayoutRules:
    def test_int32_at_segment_edge(self):
        graph = Graph("fixture")
        graph.add_input("ids", TensorType((1, 8), "int32"))
        graph.add_tensor(Tensor("s", TensorType((1, 8), "int32")))
        graph.add_node(Node("a0", "add", ["ids", "ids"], ["s"]))
        graph.mark_output("s")
        findings = by_rule(analyze_graph(graph), "lay.segment-dtype")
        assert {f.location.element for f in findings} == {"ids", "s"}

    def test_quantized_edge_without_params(self):
        graph = Graph("fixture")
        graph.add_input("x", TensorType((1, 8), UINT8))  # no quant params
        quant = QuantParams(scale=0.1, zero_point=0)
        graph.add_tensor(Tensor("y", TensorType((1, 8), UINT8), quant=quant))
        graph.add_node(Node("r0", "relu", ["x"], ["y"]))
        graph.mark_output("y")
        finding = _find(analyze_graph(graph), "lay.segment-quant")
        assert finding.location.element == "x"

    def test_high_rank_edge_is_a_warning(self):
        graph = Graph("fixture")
        graph.add_input("x", TensorType((1, 2, 2, 2, 8)))
        graph.add_tensor(Tensor("y", TensorType((1, 2, 2, 2, 8))))
        graph.add_node(Node("r0", "relu", ["x"], ["y"]))
        graph.mark_output("y")
        report = analyze_graph(graph)
        finding = _find(report, "lay.segment-rank")
        assert finding.severity is Severity.WARNING
        assert report.ok

    def test_suppress_drops_rule(self):
        graph = _relu_graph(out_shape=(1, 9))
        report = analyze_graph(graph, suppress=("gir.shape-mismatch",))
        assert not by_rule(report, "gir.shape-mismatch")


class TestValidateHardening:
    """Graph.validate() now rejects what the structural rules report."""

    def test_validate_rejects_unknown_tensor(self):
        from repro.graph.gir import GraphError

        graph = _relu_graph()
        graph.nodes.append(Node("r1", "relu", ["ghost"], ["y"]))
        with pytest.raises(GraphError, match="unknown tensor"):
            graph.validate()

    def test_validate_rejects_duplicate_node_name(self):
        from repro.graph.gir import GraphError

        graph = _relu_graph()
        graph.nodes.append(Node("r0", "relu", ["x"], ["y"]))
        with pytest.raises(GraphError, match="duplicate node name"):
            graph.validate()
