"""Tests for the GCL optimization passes.

Every folding/fusion test checks *numerical equivalence*: the optimized
graph must compute the same function as the original.
"""

import numpy as np

from repro.graph import Graph, Node, Tensor, TensorType, execute_float
from repro.graph.passes import (
    constant_fold,
    dead_code_elimination,
    default_pipeline,
    fold_batch_norm,
    fuse_activations,
    fuse_bias_add,
    fuse_pad,
)

def _rng():
    return np.random.default_rng(7)


RNG = _rng()


def conv_bn_relu_graph():
    """conv2d -> batch_norm -> relu, the classic foldable pattern."""
    rng = _rng()
    g = Graph("convbn")
    g.add_input("x", TensorType((1, 6, 6, 3)))
    g.add_constant("w", rng.normal(size=(3, 3, 3, 8)).astype(np.float32))
    g.add_constant("mean", rng.normal(size=8).astype(np.float32))
    g.add_constant("var", rng.uniform(0.5, 2.0, size=8).astype(np.float32))
    g.add_constant("gamma", rng.normal(size=8).astype(np.float32))
    g.add_constant("beta", rng.normal(size=8).astype(np.float32))
    g.add_tensor(Tensor("c", TensorType((1, 6, 6, 8))))
    g.add_tensor(Tensor("b", TensorType((1, 6, 6, 8))))
    g.add_tensor(Tensor("r", TensorType((1, 6, 6, 8))))
    g.add_node(Node("conv", "conv2d", ["x", "w"], ["c"], {"padding": ((1, 1), (1, 1))}))
    g.add_node(
        Node("bn", "batch_norm", ["c", "mean", "var", "gamma", "beta"], ["b"], {"epsilon": 1e-3})
    )
    g.add_node(Node("relu", "relu", ["b"], ["r"]))
    g.mark_output("r")
    return g


def outputs_match(before: Graph, after: Graph, feeds):
    out_a = execute_float(before, feeds)
    out_b = execute_float(after, feeds)
    assert set(out_a) == set(out_b) or len(out_a) == len(out_b)
    for (_ka, va), (_kb, vb) in zip(
        sorted(out_a.items()), sorted(out_b.items()), strict=True
    ):
        np.testing.assert_allclose(va, vb, rtol=1e-4, atol=1e-5)


class TestFoldBatchNorm:
    def test_bn_removed_and_equivalent(self):
        feeds = {"x": RNG.normal(size=(1, 6, 6, 3)).astype(np.float32)}
        reference = conv_bn_relu_graph()
        expected = execute_float(reference, feeds)

        g = conv_bn_relu_graph()
        assert fold_batch_norm(g) is True
        g.validate()
        assert g.find_nodes("batch_norm") == []
        assert len(g.node("conv").inputs) == 3  # gained a bias
        actual = execute_float(g, feeds)
        np.testing.assert_allclose(
            list(actual.values())[0], list(expected.values())[0], rtol=1e-4, atol=1e-5
        )

    def test_not_folded_when_conv_output_shared(self):
        g = conv_bn_relu_graph()
        # Add a second consumer of the conv output.
        g.add_tensor(Tensor("side", TensorType((1, 6, 6, 8))))
        g.add_node(Node("side_relu", "relu", ["c"], ["side"]))
        g.mark_output("side")
        assert fold_batch_norm(g) is False

    def test_not_folded_when_conv_output_is_a_graph_output(self):
        g = conv_bn_relu_graph()
        g.mark_output("c")  # folding would change what the graph returns as "c"
        assert fold_batch_norm(g) is False

    def test_not_folded_into_a_conv_that_already_activates(self):
        g = conv_bn_relu_graph()
        g.node("conv").attrs["activation"] = "relu"  # bn(relu(conv)) != relu(conv')
        assert fold_batch_norm(g) is False

    def test_bn_without_conv_producer_untouched(self):
        g = Graph()
        g.add_input("x", TensorType((1, 4, 4, 2)))
        for name in ("mean", "var", "gamma", "beta"):
            g.add_constant(name, np.ones(2, dtype=np.float32))
        g.add_tensor(Tensor("y", TensorType((1, 4, 4, 2))))
        g.add_node(Node("bn", "batch_norm", ["x", "mean", "var", "gamma", "beta"], ["y"]))
        g.mark_output("y")
        assert fold_batch_norm(g) is False


class TestFusePad:
    def _pad_conv_graph(self):
        # The ResNet-50 MLPerf reference pattern: explicit pad before conv.
        rng = _rng()
        g = Graph()
        g.add_input("x", TensorType((1, 6, 6, 3)))
        g.add_constant("w", rng.normal(size=(3, 3, 3, 4)).astype(np.float32))
        g.add_tensor(Tensor("p", TensorType((1, 8, 8, 3))))
        g.add_tensor(Tensor("y", TensorType((1, 6, 6, 4))))
        g.add_node(Node("pad", "pad", ["x"], ["p"], {"padding": ((1, 1), (1, 1))}))
        g.add_node(Node("conv", "conv2d", ["p", "w"], ["y"]))
        g.mark_output("y")
        return g

    def test_pad_absorbed_into_conv(self):
        feeds = {"x": RNG.normal(size=(1, 6, 6, 3)).astype(np.float32)}
        reference = self._pad_conv_graph()
        g = self._pad_conv_graph()
        assert fuse_pad(g) is True
        assert g.find_nodes("pad") == []
        assert g.node("conv").attrs["padding"] == ((1, 1), (1, 1))
        outputs_match(reference, g, feeds)

    def test_nonzero_pad_not_fused(self):
        g = self._pad_conv_graph()
        g.node("pad").attrs["value"] = -1.0
        assert fuse_pad(g) is False


class TestFuseBiasAndActivation:
    def _graph(self):
        rng = _rng()
        g = Graph()
        g.add_input("x", TensorType((1, 10)))
        g.add_constant("w", rng.normal(size=(10, 4)).astype(np.float32))
        g.add_constant("b", rng.normal(size=4).astype(np.float32))
        g.add_tensor(Tensor("m", TensorType((1, 4))))
        g.add_tensor(Tensor("a", TensorType((1, 4))))
        g.add_tensor(Tensor("r", TensorType((1, 4))))
        g.add_node(Node("fc", "fully_connected", ["x", "w"], ["m"]))
        g.add_node(Node("bias", "bias_add", ["m", "b"], ["a"]))
        g.add_node(Node("act", "relu", ["a"], ["r"]))
        g.mark_output("r")
        return g

    def test_bias_then_activation_fuse_into_fc(self):
        feeds = {"x": RNG.normal(size=(1, 10)).astype(np.float32)}
        reference = self._graph()
        expected = execute_float(reference, feeds)
        g = self._graph()
        assert fuse_bias_add(g) is True
        assert fuse_activations(g) is True
        assert len(g.nodes) == 1
        fc = g.node("fc")
        assert len(fc.inputs) == 3
        assert fc.attrs["activation"] == "relu"
        actual = execute_float(g, feeds)
        np.testing.assert_allclose(
            list(actual.values())[0], list(expected.values())[0], rtol=1e-5
        )

    def test_bias_not_fused_past_an_activation_or_a_graph_output(self):
        g = self._graph()
        g.node("fc").attrs["activation"] = "relu"  # relu(fc) + b != relu(fc + b)
        assert fuse_bias_add(g) is False
        g = self._graph()
        g.mark_output("m")
        assert fuse_bias_add(g) is False

    def test_nonconstant_bias_not_fused(self):
        g = self._graph()
        g.tensor("b").data = None  # now an activation
        g.inputs.append("b")
        assert fuse_bias_add(g) is False


class TestCleanup:
    def test_constant_fold(self):
        g = Graph()
        g.add_constant("a", np.array([1.0, 2.0], np.float32))
        g.add_constant("b", np.array([3.0, 4.0], np.float32))
        g.add_tensor(Tensor("c", TensorType((2,))))
        g.add_node(Node("add", "add", ["a", "b"], ["c"]))
        g.mark_output("c")
        assert constant_fold(g) is True
        assert g.nodes == []
        np.testing.assert_array_equal(g.tensor("c").data, [4.0, 6.0])

    def test_dce_removes_unused_chain(self):
        g = Graph()
        g.add_input("x", TensorType((4,)))
        g.add_tensor(Tensor("dead1", TensorType((4,))))
        g.add_tensor(Tensor("dead2", TensorType((4,))))
        g.add_tensor(Tensor("live", TensorType((4,))))
        g.add_node(Node("d1", "relu", ["x"], ["dead1"]))
        g.add_node(Node("d2", "relu", ["dead1"], ["dead2"]))
        g.add_node(Node("keep", "tanh", ["x"], ["live"]))
        g.mark_output("live")
        assert dead_code_elimination(g) is True
        assert [n.name for n in g.nodes] == ["keep"]


class TestDefaultPipeline:
    def test_full_pipeline_on_conv_bn_relu(self):
        feeds = {"x": RNG.normal(size=(1, 6, 6, 3)).astype(np.float32)}
        reference = conv_bn_relu_graph()
        expected = execute_float(reference, feeds)
        g = conv_bn_relu_graph()
        sweeps = default_pipeline().run(g)
        assert sweeps >= 1
        # Everything collapses into one conv with bias + fused relu.
        assert len(g.nodes) == 1
        assert g.nodes[0].attrs["activation"] == "relu"
        actual = execute_float(g, feeds)
        np.testing.assert_allclose(
            list(actual.values())[0], list(expected.values())[0], rtol=1e-4, atol=1e-5
        )

    def test_pipeline_reaches_fixpoint(self):
        g = conv_bn_relu_graph()
        manager = default_pipeline()
        manager.run(g)
        # A second run changes nothing.
        assert manager.run(g) == 0


class TestCommonSubexpressionElimination:
    def _duplicated_graph(self):
        rng = _rng()
        g = Graph()
        g.add_input("x", TensorType((1, 8)))
        g.add_constant("w", rng.normal(size=(8, 4)).astype(np.float32))
        for name in ("a", "b", "s"):
            g.add_tensor(Tensor(name, TensorType((1, 4))))
        # Two identical matmuls feeding an add.
        g.add_node(Node("fc_a", "fully_connected", ["x", "w"], ["a"]))
        g.add_node(Node("fc_b", "fully_connected", ["x", "w"], ["b"]))
        g.add_node(Node("sum", "add", ["a", "b"], ["s"]))
        g.mark_output("s")
        return g

    def test_duplicate_node_merged(self):
        from repro.graph.passes import common_subexpression_elimination

        feeds = {"x": _rng().normal(size=(1, 8)).astype(np.float32)}
        reference = self._duplicated_graph()
        expected = execute_float(reference, feeds)
        g = self._duplicated_graph()
        assert common_subexpression_elimination(g) is True
        assert len(g.find_nodes("fully_connected")) == 1
        g.validate()
        actual = execute_float(g, feeds)
        np.testing.assert_allclose(
            list(actual.values())[0], list(expected.values())[0], rtol=1e-6
        )

    def test_different_attrs_not_merged(self):
        from repro.graph.passes import common_subexpression_elimination

        g = Graph()
        g.add_input("x", TensorType((1, 4, 4, 2)))
        g.add_tensor(Tensor("p1", TensorType((1, 2, 2, 2))))
        g.add_tensor(Tensor("p2", TensorType((1, 1, 1, 2))))
        g.add_node(Node("pool1", "max_pool", ["x"], ["p1"], {"ksize": (2, 2), "stride": (2, 2)}))
        g.add_node(Node("pool2", "max_pool", ["x"], ["p2"], {"ksize": (4, 4), "stride": (4, 4)}))
        g.mark_output("p1")
        g.mark_output("p2")
        assert common_subexpression_elimination(g) is False

    def test_in_default_pipeline(self):
        g = self._duplicated_graph()
        default_pipeline().run(g)
        assert len(g.find_nodes("fully_connected")) == 1
