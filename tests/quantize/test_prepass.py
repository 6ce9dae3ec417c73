"""PTQ converts the graph the GCL would emit.

``quantize_graph`` first runs the conv-absorbing float passes (``fuse_pad``,
``fold_batch_norm``, ``fuse_bias_add``) on a copy, so a caller that skips
``optimize`` gets the segments the toolchain ships — and each absorbing
conv's output is quantized with the range of the tensor it replaced.
"""

import collections

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.graph import Graph, Node, Tensor, TensorType, execute_float
from repro.graph.passes import default_pipeline
from repro.models import PAPER_CHARACTERISTICS
from repro.quantize import calibrate, quantize_graph
from repro.runtime import execute_quantized
from tests.helpers import quant_range

#: model -> segments of the O2 compile, whichever side of PTQ ``optimize`` ran.
ZOO_SEGMENTS = {"mobilenet_v1": 2, "ssd_mobilenet_v1": 16, "resnet50_v15": 2}


def compiled_shape(key, optimize_first):
    info = PAPER_CHARACTERISTICS[key]
    graph = info.build()
    if optimize_first:
        default_pipeline().run(graph)
    ranges = calibrate(graph, [info.sample_input(graph, seed=1)])
    model = compile_graph(
        quantize_graph(graph, ranges), pipeline="O2", name=key, cache=None
    ).model
    return len(model.segments), collections.Counter(node.op for node in model.graph.nodes)


@pytest.mark.parametrize("key", sorted(ZOO_SEGMENTS))
def test_zoo_recipes_agree(key):
    ledger_order = compiled_shape(key, optimize_first=False)
    toolchain_order = compiled_shape(key, optimize_first=True)
    assert ledger_order == toolchain_order
    assert ledger_order[0] == ZOO_SEGMENTS[key]
    assert not {"batch_norm", "pad", "bias_add"} & set(ledger_order[1])


def bn_graph(beta=0.0, tap_conv_output=False, pool_first=False):
    """x -> conv (or, ``pool_first``, a 1x1 max_pool) -> batch_norm(beta) ->
    relu -> y, optionally with the producer's raw output marked as a second
    graph output."""
    rng = np.random.default_rng(7)
    channels = 3 if pool_first else 4
    g = Graph("bn")
    g.add_input("x", TensorType((1, 6, 6, 3)))
    g.add_constant("w", (rng.normal(size=(3, 3, 3, 4)) * 0.3).astype(np.float32))
    g.add_constant("mean", rng.normal(size=channels).astype(np.float32) * 0.1)
    g.add_constant("var", rng.uniform(0.5, 1.5, size=channels).astype(np.float32))
    g.add_constant("gamma", rng.uniform(0.8, 1.2, size=channels).astype(np.float32))
    g.add_constant("beta", np.full(channels, beta, dtype=np.float32))
    for name in ("c", "n", "y"):
        g.add_tensor(Tensor(name, TensorType((1, 6, 6, channels))))
    if pool_first:
        g.add_node(Node("prod", "max_pool", ["x"], ["c"], {"ksize": (1, 1), "stride": (1, 1)}))
    else:
        g.add_node(Node("prod", "conv2d", ["x", "w"], ["c"], {"padding": ((1, 1), (1, 1))}))
    g.add_node(Node("bn", "batch_norm", ["c", "mean", "var", "gamma", "beta"], ["n"]))
    g.add_node(Node("act", "relu", ["n"], ["y"]))
    g.mark_output("y")
    if tap_conv_output:
        g.mark_output("c")
    g.validate()
    return g


def feeds(seed):
    rng = np.random.default_rng(seed)
    return {"x": rng.uniform(-1, 1, size=(1, 6, 6, 3)).astype(np.float32)}


def ops(graph):
    return [node.op for node in graph.nodes]


class TestAbsorbingPrepass:
    def test_batch_norm_folds_and_the_input_graph_is_untouched(self):
        g = bn_graph()
        before = (ops(g), list(g.tensors), g.tensor("w").data.copy(), g.node("prod").inputs[:])
        qg = quantize_graph(g, calibrate(g, [feeds(0)]))
        assert ops(qg) == ["quantize", "conv2d", "relu", "dequantize"]
        assert len(qg.node("prod").inputs) == 3  # the folded bias
        assert (ops(g), list(g.tensors)) == before[:2]
        np.testing.assert_array_equal(g.tensor("w").data, before[2])
        assert g.node("prod").inputs == before[3]

    def test_the_absorbed_range_lands_on_the_conv_output(self):
        # beta = 40 moves the BN output far from the conv's own range:
        # quantizing the folded conv with the *conv's* observed range would
        # saturate every value near 40 to that range's top.
        g = bn_graph(beta=40.0)
        cal = calibrate(g, [feeds(i) for i in range(4)])
        assert cal.range_of("c")[1] < 10 < 30 < cal.range_of("n")[0]
        qg = quantize_graph(g, cal)
        conv_qp = qg.tensor(qg.node("prod").outputs[0]).quant
        lo, hi = quant_range(conv_qp)
        n_lo, n_hi = cal.range_of("n")
        assert lo <= 0.0 and hi == pytest.approx(n_hi, rel=0.02)
        want = execute_float(g, feeds(9))["y"]
        got = list(execute_quantized(qg, feeds(9)).values())[0]
        assert np.abs(got - want).max() < 2 * conv_qp.scale
        assert cal.range_of("n") == (n_lo, n_hi)  # the caller's calibration too

    def test_bias_add_then_batch_norm_hands_over_the_last_range(self):
        g = Graph("chain")
        rng = np.random.default_rng(3)
        g.add_input("x", TensorType((1, 6, 6, 3)))
        g.add_constant("w", (rng.normal(size=(1, 1, 3, 4)) * 0.3).astype(np.float32))
        g.add_constant("b", np.full(4, 5.0, dtype=np.float32))
        for name, value in (("mean", 0.0), ("var", 1.0), ("gamma", 1.0), ("beta", -20.0)):
            g.add_constant(name, np.full(4, value, dtype=np.float32))
        for name in ("c", "a", "n"):
            g.add_tensor(Tensor(name, TensorType((1, 6, 6, 4))))
        g.add_node(Node("conv", "conv2d", ["x", "w"], ["c"]))
        g.add_node(Node("bias", "bias_add", ["c", "b"], ["a"]))
        g.add_node(Node("bn", "batch_norm", ["a", "mean", "var", "gamma", "beta"], ["n"]))
        g.mark_output("n")
        cal = calibrate(g, [feeds(i) for i in range(3)])
        qg = quantize_graph(g, cal)
        assert ops(qg) == ["quantize", "conv2d", "dequantize"]
        lo, _ = quant_range(qg.tensor(qg.node("conv").outputs[0]).quant)
        assert lo == pytest.approx(cal.range_of("n")[0], rel=0.02)  # not "a"'s, not "c"'s
        want = execute_float(g, feeds(9))["n"]
        got = list(execute_quantized(qg, feeds(9)).values())[0]
        assert np.abs(got - want).max() < 0.1

    def test_explicit_pad_folds_into_the_conv(self):
        g = Graph("padded")
        rng = np.random.default_rng(5)
        g.add_input("x", TensorType((1, 6, 6, 3)))
        g.add_constant("w", (rng.normal(size=(3, 3, 3, 4)) * 0.3).astype(np.float32))
        g.add_tensor(Tensor("p", TensorType((1, 8, 8, 3))))
        g.add_tensor(Tensor("y", TensorType((1, 6, 6, 4))))
        g.add_node(Node("pad", "pad", ["x"], ["p"], {"padding": ((1, 1), (1, 1))}))
        g.add_node(Node("conv", "conv2d", ["p", "w"], ["y"]))
        g.mark_output("y")
        qg = quantize_graph(g, calibrate(g, [feeds(0)]))
        assert ops(qg) == ["quantize", "conv2d", "dequantize"]
        assert qg.node("conv").attrs["padding"] == ((1, 1), (1, 1))
        assert g.node("conv").attr("padding") is None and ops(g) == ["pad", "conv2d"]

    @pytest.mark.parametrize(
        "kwargs", [{"tap_conv_output": True}, {"pool_first": True}],
        ids=["two-consumers", "non-conv-producer"],
    )
    def test_an_unabsorbable_batch_norm_stays_a_float_island(self, kwargs):
        g = bn_graph(**kwargs)
        qg = quantize_graph(g, calibrate(g, [feeds(0)]))
        island = ops(qg)[ops(qg).index("batch_norm") - 1: ops(qg).index("batch_norm") + 2]
        assert island == ["dequantize", "batch_norm", "quantize"]
        assert len(qg.node("prod").inputs) == len(g.node("prod").inputs)  # nothing folded in
        # ... and the producer keeps its own observed range.
        cal = calibrate(g, [feeds(0)])
        produced = qg.tensor(qg.node("prod").outputs[0]).quant
        if not kwargs.get("pool_first"):  # pools share their input's params
            assert quant_range(produced)[1] == pytest.approx(cal.range_of("c")[1], rel=0.02)

    def test_a_pad_with_two_consumers_stays_a_float_island(self):
        g = Graph("shared-pad")
        rng = np.random.default_rng(5)
        g.add_input("x", TensorType((1, 6, 6, 3)))
        g.add_constant("w", (rng.normal(size=(3, 3, 3, 4)) * 0.3).astype(np.float32))
        g.add_tensor(Tensor("p", TensorType((1, 8, 8, 3))))
        g.add_tensor(Tensor("y", TensorType((1, 6, 6, 4))))
        g.add_node(Node("pad", "pad", ["x"], ["p"], {"padding": ((1, 1), (1, 1))}))
        g.add_node(Node("conv", "conv2d", ["p", "w"], ["y"]))
        g.mark_output("y")
        g.mark_output("p")
        qg = quantize_graph(g, calibrate(g, [feeds(0)]))
        assert ops(qg) == ["pad", "quantize", "conv2d", "dequantize"]
        assert "padding" not in qg.node("conv").attrs
