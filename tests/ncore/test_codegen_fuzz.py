"""Differential fuzzing of Tier-3 codegen against the interpreter.

The graph-level counterpart of ``test_fastpath_fuzz``: seeded random —
but legal — quantized graphs built from the quantizable op vocabulary
(conv/depthwise/fc with random strides, paddings, activations and
biases, pools, residual adds, channel concats, spatial means, reshapes),
each compiled at O2 and executed on both the per-node interpreter and
the Tier-3 macro-kernel dispatcher.  Every output must match
byte-for-byte, on the oracle-checked first dispatch and in the steady
state.
"""

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.dtypes import quantize
from repro.graph import Graph, Node, Tensor, TensorType
from repro.quantize import calibrate, quantize_graph
from repro.runtime import NcoreExecutor, execute_quantized

GRAPHS = 50


def _out_dim(size, k, stride, pad):
    return (size + pad[0] + pad[1] - k) // stride + 1


def random_float_graph(seed: int) -> Graph:
    """One random quantizable CNN-shaped graph."""
    rng = np.random.default_rng(seed)
    g = Graph(f"fuzz{seed}")
    c = int(rng.integers(1, 6))
    h = w = int(rng.integers(5, 10))
    g.add_input("x", TensorType((1, h, w, c)))
    cur, shape = "x", (1, h, w, c)
    counter = 0

    def fresh(new_shape):
        nonlocal counter
        counter += 1
        name = f"t{counter}"
        g.add_tensor(Tensor(name, TensorType(tuple(int(d) for d in new_shape))))
        return name

    def constant(array):
        nonlocal counter
        counter += 1
        name = f"c{counter}"
        g.add_constant(name, array.astype(np.float32))
        return name

    for _ in range(int(rng.integers(2, 6))):
        if len(shape) == 4:
            _, hh, ww, cc = shape
            choices = ["conv", "depthwise", "add"]
            if hh >= 2 and ww >= 2:
                choices += ["pool", "conv_strided"]
            if cc <= 8:
                choices.append("concat")
            if rng.random() < 0.25:
                choices.append("mean")
            op = rng.choice(choices)
            activation = str(rng.choice(["none", "relu", "relu6"]))
            if op in ("conv", "conv_strided"):
                k = int(rng.choice([1, 2, 3]))
                k = min(k, hh, ww)
                stride = 2 if op == "conv_strided" else 1
                pad = ((1, 1), (1, 1)) if (k == 3 and rng.random() < 0.5) \
                    else ((0, 0), (0, 0))
                oh = _out_dim(hh, k, stride, pad[0])
                ow = _out_dim(ww, k, stride, pad[1])
                if oh < 1 or ow < 1:
                    continue
                cout = int(rng.integers(1, 7))
                weights = constant(rng.normal(size=(k, k, cc, cout)) * 0.3)
                inputs = [cur, weights]
                if rng.random() < 0.5:
                    inputs.append(constant(rng.normal(size=cout) * 0.1))
                out = fresh((1, oh, ow, cout))
                g.add_node(Node(
                    f"n{counter}", "conv2d", inputs, [out],
                    {"stride": (stride, stride), "padding": pad,
                     "activation": activation},
                ))
                cur, shape = out, (1, oh, ow, cout)
            elif op == "depthwise":
                k = min(int(rng.choice([2, 3])), hh, ww)
                pad = ((1, 1), (1, 1)) if (k == 3 and rng.random() < 0.5) \
                    else ((0, 0), (0, 0))
                oh = _out_dim(hh, k, 1, pad[0])
                ow = _out_dim(ww, k, 1, pad[1])
                if oh < 1 or ow < 1:
                    continue
                weights = constant(rng.normal(size=(k, k, cc)) * 0.3)
                inputs = [cur, weights]
                if rng.random() < 0.5:
                    inputs.append(constant(rng.normal(size=cc) * 0.1))
                out = fresh((1, oh, ow, cc))
                g.add_node(Node(
                    f"n{counter}", "depthwise_conv2d", inputs, [out],
                    {"stride": (1, 1), "padding": pad,
                     "activation": activation},
                ))
                cur, shape = out, (1, oh, ow, cc)
            elif op == "pool":
                kind = str(rng.choice(["max_pool", "avg_pool"]))
                oh, ow = _out_dim(hh, 2, 2, (0, 0)), _out_dim(ww, 2, 2, (0, 0))
                out = fresh((1, oh, ow, cc))
                g.add_node(Node(
                    f"n{counter}", kind, [cur], [out],
                    {"ksize": (2, 2), "stride": (2, 2)},
                ))
                cur, shape = out, (1, oh, ow, cc)
            elif op == "add":
                out = fresh(shape)
                g.add_node(Node(f"n{counter}", "add", [cur, cur], [out]))
                cur = out
            elif op == "concat":
                out = fresh((1, hh, ww, 2 * cc))
                g.add_node(Node(
                    f"n{counter}", "concat", [cur, cur], [out], {"axis": -1}
                ))
                cur, shape = out, (1, hh, ww, 2 * cc)
            elif op == "mean":
                out = fresh((1, cc))
                g.add_node(Node(
                    f"n{counter}", "mean", [cur], [out], {"axis": (1, 2)}
                ))
                cur, shape = out, (1, cc)
        else:
            _, d = shape
            if rng.random() < 0.7:
                dout = int(rng.integers(2, 9))
                weights = constant(rng.normal(size=(d, dout)) * 0.2)
                inputs = [cur, weights]
                if rng.random() < 0.5:
                    inputs.append(constant(rng.normal(size=dout) * 0.1))
                out = fresh((1, dout))
                g.add_node(Node(
                    f"n{counter}", "fully_connected", inputs, [out],
                    {"activation": str(rng.choice(["none", "relu"]))},
                ))
                cur, shape = out, (1, dout)
            else:
                out = fresh(shape)
                g.add_node(Node(f"n{counter}", "add", [cur, cur], [out]))
                cur = out
    g.mark_output(cur)
    return g


def _feeds(graph: Graph, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed + 1000)
    shape = graph.tensor("x").shape
    return {"x": rng.uniform(-1, 1, size=shape).astype(np.float32)}


@pytest.mark.parametrize("seed", range(GRAPHS))
def test_tier3_matches_the_interpreter(seed):
    graph = random_float_graph(seed)
    feeds = _feeds(graph, seed)
    batches = [_feeds(graph, seed + i) for i in range(2)]
    quantized = quantize_graph(graph, calibrate(graph, batches))
    result = compile_graph(quantized, cache=None, pipeline="O2")
    assert result.macro_kernels is not None

    want = execute_quantized(result.model.graph, feeds)
    executor = NcoreExecutor(result.model, verify=False, policy="codegen")
    try:
        first = executor.execute(feeds).outputs
        steady = executor.execute(feeds).outputs
        assert executor.last_tier == "codegen"
        for name, value in want.items():
            expected = np.asarray(value)
            for got in (first, steady):
                out = np.asarray(got[name])
                assert out.dtype == expected.dtype, (seed, name)
                assert out.tobytes() == expected.tobytes(), (seed, name)
    finally:
        executor.close()


@pytest.mark.parametrize("zero_point", [0, 255])
@pytest.mark.parametrize("seed", range(0, GRAPHS, 5))
def test_extreme_codes_match_the_interpreter(seed, zero_point):
    """Every input code 0 or 255 under an input zero point of 0 or 255:
    ``|x - zp|`` sits at the magnitude the exactness proof assumes."""
    graph = random_float_graph(seed)
    ranges = calibrate(graph, [_feeds(graph, seed + i) for i in range(2)])
    ranges.ranges["x"] = (0.0, 1.0) if zero_point == 0 else (-1.0, 0.0)
    quantized = quantize_graph(graph, ranges)
    entry = next(node for node in quantized.nodes if node.op == "quantize")
    x_qp = quantized.tensor(entry.outputs[0]).quant
    assert x_qp.zero_point == zero_point
    result = compile_graph(quantized, cache=None, pipeline="O2")
    rng = np.random.default_rng(seed)
    feeds = {"x": rng.choice(np.float32([-1e6, 1e6]), size=graph.tensor("x").shape)}
    assert set(np.unique(quantize(feeds["x"], x_qp))) <= {0, 255}
    want = execute_quantized(result.model.graph, feeds)
    executor = NcoreExecutor(result.model, verify=False, policy="codegen")
    try:
        got = executor.execute(feeds).outputs
    finally:
        executor.close()
    for name, value in want.items():
        assert np.asarray(got[name]).tobytes() == np.asarray(value).tobytes(), (seed, name)


def test_fuzz_population_exercises_codegen():
    """The suite is not vacuous: most seeds produce covered segments."""
    covered = 0
    for seed in range(GRAPHS):
        graph = random_float_graph(seed)
        batches = [_feeds(graph, seed + i) for i in range(2)]
        quantized = quantize_graph(graph, calibrate(graph, batches))
        result = compile_graph(quantized, cache=None, pipeline="O2")
        covered += result.macro_kernels.covered_segments
    assert covered >= GRAPHS  # on average one macro-kernel per graph
