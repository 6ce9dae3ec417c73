"""The graph walks' ``lstm_step`` projection memo is invisible.

``execute_float``, ``run_nodes`` and a compiled macro-kernel's
``MacroKernel.run`` project each ``(x_seq, wx)`` pair once per call
(``repro.graph.reference.walk_lstm_step``, which the last two reach
through ``qkernels.BoundNode.run``) instead of once per step.  These tests
hold the memoized walks to the unmemoized per-node ``execute_op`` byte
for byte, on hand-built chains whose keys share one half but not the
other, and check that no projection outlives its call.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import reference
from repro.graph.gir import Graph, Node, Tensor, TensorType
from repro.compiler import compile_graph
from repro.graph.reference import execute_float, execute_node, execute_op
from repro.models.gnmt import build_gnmt
from repro.quantize import convert_to_bf16
from repro.runtime.qkernels import bind, execute_quantized, run_nodes, seed_values

HIDDEN, STEPS, WIDTH = 8, 5, 6

#: SHA-256 of GNMT-small's bf16 ``execute_quantized`` outputs (``_digest``
#: of ``build_gnmt(seq_len=4, hidden=32, layers=2, vocab=100)`` on
#: ``_gnmt_feeds``), taken from the walk before it memoized projections.
#: Only the bf16 form is pinned: its stored values are rounded to 8
#: mantissa bits, while float32 outputs carry the last bits of the host's
#: BLAS and libm kernels.  The float32 walk is held to the unmemoized
#: walk in-process instead.
GNMT_SMALL_BF16_DIGEST = "2f6218f8a82c618452c77065748112bdf2b04fd90c2f0d6c272af11b239c337b"


def _chains(x_names, wx_names, seed=0):
    """Two ``lstm_step`` chains of ``STEPS`` steps, interleaved step by
    step; chain ``k`` reads sequence ``x_names[k]`` and weights
    ``wx_names[k]``, and every state is a graph output."""
    rng = np.random.default_rng(seed)
    graph = Graph("chains")
    for name in dict.fromkeys(x_names):
        graph.add_input(name, TensorType((1, STEPS, WIDTH)))
    for name in dict.fromkeys(wx_names):
        graph.add_constant(name, rng.standard_normal((WIDTH, 4 * HIDDEN)).astype(np.float32))
    graph.add_constant("wh", rng.standard_normal((HIDDEN, 4 * HIDDEN)).astype(np.float32))
    graph.add_constant("bias", rng.standard_normal(4 * HIDDEN).astype(np.float32))
    graph.add_constant("zero", np.zeros((1, HIDDEN), np.float32))
    states = [("zero", "zero")] * len(x_names)
    for t in range(STEPS):
        for k, (x_seq, wx) in enumerate(zip(x_names, wx_names, strict=True)):
            h, c = f"h{k}_{t}", f"c{k}_{t}"
            graph.add_tensor(Tensor(h, TensorType((1, HIDDEN))))
            graph.add_tensor(Tensor(c, TensorType((1, HIDDEN))))
            graph.add_node(Node(
                f"step{k}_{t}", "lstm_step",
                [x_seq, wx, "wh", "bias", *states[k]], [h, c], {"t": t},
            ))
            states[k] = (h, c)
            graph.mark_output(h)
            graph.mark_output(c)
    return graph


def _feeds(graph, seed=1):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(graph.tensor(name).shape).astype(np.float32)
        for name in graph.inputs
    }


def _per_node_quantized(graph, feeds):
    """``run_nodes`` with every ``lstm_step`` through the unmemoized
    ``execute_op`` (same binding and bf16 write-back)."""
    values = seed_values(graph, feeds)
    for node in graph.nodes:
        bound = bind(graph, node)
        if node.op == "lstm_step":
            ins = [values[name] for name in node.inputs]
            bound.store(values, execute_op(node.op, node.attrs, ins))
        else:
            bound.run(values, {})
    return {name: values[name] for name in graph.outputs}


def _per_node_float(graph, feeds):
    """``execute_float`` node by node through ``execute_node``."""
    values = seed_values(graph, feeds)
    for node in graph.nodes:
        outs = execute_node(graph, node, [values[name] for name in node.inputs])
        values.update(zip(node.outputs, outs, strict=False))
    return {name: values[name] for name in graph.outputs}


def _macro_kernel(graph):
    """``graph`` compiled at O2: its graph and its one macro-kernel."""
    model = compile_graph(graph, cache=None, pipeline="O2").model
    assert model.macro_kernels is not None
    (kernel,) = model.macro_kernels.kernels.values()
    assert len(model.segments) == 1
    return model.graph, kernel


def _run_kernel(graph, kernel, feeds):
    values = seed_values(graph, feeds)
    kernel.run(values)
    return {name: values[name] for name in graph.outputs}


def _assert_same_bytes(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


def _digest(outputs):
    digest = hashlib.sha256()
    for name in sorted(outputs):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(outputs[name]).tobytes())
    return digest.hexdigest()


def _gnmt_feeds(graph, seed=7):
    rng = np.random.default_rng(seed)
    return {
        name: rng.integers(0, 90, size=graph.tensor(name).shape).astype(np.int32)
        for name in graph.inputs
    }


CHAIN_KEYS = {
    "shared-x": (("x", "x"), ("wx0", "wx1")),
    "shared-wx": (("x0", "x1"), ("wx", "wx")),
    "shared-both": (("x", "x"), ("wx", "wx")),
}


@pytest.fixture
def count_projections(monkeypatch):
    """Count every ``lstm_step_project`` call the walks make."""
    calls = []
    project = reference.lstm_step_project

    def counting(x_seq, wx):
        calls.append((x_seq, wx))
        return project(x_seq, wx)

    monkeypatch.setattr(reference, "lstm_step_project", counting)
    return calls


class TestHandBuiltChains:
    @pytest.mark.parametrize("keys", sorted(CHAIN_KEYS))
    def test_execute_float_matches_the_per_node_walk(self, keys):
        graph = _chains(*CHAIN_KEYS[keys])
        feeds = _feeds(graph)
        _assert_same_bytes(execute_float(graph, feeds), _per_node_float(graph, feeds))

    @pytest.mark.parametrize("keys", sorted(CHAIN_KEYS))
    def test_run_nodes_matches_the_per_node_walk(self, keys):
        graph = _chains(*CHAIN_KEYS[keys])
        feeds = _feeds(graph)
        _assert_same_bytes(
            execute_quantized(graph, feeds), _per_node_quantized(graph, feeds)
        )

    @pytest.mark.parametrize("keys", sorted(CHAIN_KEYS))
    def test_bf16_run_nodes_matches_the_per_node_walk(self, keys):
        graph = convert_to_bf16(_chains(*CHAIN_KEYS[keys]))
        feeds = _feeds(graph)
        _assert_same_bytes(
            execute_quantized(graph, feeds), _per_node_quantized(graph, feeds)
        )

    @pytest.mark.parametrize("keys", sorted(CHAIN_KEYS))
    def test_bf16_macro_kernel_matches_the_per_node_walk(self, keys):
        graph, kernel = _macro_kernel(convert_to_bf16(_chains(*CHAIN_KEYS[keys])))
        feeds = _feeds(graph)
        _assert_same_bytes(
            _run_kernel(graph, kernel, feeds), _per_node_quantized(graph, feeds)
        )

    @pytest.mark.parametrize(
        "keys, distinct", [("shared-x", 2), ("shared-wx", 2), ("shared-both", 1)]
    )
    def test_one_projection_per_key_per_walk(self, keys, distinct, count_projections):
        graph = _chains(*CHAIN_KEYS[keys])
        feeds = _feeds(graph)
        compiled, kernel = _macro_kernel(graph)
        execute_float(graph, feeds)
        assert len(count_projections) == distinct
        execute_quantized(graph, feeds)
        assert len(count_projections) == 2 * distinct
        _run_kernel(compiled, kernel, feeds)
        assert len(count_projections) == 3 * distinct


class TestNothingOutlivesTheWalk:
    def test_each_run_nodes_call_projects_again(self, count_projections):
        graph = _chains(*CHAIN_KEYS["shared-x"])
        values = seed_values(graph, _feeds(graph))
        run_nodes(graph, graph.nodes, values)
        assert len(count_projections) == 2
        run_nodes(graph, graph.nodes, dict(values))
        assert len(count_projections) == 4
        _, kernel = _macro_kernel(graph)
        kernel.run(dict(values))
        assert len(count_projections) == 6
        kernel.run(dict(values))
        assert len(count_projections) == 8

    def test_new_feeds_under_the_same_names_are_projected_afresh(self):
        graph = _chains(*CHAIN_KEYS["shared-wx"])
        execute_quantized(graph, _feeds(graph, seed=1))
        later = _feeds(graph, seed=2)
        _assert_same_bytes(execute_quantized(graph, later), _per_node_quantized(graph, later))
        _assert_same_bytes(execute_float(graph, later), _per_node_float(graph, later))

    def test_the_environment_holds_only_tensors(self):
        graph = _chains(*CHAIN_KEYS["shared-x"])
        values = seed_values(graph, _feeds(graph))
        seeded = set(values)
        run_nodes(graph, graph.nodes, values)
        produced = {name for node in graph.nodes for name in node.outputs}
        assert set(values) == seeded | produced


class TestGnmtSmall:
    @pytest.fixture(scope="class")
    def gnmt(self):
        graph = build_gnmt(seq_len=4, hidden=32, layers=2, vocab=100)
        return graph, _gnmt_feeds(graph)

    def test_bf16_walk_digest_is_pinned(self, gnmt):
        graph, feeds = gnmt
        assert _digest(execute_quantized(convert_to_bf16(graph), feeds)) == GNMT_SMALL_BF16_DIGEST

    def test_bf16_walk_matches_the_per_node_walk(self, gnmt):
        graph, feeds = gnmt
        bf16 = convert_to_bf16(graph)
        _assert_same_bytes(execute_quantized(bf16, feeds), _per_node_quantized(bf16, feeds))

    def test_float_walk_matches_the_per_node_walk(self, gnmt):
        graph, feeds = gnmt
        _assert_same_bytes(execute_float(graph, feeds), _per_node_float(graph, feeds))
