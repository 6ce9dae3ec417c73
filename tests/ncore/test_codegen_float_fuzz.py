"""Differential fuzzing of the Tier-3 float lowering family.

The bf16 counterpart of ``test_codegen_fuzz``: seeded random — but
legal — float graphs built from the float-region op vocabulary
(embedding gathers, ``lstm_step`` chains that exercise seqfuse,
per-timestep ``lstm_cell`` chains that exercise cellfuse,
slice/concat/reshape plumbing, fc/softmax/batch_norm/mean tails), each
converted to bfloat16, compiled at O2 and executed on both the per-node
interpreter and the Tier-3 macro-kernel dispatcher.  Every output must
match byte-for-byte, on the oracle-checked first dispatch and in the
steady state.
"""

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.graph.gir import Graph, Node
from repro.models.common import GraphBuilder
from repro.ncore.codegen import CellFuseStep, SeqFuseStep
from repro.quantize import convert_to_bf16
from repro.runtime import NcoreExecutor, execute_quantized

GRAPHS = 25


def _embed(b: GraphBuilder, ids: str, vocab: int, width: int, rng) -> str:
    batch, seq = b.shape(ids)
    table = b.constant(
        "table", (rng.normal(size=(vocab, width)) * 0.5).astype(np.float32)
    )
    out = b._act(b._name("embedded"), (batch, seq, width))
    b.g.add_node(Node(b._name("embedding"), "embedding", [table, ids], [out]))
    return out


def _slice_t(b: GraphBuilder, seq_tensor: str, t: int) -> str:
    batch, _, width = b.shape(seq_tensor)
    out = b._act(b._name("step"), (batch, width))
    b.g.add_node(Node(
        b._name("slice"), "slice", [seq_tensor], [out],
        {"axis": 1, "begin": t, "size": 1, "squeeze": True},
    ))
    return out


def _zeros(b: GraphBuilder, hidden: int) -> str:
    return b.constant("zero", np.zeros((1, hidden), dtype=np.float32))


def _lstm_seq_layer(b: GraphBuilder, x_seq: str, hidden: int, rng) -> list[str]:
    """One encoder-style layer: a full chain of lstm_step nodes."""
    batch, seq, width = b.shape(x_seq)
    wx = b.constant("wx", (rng.normal(size=(width, 4 * hidden)) * 0.2).astype(np.float32))
    wh = b.constant("wh", (rng.normal(size=(hidden, 4 * hidden)) * 0.2).astype(np.float32))
    bias = b.constant("bias", (rng.normal(size=4 * hidden) * 0.1).astype(np.float32))
    h, c = _zeros(b, hidden), _zeros(b, hidden)
    outs = []
    for t in range(seq):
        nh = b._act(b._name("h"), (batch, hidden))
        nc = b._act(b._name("c"), (batch, hidden))
        b.g.add_node(Node(
            b._name("lstm"), "lstm_step",
            [x_seq, wx, wh, bias, h, c], [nh, nc], {"t": t},
        ))
        h, c = nh, nc
        outs.append(h)
    return outs


def _lstm_cell_layer(b: GraphBuilder, x_seq: str, hidden: int, rng) -> list[str]:
    """One decoder-style layer: slice each step, shared stacked weights."""
    batch, seq, width = b.shape(x_seq)
    weights = b.constant(
        "w", (rng.normal(size=(width + hidden, 4 * hidden)) * 0.2).astype(np.float32)
    )
    bias = b.constant("bias", (rng.normal(size=4 * hidden) * 0.1).astype(np.float32))
    h, c = _zeros(b, hidden), _zeros(b, hidden)
    # Slices first, cells back-to-back: consecutive same-weight cells
    # threading h/c are what the cellfuse run detector collapses.
    xs = [_slice_t(b, x_seq, t) for t in range(seq)]
    outs = []
    for x in xs:
        nh = b._act(b._name("h"), (batch, hidden))
        nc = b._act(b._name("c"), (batch, hidden))
        b.g.add_node(Node(
            b._name("lstm"), "lstm_cell",
            [x, weights, bias, h, c], [nh, nc],
        ))
        h, c = nh, nc
        outs.append(h)
    return outs


def _stack(b: GraphBuilder, parts: list[str]) -> str:
    batch, hidden = b.shape(parts[0])
    rows = [b.reshape(p, (batch, 1, hidden)) for p in parts]
    return b.concat(rows, axis=1)


def random_float_graph(seed: int) -> Graph:
    """One random bf16-region RNN-shaped graph."""
    rng = np.random.default_rng(seed)
    b = GraphBuilder(f"floatfuzz{seed}", seed=seed)
    seq = int(rng.integers(3, 7))
    width = int(rng.integers(4, 13))
    vocab = int(rng.integers(16, 49))
    ids = b.input("ids", (1, seq), dtype="int32")
    x_seq = _embed(b, ids, vocab, width, rng)

    layers = int(rng.integers(1, 4))
    hs = None
    for _ in range(layers):
        hidden = int(rng.integers(4, 13))
        style = rng.choice(["seq", "cell"])
        if style == "seq":
            hs = _lstm_seq_layer(b, x_seq, hidden, rng)
        else:
            hs = _lstm_cell_layer(b, x_seq, hidden, rng)
        x_seq = _stack(b, hs)

    outputs = [x_seq]
    last = hs[-1]
    if rng.random() < 0.6:
        last = b.fully_connected(
            last, int(rng.integers(3, 9)),
            activation=str(rng.choice(["none", "tanh", "sigmoid"])),
        )
    if rng.random() < 0.5:
        last = b.softmax(last)
    outputs.append(last)
    if rng.random() < 0.4:
        _, seq_now, hidden_now = b.shape(x_seq)
        outputs.append(b.reshape(x_seq, (1, seq_now * hidden_now)))
    return b.finish(outputs)


def _feeds(graph: Graph, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed + 5000)
    shape = graph.tensor("ids").shape
    return {"ids": rng.integers(0, 16, size=shape).astype(np.int32)}


@pytest.mark.parametrize("seed", range(GRAPHS))
def test_float_tier3_matches_the_interpreter(seed):
    graph = convert_to_bf16(random_float_graph(seed))
    feeds = _feeds(graph, seed)
    result = compile_graph(graph, cache=None, pipeline="O2")
    assert result.macro_kernels is not None
    assert result.macro_kernels.covered_segments >= 1

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


def test_fuzz_population_exercises_both_fusions():
    """The corpus is not vacuous: both fusion families appear, and the
    float region is near-fully covered across the population."""
    seqfuse = cellfuse = covered = total = 0
    for seed in range(GRAPHS):
        graph = convert_to_bf16(random_float_graph(seed))
        result = compile_graph(graph, cache=None, pipeline="O2")
        kset = result.macro_kernels
        covered += kset.covered_segments
        total += len(result.model.segments)
        for kernel in kset.kernels.values():
            for step in kernel.steps:
                if isinstance(step, SeqFuseStep):
                    seqfuse += 1
                elif isinstance(step, CellFuseStep):
                    cellfuse += 1
    assert seqfuse > 0, "no seqfuse chains in the corpus"
    assert cellfuse > 0, "no cellfuse chains in the corpus"
    assert covered / total > 0.8
