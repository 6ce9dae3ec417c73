"""GNMT: the neural machine translation benchmark.

The MLPerf v0.5 GNMT: 4-layer LSTM encoder, 4-layer LSTM decoder with
attention over the encoder states, 1024 hidden units, a shared source /
target embedding table and a vocabulary sized so the total parameter count
lands at Table V's ~131 M.  The paper ran GNMT on Ncore in bfloat16 ("due
to time constraints ... we implemented GNMT using bfloat16 rather than
8-bit integer", section VI-B); use
:func:`repro.quantize.convert_to_bf16` on the built graph for that path.

The graph is unrolled for a fixed sentence length (the paper characterized
25-word inputs and outputs) with teacher-forced (greedy) decoding.  The
paper reports 3.9 B MACs per sentence; a single greedy pass over this
architecture performs ~2.5 B — the remainder is consistent with the MLPerf
reference's beam-search decoding re-executing decoder steps, which a
static unrolled graph does not model.  EXPERIMENTS.md records both.
"""

from __future__ import annotations

import numpy as np

from repro.graph.gir import Graph, Node
from repro.models.common import GraphBuilder

VOCAB = 28672          # sized so total weights land at Table V's 131 M
HIDDEN = 1024
LAYERS = 4
SEQ_LEN = 25


def _lstm_step(
    b: GraphBuilder,
    x: str,
    weights: str,
    bias: str,
    h_prev: str,
    c_prev: str,
    hidden: int,
) -> tuple[str, str]:
    batch = b.shape(x)[0]
    h = b._act(b._name("h"), (batch, hidden))
    c = b._act(b._name("c"), (batch, hidden))
    b.g.add_node(
        Node(b._name("lstm"), "lstm_cell", [x, weights, bias, h_prev, c_prev], [h, c])
    )
    return h, c


def _lstm_seq_step(
    b: GraphBuilder,
    x_seq: str,
    wx: str,
    wh: str,
    bias: str,
    h_prev: str,
    c_prev: str,
    hidden: int,
    t: int,
) -> tuple[str, str]:
    """Emit one sequence-projected ``lstm_step`` node (encoder layers)."""
    batch = b.shape(x_seq)[0]
    h = b._act(b._name("h"), (batch, hidden))
    c = b._act(b._name("c"), (batch, hidden))
    b.g.add_node(
        Node(
            b._name("lstm"),
            "lstm_step",
            [x_seq, wx, wh, bias, h_prev, c_prev],
            [h, c],
            {"t": t},
        )
    )
    return h, c


def _slice_step(b: GraphBuilder, sequence: str, t: int) -> str:
    """Take timestep t from an embedded (batch, time, features) tensor."""
    batch, _, features = b.shape(sequence)
    out = b._act(b._name("step"), (batch, features))
    b.g.add_node(
        Node(
            b._name("slice"),
            "slice",
            [sequence],
            [out],
            {"axis": 1, "begin": t, "size": 1, "squeeze": True},
        )
    )
    return out


def build_gnmt(
    batch: int = 1,
    seq_len: int = SEQ_LEN,
    hidden: int = HIDDEN,
    layers: int = LAYERS,
    vocab: int = VOCAB,
) -> Graph:
    """Build the unrolled GNMT translation graph with synthetic weights."""
    b = GraphBuilder("gnmt", seed=23)
    rng = b.rng
    src_ids = b.input("source_ids", (batch, seq_len), dtype="int32")
    tgt_ids = b.input("target_ids", (batch, seq_len), dtype="int32")

    # One embedding table shared between source and target (a shared BPE
    # vocabulary, as in the MLPerf reference), which keeps the parameter
    # count at Table V's ~131 M.
    table = b.constant(
        "shared_embedding", (rng.normal(size=(vocab, hidden)) * 0.05).astype(np.float32)
    )

    def embed(table, ids):
        out = b._act(b._name("embedded"), (batch, seq_len, hidden))
        b.g.add_node(Node(b._name("embed"), "embedding", [table, ids], [out]))
        return out

    src_embedded = embed(table, src_ids)
    tgt_embedded = embed(table, tgt_ids)

    def lstm_weights(name, input_size):
        scale = np.sqrt(1.0 / (input_size + hidden))
        w = b.constant(
            name, (rng.normal(size=(input_size + hidden, 4 * hidden)) * scale).astype(np.float32)
        )
        bias = b.constant(name + "_bias", np.zeros(4 * hidden, np.float32))
        return w, bias

    def lstm_seq_weights(name, input_size):
        # Split input/recurrent matrices for lstm_step; same total parameter
        # count as the stacked (input_size + hidden, 4 * hidden) lstm_cell
        # weights, so Table V's ~131 M is preserved.
        scale = np.sqrt(1.0 / (input_size + hidden))
        wx = b.constant(
            name + "_wx", (rng.normal(size=(input_size, 4 * hidden)) * scale).astype(np.float32)
        )
        wh = b.constant(
            name + "_wh", (rng.normal(size=(hidden, 4 * hidden)) * scale).astype(np.float32)
        )
        bias = b.constant(name + "_bias", np.zeros(4 * hidden, np.float32))
        return wx, wh, bias

    zero_state = b.constant("zero_state", np.zeros((batch, hidden), np.float32))

    # ---- encoder: `layers` stacked LSTMs over the source sequence ----
    # Each layer runs `lstm_step` over the whole (batch, time, hidden) input
    # sequence: the input-side gate projection is shared per layer, which is
    # what every walk computes once and slices per timestep
    # (`reference.walk_lstm_step`).
    enc_weights = [lstm_seq_weights(f"enc{l}", hidden) for l in range(layers)]
    x_seq = src_embedded
    for l in range(layers):
        h, c = zero_state, zero_state
        outputs = []
        for t in range(seq_len):
            h, c = _lstm_seq_step(b, x_seq, *enc_weights[l], h, c, hidden, t)
            outputs.append(h)
        # Stack this layer's outputs into (batch, time, hidden): the next
        # layer's input sequence, and (for the top layer) the attention keys.
        stacked = [b.reshape(h, (batch, 1, hidden)) for h in outputs]
        x_seq = b.concat(stacked, axis=1)
    encoder_states = x_seq

    # ---- decoder: attention feeds the first layer's input ----
    dec_weights = [
        lstm_weights("dec0", 2 * hidden)  # [embedding ; attention context]
    ] + [lstm_weights(f"dec{l}", hidden) for l in range(1, layers)]
    states = [(zero_state, zero_state) for _ in range(layers)]
    context = zero_state
    logits_steps = []
    for t in range(seq_len):
        token = _slice_step(b, tgt_embedded, t)
        x = b.concat([token, context], axis=-1)
        new_states = []
        for l in range(layers):
            h, c = _lstm_step(b, x, *dec_weights[l], *states[l], hidden)
            new_states.append((h, c))
            x = h
        states = new_states
        # Attention over the encoder states, queried by the top layer; the
        # context feeds the *next* step's first-layer input, so the last
        # step has none.
        if t + 1 < seq_len:
            context = b._act(b._name("context"), (batch, hidden))
            b.g.add_node(
                Node(b._name("attention"), "attention", [x, encoder_states], [context])
            )
        logits_steps.append(b.reshape(x, (batch, 1, hidden)))
    decoder_out = b.concat(logits_steps, axis=1)

    # Output projection over the top decoder state.
    proj = b.constant(
        "output_projection",
        (rng.normal(size=(hidden, vocab)) * np.sqrt(1.0 / hidden)).astype(np.float32),
    )
    flat = b.reshape(decoder_out, (batch * seq_len, hidden))
    logits = b._act("logits", (batch * seq_len, vocab))
    b.g.add_node(Node("project", "fully_connected", [flat, proj], [logits]))
    return b.finish(["logits"])
