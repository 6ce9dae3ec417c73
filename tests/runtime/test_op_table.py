"""The one op table: completeness, and the degenerate one-node segment.

``qkernels.INT8_KERNELS`` / ``FLOAT_KERNELS`` are the only op dispatch of
the graph-level model: the per-node walk looks each bound node up there,
and a macro-kernel's generic ``NodeStep`` holds the same bound node.  So
(i) every op of the vocabulary must have an entry — a new op without a
kernel fails here, not in a query — and (ii) a one-node segment lowered by
``compile_segment`` must be byte-equal to ``run_nodes``, before and after
the pickle round-trip the compile cache puts it through.
"""

import pickle

import numpy as np
import pytest

from repro.dtypes import NcoreDType, QuantParams
from repro.graph.gir import OP_TYPES, Graph, Node, Tensor, TensorType
from repro.graph.partitioner import Segment
from repro.ncore.codegen import ConvStep, NodeStep, UnsupportedSegment, compile_segment
from repro.quantize.convert import QUANTIZABLE_OPS
from repro.runtime.qkernels import (
    FLOAT_KERNELS,
    INT8_KERNELS,
    WALK_ONLY_OPS,
    run_nodes,
    seed_values,
)

U8, BF16 = NcoreDType.UINT8, NcoreDType.BF16


class TestCompleteness:
    def test_int8_table_is_the_quantizable_vocabulary(self):
        assert set(INT8_KERNELS) == QUANTIZABLE_OPS | {"quantize"}

    def test_every_op_has_a_kernel(self):
        assert set(INT8_KERNELS) | set(FLOAT_KERNELS) == OP_TYPES

    def test_walk_only_ops_are_float_forms_with_a_kernel(self):
        assert WALK_ONLY_OPS < set(FLOAT_KERNELS)


def qp(scale, zero_point):
    return QuantParams(scale=scale, zero_point=zero_point, dtype=U8)


class OneNode:
    """Builds a one-node graph: float32 / uint8 inputs with random feeds,
    constants for the baked operands, then the node itself."""

    def __init__(self, op, seed=0):
        self.op = op
        self.graph = Graph(f"one-{op}")
        self.feeds = {}
        self.rng = np.random.default_rng(seed)
        self.names = []

    def _feed(self, type_, data, quant=None):
        name = f"in{len(self.names)}"
        self.graph.add_input(name, type_, quant=quant)
        self.feeds[name] = data
        self.names.append(name)
        return self

    def f32(self, shape):
        return self._feed(
            TensorType(shape), self.rng.uniform(-2, 2, size=shape).astype(np.float32)
        )

    def ids(self, shape, high):
        return self._feed(
            TensorType(shape, "int32"),
            self.rng.integers(0, high, size=shape).astype(np.int32),
        )

    def u8(self, shape, quant):
        return self._feed(
            TensorType(shape, U8),
            self.rng.integers(0, 256, size=shape).astype(np.uint8), quant,
        )

    def const(self, data, quant=None):
        name = f"in{len(self.names)}"
        self.graph.add_constant(name, data, quant)
        self.names.append(name)
        return self

    def weights(self, shape, quant):
        return self.const(self.rng.integers(0, 256, size=shape).astype(np.uint8), quant)

    def bias(self, channels):
        return self.const(self.rng.integers(-500, 500, size=channels).astype(np.int32))

    def out(self, *types, quant=None, **attrs):
        outputs = []
        for i, type_ in enumerate(types):
            outputs.append(f"out{i}")
            self.graph.add_tensor(Tensor(outputs[-1], type_, quant=quant))
            self.graph.mark_output(outputs[-1])
        self.graph.add_node(Node("node", self.op, list(self.names), outputs, attrs))
        return self


X_QP, W_QP, OUT_QP = qp(0.02, 128), qp(0.01, 99), qp(0.07, 11)
IMAGE = (1, 4, 4, 3)


def _bf16(*shape):
    return TensorType(shape, BF16)


def _u8(*shape):
    return TensorType(shape, U8)


def int8_cases():
    pad = ((1, 1), (1, 1))
    return {
        "quantize": lambda c: c.f32(IMAGE).out(_u8(*IMAGE), quant=OUT_QP),
        "conv2d": lambda c: c.u8(IMAGE, X_QP).weights((3, 3, 3, 5), W_QP).bias(5).out(
            _u8(1, 4, 4, 5), quant=OUT_QP, padding=pad, activation="relu6"),
        "depthwise_conv2d": lambda c: c.u8(IMAGE, X_QP).weights((3, 3, 3), W_QP).out(
            _u8(1, 2, 2, 3), quant=OUT_QP, stride=(2, 2), padding=pad),
        "fully_connected": lambda c: c.u8((2, 6), X_QP).weights((6, 5), W_QP).bias(5).out(
            _u8(2, 5), quant=OUT_QP, activation="relu"),
        "add": lambda c: c.u8(IMAGE, X_QP).u8(IMAGE, W_QP).out(
            _u8(*IMAGE), quant=OUT_QP, activation="relu"),
        "max_pool": lambda c: c.u8(IMAGE, X_QP).out(
            _u8(1, 2, 2, 3), quant=X_QP, ksize=(2, 2), stride=(2, 2)),
        "avg_pool": lambda c: c.u8(IMAGE, X_QP).out(
            _u8(1, 2, 2, 3), quant=X_QP, ksize=(2, 2), stride=(2, 2)),
        "mean": lambda c: c.u8(IMAGE, X_QP).out(_u8(1, 3), quant=OUT_QP, axis=(1, 2)),
        "concat": lambda c: c.u8(IMAGE, X_QP).u8(IMAGE, W_QP).out(
            _u8(1, 4, 4, 6), quant=OUT_QP, axis=-1),
        "relu": lambda c: c.u8(IMAGE, X_QP).out(_u8(*IMAGE), quant=X_QP),
        "relu6": lambda c: c.u8(IMAGE, X_QP).out(_u8(*IMAGE), quant=X_QP),
        "reshape": lambda c: c.u8(IMAGE, X_QP).out(_u8(1, 48), quant=X_QP, shape=(1, 48)),
        "identity": lambda c: c.u8(IMAGE, X_QP).out(_u8(*IMAGE), quant=X_QP),
    }


def float_cases():
    hidden, width, steps = 4, 3, 5
    state = (1, hidden)
    return {
        "dequantize": lambda c: c.u8(IMAGE, X_QP).out(TensorType(IMAGE)),
        "lstm_step": lambda c: (
            c.f32((1, steps, width)).f32((width, 4 * hidden)).f32((hidden, 4 * hidden))
            .f32((4 * hidden,)).f32(state).f32(state).out(_bf16(*state), _bf16(*state), t=2)),
        "lstm_cell": lambda c: (
            c.f32((1, width)).f32((width + hidden, 4 * hidden)).f32((4 * hidden,))
            .f32(state).f32(state).out(_bf16(*state), _bf16(*state))),
        "embedding": lambda c: c.f32((10, 4)).ids((1, 6), 10).out(_bf16(1, 6, 4)),
        "fully_connected": lambda c: c.f32((2, 6)).f32((6, 5)).f32((5,)).out(
            _bf16(2, 5), activation="tanh"),
        "slice": lambda c: c.f32((1, steps, width)).out(
            _bf16(1, width), axis=1, begin=3, size=1, squeeze=True),
        "concat": lambda c: c.f32(IMAGE).f32(IMAGE).out(_bf16(1, 4, 4, 6), axis=-1),
        "reshape": lambda c: c.f32(IMAGE).out(_bf16(1, 48), shape=(1, 48)),
        "batch_norm": lambda c: (
            c.f32(IMAGE).f32((3,)).const(np.array([0.5, 1.0, 2.0], np.float32))
            .f32((3,)).f32((3,)).out(_bf16(*IMAGE), epsilon=1e-3)),
        "softmax": lambda c: c.f32((2, 7)).out(TensorType((2, 7))),
        "mean": lambda c: c.f32(IMAGE).out(_bf16(1, 3), axis=(1, 2)),
        "add": lambda c: c.f32(IMAGE).f32(IMAGE).out(_bf16(*IMAGE), activation="relu"),
        "mul": lambda c: c.f32(IMAGE).f32(IMAGE).out(_bf16(*IMAGE)),
        "relu": lambda c: c.f32(IMAGE).out(_bf16(*IMAGE)),
        "relu6": lambda c: c.f32(IMAGE).out(_bf16(*IMAGE)),
        "tanh": lambda c: c.f32(IMAGE).out(_bf16(*IMAGE)),
        "sigmoid": lambda c: c.f32(IMAGE).out(_bf16(*IMAGE)),
        "attention": lambda c: c.f32((2, hidden)).f32((2, steps, hidden)).out(_bf16(2, hidden)),
        "identity": lambda c: c.f32(IMAGE).out(_bf16(*IMAGE)),
        "pad": lambda c: c.f32(IMAGE).out(_bf16(1, 6, 5, 3), padding=((1, 1), (0, 1))),
        "bias_add": lambda c: c.f32(IMAGE).f32((3,)).out(_bf16(*IMAGE), activation="relu6"),
    }


CASES = [("int8", op, build) for op, build in int8_cases().items()] + [
    ("float", op, build) for op, build in float_cases().items()
]


def test_cases_cover_every_lowered_table_entry():
    assert {op for family, op, _ in CASES if family == "int8"} == set(INT8_KERNELS)
    assert {op for family, op, _ in CASES if family == "float"} == \
        set(FLOAT_KERNELS) - WALK_ONLY_OPS


def _assert_same(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name].dtype == value.dtype, name
        assert got[name].shape == value.shape, name
        assert got[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize(
    "family, op, build", CASES, ids=[f"{family}-{op}" for family, op, _ in CASES]
)
def test_one_node_segment_equals_the_walk(family, op, build):
    case = build(OneNode(op))
    graph, segment = case.graph, Segment("ncore", list(case.graph.nodes))
    walked = seed_values(graph, case.feeds)
    run_nodes(graph, segment.nodes, walked)
    want = {name: np.asarray(walked[name]) for name in graph.outputs}

    kernel = compile_segment(graph, segment, 0, f"one_{op}")
    (step,) = kernel.steps
    assert isinstance(step, NodeStep)
    assert step.bound.is_float == (family == "float")
    matmul = family == "int8" and op in ("conv2d", "depthwise_conv2d", "fully_connected")
    assert isinstance(step, ConvStep) == matmul

    for candidate in (kernel, pickle.loads(pickle.dumps(kernel))):
        env = seed_values(graph, case.feeds)
        candidate.run(env)
        _assert_same({name: np.asarray(env[name]) for name in graph.outputs}, want)


@pytest.mark.parametrize("op", sorted(WALK_ONLY_OPS))
def test_walk_only_ops_stay_uncovered(op):
    graph = Graph(f"walk-only-{op}")
    graph.add_input("x", TensorType(IMAGE))
    graph.add_tensor(Tensor("y", TensorType(IMAGE)))
    graph.add_node(Node("node", op, ["x"], ["y"]))
    with pytest.raises(UnsupportedSegment, match=f"float op '{op}' has no macro-kernel form"):
        compile_segment(graph, Segment("x86", list(graph.nodes)), 0, "walk_only")
