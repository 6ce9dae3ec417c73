"""Tier-3 codegen over the bf16 float region: GNMT and the float tails.

The quantized zoo gets its bit-exactness contract from
``test_codegen.py``; this file pins the same contract for the float
lowering family — ``lstm_cell`` / ``lstm_step`` macro-steps, the chain
fusion that computes each encoder layer's sequence projection once per
chain, embedding gathers, slice/concat/reshape
plumbing and the x86-resident float tails (batch_norm, softmax, mean).
Float outputs follow the interpreter's write-back semantics exactly:
anything typed bfloat16 is rounded through ``to_bfloat16`` after every
step, so the dispatcher's byte comparison is meaningful.
"""

import numpy as np
import pytest

from repro.compiler import compile_graph, optimize_graph
from repro.graph.gir import Node
from repro.models.common import GraphBuilder
from repro.models.gnmt import build_gnmt
from repro.ncore.codegen import NodeStep, SeqFuseStep
from repro.quantize import convert_to_bf16
from repro.runtime import NcoreExecutor, execute_quantized


def tiny_gnmt(seq_len=4, hidden=32, layers=2, vocab=100):
    graph = build_gnmt(seq_len=seq_len, hidden=hidden, layers=layers, vocab=vocab)
    optimize_graph(graph, in_place=True)
    return convert_to_bf16(graph)


def gnmt_feeds(graph, seed=7):
    rng = np.random.default_rng(seed)
    return {
        name: rng.integers(0, 90, size=graph.tensor(name).shape).astype(np.int32)
        for name in graph.inputs
    }


@pytest.fixture(scope="module")
def compiled():
    return compile_graph(tiny_gnmt(), cache=None, pipeline="O2")


class TestFloatCoverage:
    def test_full_coverage_on_gnmt(self, compiled):
        kset = compiled.macro_kernels
        total = len(compiled.model.segments)
        assert kset.coverage_fraction(total) == 1.0
        assert kset.uncovered_reason_counts() == {}

    def test_codegen_stage_records_float_stats(self, compiled):
        stats = {s.stage: s for s in compiled.stats}["codegen"].changes
        assert stats["coverage"] == 1.0
        assert stats["float_steps"] > 0
        assert stats["fused_chains"] >= 1

    def test_encoder_kernel_grows_a_seqfuse_variant(self, compiled):
        # Fusion is a lowering step of the one program, not a variant.
        segments = compiled.model.segments
        fused = [
            (index, kernel)
            for index, kernel in compiled.macro_kernels.kernels.items()
            if any(isinstance(s, SeqFuseStep) for s in kernel.steps)
        ]
        assert fused, "expected the LSTM-bearing segment to fuse its chains"
        for index, kernel in fused:
            # Fusion collapses chains into single steps; every node of the
            # segment is still run exactly once.
            assert len(kernel.steps) < len(segments[index].nodes)
            # The decoder's cells are not consecutive (attention sits
            # between them): they stay one bound node each.
            assert any(s.op == "lstm_cell" and isinstance(s, NodeStep) for s in kernel.steps)
            ran = [
                bound.outputs
                for s in kernel.steps
                for bound in (s.chain if not isinstance(s, NodeStep) else (s.bound,))
            ]
            assert ran == [tuple(n.outputs) for n in segments[index].nodes]

    def test_x86_embedding_segment_is_covered(self, compiled):
        steps = [
            step
            for kernel in compiled.macro_kernels.kernels.values()
            for step in kernel.steps
        ]
        assert any(step.op == "embedding" for step in steps)

    def test_unsupported_float_op_reports_a_reason(self):
        b = GraphBuilder("floatpool")
        x = b.input("x", (1, 8, 8, 4))
        y = b.max_pool(x, 2, 2)
        graph = convert_to_bf16(b.finish([y]))
        result = compile_graph(graph, cache=None, pipeline="O2")
        counts = result.macro_kernels.uncovered_reason_counts()
        assert sum(counts.values()) == len(result.macro_kernels.uncovered) > 0
        assert any("max_pool" in reason for reason in counts)


class TestFloatBitExactness:
    def test_gnmt_matches_the_interpreter_bit_for_bit(self, compiled):
        graph = compiled.model.graph
        feeds = gnmt_feeds(graph)
        want = execute_quantized(graph, feeds)
        executor = NcoreExecutor(compiled.model, verify=False, policy="codegen")
        try:
            first = executor.execute(feeds).outputs
            steady = executor.execute(feeds).outputs
            assert executor.last_tier == "codegen"
            for name, value in want.items():
                expected = np.asarray(value)
                for got in (first, steady):
                    out = np.asarray(got[name])
                    assert out.dtype == expected.dtype, name
                    assert out.tobytes() == expected.tobytes(), name
        finally:
            executor.close()

    def test_float_tails_match_the_interpreter(self):
        # fc -> batch_norm -> softmax -> mean: the x86 float tail family.
        b = GraphBuilder("floattail", seed=5)
        x = b.input("x", (1, 6, 6, 3))
        y = b.conv(x, 8, 3, batch_norm=True, activation="relu")
        y = b.global_mean(y)
        y = b.fully_connected(y, 10, activation="tanh")
        y = b.softmax(y)
        graph = convert_to_bf16(b.finish([y]))
        result = compile_graph(graph, cache=None, pipeline="O2")
        rng = np.random.default_rng(2)
        feeds = {"x": rng.uniform(-1, 1, size=(1, 6, 6, 3)).astype(np.float32)}
        want = execute_quantized(result.model.graph, feeds)
        executor = NcoreExecutor(result.model, verify=False, policy="codegen")
        try:
            got = executor.execute(feeds).outputs
            for name, value in want.items():
                assert np.asarray(got[name]).tobytes() == \
                    np.asarray(value).tobytes(), name
        finally:
            executor.close()


class TestFloatObservability:
    def test_attrib_stamps_codegen_on_float_segments(self, compiled):
        # The executor's ``last_tier`` is the label harvest records carry.
        feeds = gnmt_feeds(compiled.model.graph)
        executor = NcoreExecutor(compiled.model, verify=False, policy="codegen")
        try:
            executor.execute(feeds)
            assert executor.last_tier == "codegen"
        finally:
            executor.close()

    def test_float_steps_pickle_small(self, compiled):
        # Float steps read weights from the executor-seeded environment
        # instead of baking them in, so the sidecar artifact stays small.
        import pickle

        blob = pickle.dumps(compiled.macro_kernels)
        assert len(blob) < 256 * 1024

    def test_ir_dump_reports_coverage(self):
        from repro.compiler.irdump import dump_context

        result = compile_graph(
            tiny_gnmt(), cache=None, pipeline="O2", collect_ir=True
        )
        dump = dump_context(result.context)
        assert "coverage 1.00" in dump

    def test_float_step_rounding_matches_contract(self):
        from repro.dtypes.bfloat16 import to_bfloat16
        from repro.runtime.qkernels import BoundNode

        rng = np.random.default_rng(0)
        x = rng.standard_normal(64).astype(np.float32)
        env = {"x": x}
        BoundNode("identity", ("x",), ("y",), bf16_outputs=("y",), is_float=True).run(env)
        BoundNode("identity", ("x",), ("z",), is_float=True).run(env)
        assert np.array_equal(env["y"], to_bfloat16(x))
        assert np.array_equal(env["z"], x)


class TestFloatStepExports:
    def test_float_family_is_public(self):
        from repro.ncore import codegen

        for name in ("NodeStep", "SeqFuseStep", "CellFuseStep"):
            assert name in codegen.__all__
        # The float family has no step classes of its own: bound nodes plus
        # the two chain fusions.
        assert sorted(n for n in codegen.__all__ if n.endswith("Step")) == [
            "CellFuseStep", "ConvStep", "KernelStep", "NodeStep", "SeqFuseStep",
        ]
        assert issubclass(codegen.ConvStep, NodeStep)
