"""Tier-3 AOT codegen: macro-kernel lowering and oracle-checked dispatch.

The contract under test is the one the interpreter oracle enforces in
production: every macro-kernel's one program must be *byte-identical* to
the per-node quantized interpreter walk, and under ``oracle="first"``
each (kernel, input-shapes) pair is checked against that walk exactly
once.
"""

import dataclasses
import pickle
import re

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.dtypes import ChannelQuantParams
from repro.graph.gir import TensorType
from repro.graph.partitioner import Segment
from repro.ncore.codegen import (
    _PER_TAP_MIN_CIN,
    CodegenDivergence,
    ConvStep,
    KernelDispatcher,
    MacroKernel,
    MacroKernelSet,
    NodeStep,
    codegen_model,
    compile_segment,
)
from repro.quantize import calibrate, quantize_graph
from repro.runtime import NcoreExecutor, execute_quantized
from repro.runtime.qkernels import BoundNode, run_nodes, seed_values

from tests.quantize.test_convert import calibration_batches, small_cnn
from tests.runtime.test_op_table import OUT_QP, U8, W_QP, X_QP, OneNode


def quantized_cnn(seed=11):
    g = small_cnn(seed=seed)
    return quantize_graph(g, calibrate(g, calibration_batches()))


def sample_feeds(seed=3):
    rng = np.random.default_rng(seed)
    return {"x": rng.uniform(-1, 1, size=(1, 8, 8, 3)).astype(np.float32)}


@pytest.fixture()
def compiled():
    return compile_graph(quantized_cnn(), cache=None, pipeline="O2")


class TestCodegenModel:
    def test_codegen_covers_the_quantized_segments(self, compiled):
        kernels = compiled.macro_kernels
        assert isinstance(kernels, MacroKernelSet)
        assert kernels.covered_segments >= 1
        # Every segment is either lowered or carries a reason.
        total = len(compiled.model.segments)
        assert kernels.covered_segments + len(kernels.uncovered) == total

    def test_cycles_come_from_the_loadable(self, compiled):
        model = compiled.model
        for index, kernel in compiled.macro_kernels.kernels.items():
            if index in model.loadables:
                assert kernel.compute_cycles == \
                    model.loadables[index].compute_cycles

    def test_codegen_model_reports_uncovered_reasons(self):
        graph = quantized_cnn()
        model = compile_graph(graph, pipeline="O0", cache=None).model
        stats: dict[str, int] = {}
        kernels = codegen_model(
            model.graph, model.segments, model.loadables, "cnn", stats=stats
        )
        assert stats["kernels"] == kernels.covered_segments
        assert stats["steps"] == sum(len(k.steps) for k in kernels.kernels.values())
        for reason in kernels.uncovered.values():
            assert isinstance(reason, str) and reason


class TestBitExactness:
    def test_every_variant_matches_the_interpreter(self, compiled):
        graph = compiled.model.graph
        feeds = sample_feeds()
        expected = execute_quantized(graph, feeds)
        for index, kernel in compiled.macro_kernels.kernels.items():
            segment = compiled.model.segments[index]
            # Seed the env with everything upstream of this segment.
            interp = seed_values(graph, feeds)
            for seg in compiled.model.segments:
                if seg is segment:
                    break
                run_nodes(graph, seg.nodes, interp)
            kernel.run(interp)
            for name in kernel.outputs:
                want = expected.get(name)
                if want is None:
                    continue
                got = interp[name]
                assert got.dtype == np.asarray(want).dtype
                assert got.tobytes() == np.asarray(want).tobytes(), (
                    f"{kernel.name} diverged on {name}"
                )

    def test_session_outputs_are_byte_identical(self):
        # The default process-wide compile cache holds the codegen
        # artifact, which is how executors discover the macro-kernels.
        model = compile_graph(quantized_cnn(), name="codegen-bitexact").model
        feeds = sample_feeds()
        interp = NcoreExecutor(model, verify=False, policy="interpreter")
        tier3 = NcoreExecutor(model, verify=False, policy="codegen")
        try:
            want = interp.execute(feeds).outputs
            got = tier3.execute(feeds).outputs
            again = tier3.execute(feeds).outputs  # steady state (oracle already ran)
            assert tier3.last_tier == "codegen"
            for name in want:
                w = np.asarray(want[name])
                assert np.asarray(got[name]).tobytes() == w.tobytes()
                assert np.asarray(again[name]).tobytes() == w.tobytes()
                assert np.asarray(got[name]).dtype == w.dtype
        finally:
            interp.close()
            tier3.close()


def _toy_kernel() -> MacroKernel:
    """A one-step identity kernel: y = x."""
    step = NodeStep("n", "identity", BoundNode("identity", ("x",), ("y",)))
    return MacroKernel(
        name="toy", segment_index=0, inputs=("x",), outputs=("y",), steps=(step,),
    )


def _good_oracle(env):
    return {"y": env["x"]}


def _bad_oracle(env):
    return {"y": env["x"] + 1}


class TestMultiKernelDispatcher:  # the dispatcher's old name: test ids are kept stable
    def test_dispatch_runs_the_program_in_place(self):
        dispatcher = KernelDispatcher(oracle="off")
        env = {"x": np.arange(8, dtype=np.uint8)}
        for _ in range(3):
            # "off" is honoured here: the diverging oracle is never asked.
            dispatcher.dispatch(_toy_kernel(), env, _bad_oracle)
        assert env["y"].tobytes() == env["x"].tobytes()
        assert dispatcher.stats == {"dispatches": 3}

    def test_new_shape_triggers_a_new_benchmark(self):
        # What a new input shape re-runs under "first" is the oracle.
        kernel = _toy_kernel()
        dispatcher = KernelDispatcher(oracle="first")
        for size in (8, 8, 16, 16):
            dispatcher.dispatch(
                kernel, {"x": np.arange(size, dtype=np.uint8)}, _good_oracle
            )
        assert dispatcher.stats == {"dispatches": 4, "oracle_checks": 2}

    def test_oracle_first_checks_only_the_benchmark_dispatch(self):
        kernel = _toy_kernel()
        dispatcher = KernelDispatcher(oracle="first")
        env = {"x": np.arange(8, dtype=np.uint8)}
        dispatcher.dispatch(kernel, dict(env), _good_oracle)
        # Already verified for this shape: a diverging oracle is not asked.
        dispatcher.dispatch(kernel, dict(env), _bad_oracle)
        assert dispatcher.stats["oracle_checks"] == 1

    def test_oracle_always_checks_every_dispatch(self):
        kernel = _toy_kernel()
        dispatcher = KernelDispatcher(oracle="always")
        env = {"x": np.arange(8, dtype=np.uint8)}
        for _ in range(3):
            dispatcher.dispatch(kernel, dict(env), _good_oracle)
        assert dispatcher.stats["oracle_checks"] == 3

    def test_oracle_divergence_raises(self):
        kernel = _toy_kernel()
        dispatcher = KernelDispatcher(oracle="first")
        env = {"x": np.arange(8, dtype=np.uint8)}
        with pytest.raises(CodegenDivergence, match="oracle"):
            dispatcher.dispatch(kernel, env, _bad_oracle)

    def test_unknown_oracle_mode_rejected(self):
        with pytest.raises(ValueError, match="oracle"):
            KernelDispatcher(oracle="sometimes")


class TestExactF64Bound:
    def test_large_accumulators_fall_back_to_int64(self, compiled):
        # The small CNN is comfortably inside the 2**53 bound, so every
        # conv/fc step should take the f64 BLAS path.
        for kernel in compiled.macro_kernels.kernels.values():
            for step in kernel.steps:
                if isinstance(step, ConvStep):
                    assert step.exact_f64
                    assert step.weights.dtype == np.float64


# (input h/w, kernel, cin, stride): both sides of the conv-form cut and on it.
CONV_SHAPES = {
    "stem3x3s2-cin3": (9, 3, 3, 2),
    "stem7x7s2-cin3": (15, 7, 3, 2),
    "3x3s1-below-cut": (5, 3, _PER_TAP_MIN_CIN - 1, 1),
    "3x3s1-on-cut": (5, 3, _PER_TAP_MIN_CIN, 1),
    "3x3s1-cin64": (6, 3, 64, 1),
    "3x3s2-cin64": (7, 3, 64, 2),
    "1x1s1-cin64": (4, 1, 64, 1),
}


def _conv_step(size, k, cin, stride, padded, w_qp, cout=5):
    """A one-conv2d graph, its feeds and the ``ConvStep`` codegen picks."""
    pad = k // 2 if padded else 0
    out = (size + 2 * pad - k) // stride + 1
    case = (
        OneNode("conv2d")
        .u8((1, size, size, cin), X_QP)
        .weights((k, k, cin, cout), w_qp)
        .bias(cout)
        .out(TensorType((1, out, out, cout), U8), quant=OUT_QP, stride=(stride, stride),
             padding=((pad, pad), (pad, pad)), activation="relu6")
    )
    kernel = compile_segment(case.graph, Segment("ncore", list(case.graph.nodes)), 0, "conv")
    (step,) = kernel.steps
    assert isinstance(step, ConvStep)
    return case, step


def _assert_both_forms_equal_qconv2d(case, step):
    # The table's int64 conv2d kernel is ``qconv2d``.
    walked = seed_values(case.graph, case.feeds)
    run_nodes(case.graph, case.graph.nodes, walked)
    want = np.asarray(walked["out0"])
    for form in (step, dataclasses.replace(step, per_tap=not step.per_tap)):
        env = seed_values(case.graph, case.feeds)
        form.run(env)
        assert env["out0"].dtype == want.dtype
        assert env["out0"].tobytes() == want.tobytes(), f"per_tap={form.per_tap}"
    return want


class TestConvForms:
    """The two ``conv2d`` forms are never raced at run time, so they are
    compared here: each byte-equal to the other and to ``qconv2d``."""

    @pytest.mark.parametrize("per_channel", [False, True], ids=["tensor", "channel"])
    @pytest.mark.parametrize("padded", [False, True], ids=["valid", "padded"])
    @pytest.mark.parametrize("shape", sorted(CONV_SHAPES))
    def test_both_forms_match_qconv2d(self, shape, padded, per_channel):
        size, k, cin, stride = CONV_SHAPES[shape]
        w_qp = W_QP
        if per_channel:
            w_qp = ChannelQuantParams(
                scales=(0.01, 0.02, 0.005, 0.03, 0.015), zero_points=(99, 3, 250, 128, 0), axis=3,
            )
        case, step = _conv_step(size, k, cin, stride, padded, w_qp)
        assert step.exact_f64
        assert step.per_tap == (k > 1 and cin >= _PER_TAP_MIN_CIN)
        _assert_both_forms_equal_qconv2d(case, step)

    def test_both_forms_match_when_the_f64_proof_fails(self):
        # Zero points this far out make max|x - zp| * sum|w - zp| exceed
        # 2**53: both forms must take the int64 accumulation.
        w_qp = ChannelQuantParams(
            scales=(0.01,) * 5, zero_points=(-(2**45),) * 5, axis=3,
        )
        case, step = _conv_step(9, 3, 3, 2, True, w_qp)
        assert not step.exact_f64
        assert step.weights.dtype == np.int64
        want = _assert_both_forms_equal_qconv2d(case, step)
        assert len(np.unique(want)) > 1  # not one saturated constant


def _masked(dump: str) -> str:
    return re.sub(r"\([0-9.]+ ms\)", "", dump)


class TestDeterminism:
    """The program is a function of the compile key, not of the process."""

    def test_two_uncached_compiles_dump_the_same_ir(self, capsys):
        from repro.cli import main

        dumps = []
        for _ in range(2):
            assert main(["compile", "mobilenet_v1", "-O", "O2",
                         "--dump-ir=codegen", "--no-cache"]) == 0
            dumps.append(_masked(capsys.readouterr().out))
        assert "macro-kernels:" in dumps[0]
        assert dumps[0] == dumps[1]

    def test_two_uncached_compiles_pickle_the_same_bytes(self):
        blobs = [
            pickle.dumps(
                compile_graph(quantized_cnn(), cache=None, pipeline="O2").macro_kernels
            )
            for _ in range(2)
        ]
        assert blobs[0] == blobs[1]

    def test_queries_never_change_the_program(self, compiled):
        executor = NcoreExecutor(
            compiled.model, verify=False, policy="codegen",
            macro_kernels=compiled.macro_kernels,
        )
        kset = executor.macro_kernels
        programs = {index: kernel.steps for index, kernel in kset.kernels.items()}
        try:
            for seed in range(3):
                executor.execute(sample_feeds(seed))
        finally:
            executor.close()
        assert all(kset.kernels[index].steps is steps for index, steps in programs.items())
        # One oracle check per covered segment, on the first query only.
        assert executor.dispatcher.stats == {
            "dispatches": 3 * kset.covered_segments,
            "oracle_checks": kset.covered_segments,
        }
