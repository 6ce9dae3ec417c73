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
from repro.dtypes import ChannelQuantParams, NcoreDType, QuantParams, dtype_info
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
    exact_dtype,
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

    def test_a_run_leaves_the_artifact_bytes_alone(self, compiled):
        # A ConvStep builds its epilogue on first run and keeps it; it is
        # derived from the step's fields, so pickling never carries it.
        graph = compiled.model.graph
        index, kernel = next(iter(compiled.macro_kernels.kernels.items()))
        before = pickle.dumps(kernel)
        env = seed_values(graph, sample_feeds())
        for segment in compiled.model.segments[:index]:
            run_nodes(graph, segment.nodes, env)
        kernel.run(env)
        assert any("_epilogue" in vars(step) for step in kernel.steps)
        assert pickle.dumps(kernel) == before
        again = dict(env)
        pickle.loads(before).run(again)
        for name in kernel.outputs:
            assert again[name].tobytes() == env[name].tobytes()


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


def _extreme_step(op, x_dtype, x_code, tap_sum, seed=0):
    """A one-node conv2d / depthwise_conv2d / fully_connected whose input is
    all ``x_code`` (zero point 0) and whose channel-0 weights (zero point 0,
    seeded) sum to ``tap_sum`` over the accumulated axes: the channel-0
    accumulator *is* ``x_code * tap_sum`` and no other channel's is larger."""
    rng = np.random.default_rng(seed)
    x_shape, w_shape, out_shape, taps = {
        # 5x5x24 (im2col: cin below the per-tap cut) = 600 taps, 23x23 = 529
        # taps, 600 taps: enough for a column of 2**17.
        "conv2d": ((1, 5, 5, 24), (5, 5, 24, 4), (1, 1, 1, 4), 600),
        "depthwise_conv2d": ((1, 23, 23, 4), (23, 23, 4), (1, 1, 1, 4), 529),
        "fully_connected": ((2, 600), (600, 4), (2, 4), 600),
    }[op]
    column = np.zeros(taps, dtype=np.int64)
    column[: tap_sum // 255] = 255
    column[tap_sum // 255] = tap_sum % 255
    channels = rng.integers(0, 200, size=(taps, 4))  # sums well below tap_sum
    channels[:, 0] = rng.permutation(column)
    assert channels.sum(axis=0).argmax() == 0 and channels[:, 0].sum() == tap_sum
    weights = channels.astype(np.uint8).reshape(w_shape)
    zero = QuantParams(scale=0.02, zero_point=0, dtype=x_dtype)
    info = dtype_info(x_dtype)
    case = OneNode(op)
    case._feed(TensorType(x_shape, x_dtype), np.full(x_shape, x_code, info.numpy_dtype), zero)
    case.const(weights, QuantParams(scale=0.01, zero_point=0, dtype=U8))
    case.bias(4)
    case.out(TensorType(out_shape, U8), quant=QuantParams(scale=17.0, zero_point=3, dtype=U8),
             activation="relu")
    kernel = compile_segment(case.graph, Segment("ncore", list(case.graph.nodes)), 0, "k")
    (step,) = kernel.steps
    assert isinstance(step, ConvStep)
    return case, step


def _assert_equal_to_the_walk(case, step):
    """``step`` against the table's kernel for its op (the walk)."""
    walked = seed_values(case.graph, case.feeds)
    run_nodes(case.graph, case.graph.nodes, walked)
    env = seed_values(case.graph, case.feeds)
    step.run(env, {})
    assert env["out0"].dtype == walked["out0"].dtype
    assert env["out0"].tobytes() == np.asarray(walked["out0"]).tobytes()
    return np.asarray(walked["out0"])


MATMUL_OPS = ("conv2d", "depthwise_conv2d", "fully_connected")


class TestExactDtypeBound:
    """f32 below 2**24, f64 below 2**53, int64 beyond: the rule, on both
    sides of each cut, with the largest partial sum really reached."""

    def test_the_rule(self):
        assert exact_dtype(0) is np.float32
        assert exact_dtype(2**24 - 1) is np.float32
        assert exact_dtype(2**24) is np.float64
        assert exact_dtype(2**53 - 1) is np.float64
        assert exact_dtype(2**53) is np.int64

    @pytest.mark.parametrize("op", MATMUL_OPS)
    def test_a_partial_sum_of_2_24_minus_1_accumulates_in_f32(self, op):
        # 2**24 - 1 == 255 * 65793: uint8 inputs all 255.
        case, step = _extreme_step(op, U8, 255, 65793)
        assert step.acc_bound == 2**24 - 1
        assert step.weights.dtype == np.float32
        out = _assert_equal_to_the_walk(case, step)
        assert 3 < out.ravel()[0] < 255  # channel 0 reached it, unsaturated

    @pytest.mark.parametrize("op", MATMUL_OPS)
    def test_a_partial_sum_of_2_24_accumulates_in_f64(self, op):
        # 2**24 == 128 * 2**17: int8 inputs all -128.
        case, step = _extreme_step(op, NcoreDType.INT8, -128, 2**17)
        assert step.acc_bound == 2**24
        assert step.weights.dtype == np.float64
        _assert_equal_to_the_walk(case, step)
        # One unit less and the same step is f32 again.
        case, step = _extreme_step(op, NcoreDType.INT8, -128, 2**17 - 1)
        assert step.weights.dtype == np.float32
        _assert_equal_to_the_walk(case, step)

    @pytest.mark.parametrize("op", MATMUL_OPS)
    def test_the_f32_sum_would_be_wrong_one_past_the_bound(self, op):
        # The rule is tight: force f32 weights on the 2**24 case and an odd
        # partial sum above 2**24 is no longer representable.
        case, step = _extreme_step(op, U8, 255, 65793 + 2)
        assert step.weights.dtype == np.float64
        forced = dataclasses.replace(step, weights=step.weights.astype(np.float32))
        exact = step._accumulate(case.feeds["in0"])
        assert exact.max() == 255 * (65793 + 2) and exact.max() % 2 == 1
        assert forced._accumulate(case.feeds["in0"]).max() != exact.max()

    def test_the_small_cnn_bakes_float32(self, compiled):
        steps = [
            step for kernel in compiled.macro_kernels.kernels.values()
            for step in kernel.steps if isinstance(step, ConvStep)
        ]
        assert steps and all(step.weights.dtype == np.float32 for step in steps)

    @pytest.mark.parametrize("op", MATMUL_OPS)
    def test_beyond_2_53_accumulates_in_int64(self, op):
        axis = {"conv2d": 3, "depthwise_conv2d": 2, "fully_connected": 1}[op]
        w_qp = ChannelQuantParams(scales=(0.01,) * 4, zero_points=(-(2**45),) * 4, axis=axis)
        case = {
            "conv2d": lambda c: c.u8((1, 4, 4, 3), X_QP).weights((3, 3, 3, 4), w_qp).out(
                TensorType((1, 2, 2, 4), U8), quant=OUT_QP),
            "depthwise_conv2d": lambda c: c.u8((1, 4, 4, 4), X_QP).weights((3, 3, 4), w_qp).out(
                TensorType((1, 2, 2, 4), U8), quant=OUT_QP),
            "fully_connected": lambda c: c.u8((2, 6), X_QP).weights((6, 4), w_qp).out(
                TensorType((2, 4), U8), quant=OUT_QP),
        }[op](OneNode(op))
        kernel = compile_segment(case.graph, Segment("ncore", list(case.graph.nodes)), 0, "k")
        (step,) = kernel.steps
        assert step.acc_bound >= 2**53 and step.weights.dtype == np.int64
        _assert_equal_to_the_walk(case, step)


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
    # The table's conv2d kernel is ``qconv2d``.
    for form in (step, dataclasses.replace(step, per_tap=not step.per_tap)):
        want = _assert_equal_to_the_walk(case, form)
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
        assert step.weights.dtype == np.float32
        assert step.per_tap == (k > 1 and cin >= _PER_TAP_MIN_CIN)
        _assert_both_forms_equal_qconv2d(case, step)

    def test_both_forms_match_when_the_f64_proof_fails(self):
        # Zero points this far out make max|x - zp| * sum|w - zp| exceed
        # 2**53: both forms must take the int64 accumulation.
        w_qp = ChannelQuantParams(
            scales=(0.01,) * 5, zero_points=(-(2**45),) * 5, axis=3,
        )
        case, step = _conv_step(9, 3, 3, 2, True, w_qp)
        assert step.weights.dtype == np.int64
        want = _assert_both_forms_equal_qconv2d(case, step)
        assert len(np.unique(want)) > 1  # not one saturated constant


    def test_per_tap_proves_each_block_and_sums_taps_wider(self):
        # ResNet-50's 3x3x512x512 shape: the whole window's bound is past
        # 2**24 (the zoo's own sit at 2**23.97 / 2**24.04) but one tap's
        # 512-long block is not, so the blocks are sgemm and only their sum
        # is float64.
        case, step = _conv_step(4, 3, 512, 1, True, W_QP, cout=512)
        assert step.per_tap
        assert 2**24 <= step.acc_bound < 2**53
        assert step.weights.dtype == np.float32
        block = np.abs(step.weights).sum(axis=2).max() * 128  # max|x - 128|
        assert block < 2**24
        assert step._accumulate(case.feeds["in0"]).dtype == np.float64
        want = _assert_equal_to_the_walk(case, step)
        assert len(np.unique(want)) > 1
        # im2col has no blocks to prove: the same node bakes float64 there.
        whole = dataclasses.replace(
            step, per_tap=False, weights=step.weights.astype(exact_dtype(step.acc_bound))
        )
        assert whole.weights.dtype == np.float64
        _assert_equal_to_the_walk(case, whole)


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
        executor = NcoreExecutor(compiled.model, verify=False, policy="codegen")
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
