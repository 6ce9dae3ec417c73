"""The device executor: ownership, the verify gate, the segment walk."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.analyze import AnalysisError
from repro.compiler import compile_graph
from repro.ncore.config import NcoreConfig
from repro.graph.planner import RowRange
from repro.runtime import NcoreExecutor, execute_quantized
from tests.quantize.test_convert import calibration_batches, small_cnn


@pytest.fixture(scope="module")
def compiled():
    from repro.quantize import calibrate, quantize_graph

    g = small_cnn()
    qg = quantize_graph(g, calibrate(g, calibration_batches()))
    return compile_graph(qg, name="smallcnn").model


def corrupt(model):
    """A deep copy whose first Loadable overflows the SRAM (error finding)."""
    bad = copy.deepcopy(model)
    index = bad.ncore_segments[0]
    loadable = bad.loadables[index]
    name = next(iter(loadable.memory_plan.data_allocs))
    rows = NcoreConfig().sram_rows
    loadable.memory_plan.data_allocs[name] = RowRange(rows - 2, 4)
    return bad


class TestVerifyGate:
    def test_executor_refuses_a_bad_loadable(self, compiled):
        with pytest.raises(AnalysisError, match="sram-overflow"):
            NcoreExecutor(corrupt(compiled))

    def test_verify_false_bypasses_the_gate(self, compiled):
        executor = NcoreExecutor(corrupt(compiled), verify=False)
        executor.close()

    def test_clean_model_passes_the_gate(self, compiled):
        executor = NcoreExecutor(compiled)  # verify=True is the default
        executor.close()


class TestNcoreExecutor:
    def test_execute_matches_direct_quantized_execution(self, compiled):
        executor = NcoreExecutor(compiled, verify=False)
        feeds = calibration_batches(count=1, seed=8)[0]
        result = executor.execute(feeds)
        direct = execute_quantized(compiled.graph, feeds)
        for name in direct:
            np.testing.assert_array_equal(result.outputs[name], direct[name])
        assert result.timing.ncore_seconds > 0
        assert result.timing.x86_seconds > 0
        executor.close()

    def test_batching_amortizes_ncore_time(self, compiled):
        # The one batched formula is the compiled model's, read on the
        # executor's device clock.
        executor = NcoreExecutor(compiled, verify=False)
        clock = executor.soc.ncore.config.clock_hz
        bpc = executor.soc.ncore_to_dram_bandwidth() / clock
        single = compiled.ncore_cycles_batched(1, bpc) / clock
        batched = compiled.ncore_cycles_batched(8, bpc) / clock
        assert batched <= single
        with pytest.raises(ValueError):
            compiled.ncore_cycles_batched(0, bpc)
        executor.close()


def _walk_case(kind):
    """A small (graph, feeds) pair: the int8 CNN or a tiny bf16 GNMT."""
    from repro.quantize import calibrate, convert_to_bf16, quantize_graph

    if kind == "int8":
        g = small_cnn()
        feeds = calibration_batches(count=1, seed=17)[0]
        return quantize_graph(g, calibrate(g, calibration_batches())), feeds
    from repro.models import build_gnmt

    g = build_gnmt(seq_len=4, hidden=32, layers=2, vocab=100)
    rng = np.random.default_rng(7)
    feeds = {
        name: rng.integers(0, 90, size=g.tensor(name).shape).astype(np.int32)
        for name in g.inputs
    }
    return convert_to_bf16(g), feeds


class TestSegmentWalk:
    """Every graph mode is the same segment walk: byte-equal to
    ``execute_quantized``, whichever segments have macro-kernels."""

    @pytest.mark.parametrize("kind", ["int8", "bf16"])
    @pytest.mark.parametrize(
        "mode, policy, tiers",
        [
            ("interpreter", "interpreter", ["interpreter", "interpreter"]),
            ("codegen", "codegen", ["codegen", "codegen"]),
            ("auto", "auto", ["codegen", "replay"]),
            # Codegen with one segment's macro-kernel deliberately dropped.
            ("uncovered", "codegen", ["codegen", "codegen"]),
        ],
    )
    def test_every_mode_matches_execute_quantized(self, kind, mode, policy, tiers):
        graph, feeds = _walk_case(kind)
        result = compile_graph(graph, name=f"walk-{kind}")
        kset = result.macro_kernels
        assert kset is not None and kset.kernels
        if mode == "uncovered":
            dropped = min(kset.kernels)
            kset = dataclasses.replace(
                kset,
                kernels={i: k for i, k in kset.kernels.items() if i != dropped},
                uncovered={**kset.uncovered, dropped: "dropped by the test"},
            )
        want = execute_quantized(result.model.graph, feeds)
        model = dataclasses.replace(result.model, macro_kernels=kset)
        executor = NcoreExecutor(model, verify=False, policy=policy)
        try:
            for tier in tiers:
                got = executor.execute(feeds).outputs
                assert executor.last_tier == tier
                assert got.keys() == want.keys()
                for name, value in want.items():
                    assert got[name].dtype == np.asarray(value).dtype
                    assert got[name].tobytes() == np.asarray(value).tobytes()
            dispatched = executor.dispatcher.stats.get("dispatches", 0)
            if mode == "interpreter":
                assert dispatched == 0
            elif mode == "uncovered":
                assert dispatched == 2 * len(kset.kernels)
        finally:
            executor.close()
