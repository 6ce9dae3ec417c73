"""Tests for model compilation and one blocking query on the executor."""

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.graph import execute_float
from repro.quantize import calibrate, quantize_graph
from repro.runtime import NcoreExecutor
from tests.quantize.test_convert import calibration_batches, small_cnn
from tests.helpers import CHA_DMA_BYTES_PER_CYCLE


@pytest.fixture(scope="module")
def compiled():
    g = small_cnn()
    qg = quantize_graph(g, calibrate(g, calibration_batches()))
    return compile_graph(qg, name="smallcnn").model


class TestCompileModel:
    def test_segments_and_loadables(self, compiled):
        assert compiled.ncore_segments  # something landed on Ncore
        for index in compiled.ncore_segments:
            assert index in compiled.loadables
            assert compiled.loadables[index].kernels

    def test_cycle_estimate_positive(self, compiled):
        assert compiled.ncore_cycles(CHA_DMA_BYTES_PER_CYCLE) > 0

    def test_summary_renders(self, compiled):
        text = compiled.summary()
        assert "ncore" in text
        assert "cycles" in text


class TestInferenceSession:
    def test_run_produces_outputs_and_timing(self, compiled):
        executor = NcoreExecutor(compiled, verify=False)
        feeds = calibration_batches(count=1, seed=4)[0]
        result = executor.execute(feeds)
        assert result.outputs
        assert result.timing.ncore_seconds > 0
        assert result.timing.x86_seconds > 0
        assert 0 < result.timing.ncore_fraction < 1
        executor.close()

    def test_session_matches_direct_quantized_execution(self, compiled):
        from repro.runtime import execute_quantized

        executor = NcoreExecutor(compiled, verify=False)
        feeds = calibration_batches(count=1, seed=8)[0]
        result = executor.execute(feeds)
        direct = execute_quantized(compiled.graph, feeds)
        for name in direct:
            np.testing.assert_array_equal(result.outputs[name], direct[name])
        executor.close()

    def test_quantized_session_tracks_float_model(self, compiled):
        g = small_cnn()
        executor = NcoreExecutor(compiled, verify=False)
        # Use a calibration batch: PTQ clips activations outside the
        # calibrated range by design, so fidelity is only promised there.
        feeds = calibration_batches(count=1, seed=5)[0]
        result = executor.execute(feeds)
        float_out = list(execute_float(g, feeds).values())[0]
        quant_out = list(result.outputs.values())[0]
        assert np.abs(quant_out - float_out).max() < 0.15 * max(
            1e-3, np.abs(float_out).max()
        )
        executor.close()

    def test_two_sessions_conflict_on_one_soc(self, compiled):
        from repro.runtime import DriverError
        from repro.soc import ChaSoc

        soc = ChaSoc()
        first = NcoreExecutor(compiled, soc=soc, verify=False)
        # A second executor on the same SoC needs its own driver claim; the
        # device is busy. (Each executor builds its own driver instance, so
        # model the conflict through the driver of the first.)
        with pytest.raises(DriverError):
            first.driver.open("intruder")
        first.close()


class TestPartitionRendering:
    def test_fig9_style_rendering(self, compiled):
        # The compile summary shows the delegate's graph modification
        # (Fig. 9): which segments run on Ncore, which fall back to x86.
        lines = compiled.summary().splitlines()[1:]
        assert any(" ncore " in line for line in lines)
        assert any(" x86 " in line for line in lines)


class TestX86SegmentCost:
    def test_traced_x86_segments_sum_to_the_x86_graph_seconds(self):
        # The schedule spans and the Table IX x86 portion read one
        # per-segment cost (delegate.x86_segment_costs).
        from repro import obs
        from repro.perf.system import get_system
        from repro.runtime import TierPolicy
        from repro.runtime.delegate import x86_graph_seconds
        from repro.soc import ChaSoc

        system = get_system("ssd_mobilenet_v1")
        # O2 carries macro-kernels; without the first-dispatch oracle the
        # query runs at steady cost.
        model = compile_graph(system.compiled.graph, name="ssd", cache=None).model
        tracer, _ = observation = obs.observe()
        executor = NcoreExecutor(
            model, soc=ChaSoc(obs=observation), verify=False,
            policy=TierPolicy(oracle="off"),
        )
        executor.execute(system.info.sample_input(model.graph, seed=0))
        executor.close()
        spans = [s for s in tracer.spans_on("delegate.schedule")
                 if s.name.startswith("x86.segment[")]
        assert len(spans) == len(model.x86_segments) > 1
        traced = sum(s.duration_us for s in spans) * 1e-6
        expected, _ = x86_graph_seconds(model, executor.soc.cores[0])
        assert traced == pytest.approx(expected, rel=1e-9)
