"""End-to-end integration tests: the full stack on reduced models.

Each test runs build -> optimize -> calibrate -> quantize -> partition ->
lower -> execute, and checks both the numerics and the compilation
artifacts, the way a downstream user exercises the library.
"""

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.graph import execute_float
from repro.graph.passes import default_pipeline
from repro.models import PAPER_CHARACTERISTICS, build_mobilenet_v1
from repro.quantize import calibrate, quantize_graph
from repro.runtime import NcoreExecutor
from tests.helpers import CHA_DMA_BYTES_PER_CYCLE


@pytest.fixture(scope="module")
def mobilenet_pipeline():
    """A reduced-resolution MobileNet through the whole toolflow."""
    info = PAPER_CHARACTERISTICS["mobilenet_v1"]
    float_graph = build_mobilenet_v1(resolution=64)
    reference_graph = build_mobilenet_v1(resolution=64)
    batches = [info.sample_input(float_graph, seed=s) for s in (0, 1)]
    default_pipeline().run(float_graph)
    quantized = quantize_graph(float_graph, calibrate(float_graph, batches))
    compiled = compile_graph(quantized, pipeline="O0", name="mobilenet64").model
    return reference_graph, compiled, batches


class TestMobileNetPipeline:
    def test_quantized_top1_matches_float(self, mobilenet_pipeline):
        reference_graph, compiled, batches = mobilenet_pipeline
        executor = NcoreExecutor(compiled, verify=False)
        agreements = 0
        for seed in range(5):
            info = PAPER_CHARACTERISTICS["mobilenet_v1"]
            feeds = info.sample_input(reference_graph, seed=100 + seed)
            float_probs = list(execute_float(reference_graph, feeds).values())[0]
            quant_probs = list(executor.execute(feeds).outputs.values())[0]
            agreements += int(np.argmax(float_probs) == np.argmax(quant_probs))
        executor.close()
        assert agreements >= 4  # top-1 agreement on >= 4/5 random inputs

    def test_most_work_lands_on_ncore(self, mobilenet_pipeline):
        _, compiled, _ = mobilenet_pipeline
        from repro.graph.partitioner import ncore_coverage

        assert ncore_coverage(compiled.graph, compiled.segments) == pytest.approx(1.0)

    def test_weights_pinned_like_the_paper(self, mobilenet_pipeline):
        # "the GCL determines that all the model's weights fit in on-chip
        # SRAM, and promotes the weight buffers to become persistent".
        _, compiled, _ = mobilenet_pipeline
        for index in compiled.ncore_segments:
            assert compiled.loadables[index].memory_plan.weights_pinned

    def test_every_conv_became_a_kernel(self, mobilenet_pipeline):
        _, compiled, _ = mobilenet_pipeline
        kernels = [
            k for i in compiled.ncore_segments for k in compiled.loadables[i].kernels
        ]
        conv_kernels = [k for k in kernels if k.kernel == "conv2d"]
        dw_kernels = [k for k in kernels if k.kernel == "depthwise_conv2d"]
        assert len(conv_kernels) == 14
        assert len(dw_kernels) == 13

    def test_cycle_estimate_scales_with_resolution(self):
        def cycles(resolution):
            info = PAPER_CHARACTERISTICS["mobilenet_v1"]
            g = build_mobilenet_v1(resolution=resolution)
            default_pipeline().run(g)
            qg = quantize_graph(g, calibrate(g, [info.sample_input(g)]))
            return compile_graph(qg, pipeline="O0").model.ncore_cycles(CHA_DMA_BYTES_PER_CYCLE)

        # 2x the resolution ~= 4x the pixels; the cycle count must track
        # it within the tiling slack.  (At tiny resolutions the late
        # high-channel layers dominate and scaling washes out — itself a
        # real property of the W x K mapping.)
        small, large = cycles(128), cycles(224)
        assert 1.8 < large / small < 6.0


class TestSerializationRoundTripThroughStack:
    def test_save_compile_load_run(self, tmp_path, mobilenet_pipeline):
        from repro.graph.frontends import load_graph, save_graph
        from repro.runtime import execute_quantized

        _, compiled, batches = mobilenet_pipeline
        save_graph(compiled.graph, tmp_path / "mobilenet64_q")
        loaded = load_graph(tmp_path / "mobilenet64_q")
        direct = execute_quantized(compiled.graph, batches[0])
        via_disk = execute_quantized(loaded, batches[0])
        for name in direct:
            np.testing.assert_array_equal(direct[name], via_disk[name])


class TestDriverLifecycleWithInference:
    def test_post_then_inference_then_release(self, mobilenet_pipeline):
        # The full bring-up sequence: probe -> POST -> claim -> run ->
        # release.
        from repro.runtime import NcoreKernelDriver
        from repro.soc import ChaSoc

        _, compiled, batches = mobilenet_pipeline
        soc = ChaSoc()
        driver = NcoreKernelDriver(soc)
        driver.probe()
        assert not driver.self_test().failures
        executor = NcoreExecutor(compiled, soc=soc, verify=False)
        result = executor.execute(batches[0])
        assert result.timing.total_seconds > 0
        executor.close()
