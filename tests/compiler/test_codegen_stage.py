"""The ``codegen`` compiler stage and its sidecar cache artifact."""

import subprocess
import sys
import textwrap

from repro.compiler import CompileCache, compile_graph, get_pipeline
from repro.compiler.driver import _CODEGEN_KIND
from repro.ncore.codegen import MacroKernelSet
from repro.quantize import calibrate, quantize_graph

from tests.quantize.test_convert import calibration_batches, small_cnn


def quantized_cnn(seed=11):
    g = small_cnn(seed=seed)
    return quantize_graph(g, calibrate(g, calibration_batches()))


class TestStageRegistration:
    def test_codegen_runs_at_o2_only(self):
        assert "codegen" in get_pipeline("O2").stage_names()
        assert "codegen" not in get_pipeline("O0").stage_names()
        assert "codegen" not in get_pipeline("O1").stage_names()

    def test_o2_result_carries_macro_kernels(self):
        result = compile_graph(quantized_cnn(), cache=None, pipeline="O2")
        assert isinstance(result.macro_kernels, MacroKernelSet)
        assert result.macro_kernels.covered_segments >= 1

    def test_o0_result_has_no_macro_kernels(self):
        result = compile_graph(quantized_cnn(), cache=None, pipeline="O0")
        assert result.macro_kernels is None

    def test_stage_stats_record_coverage(self):
        result = compile_graph(quantized_cnn(), cache=None, pipeline="O2")
        changes = result.context.stage_stats("codegen").changes
        assert changes["kernels"] == result.macro_kernels.covered_segments
        assert "uncovered_segments" in changes

    def test_dump_ir_snapshot_includes_macro_kernels(self):
        result = compile_graph(
            quantized_cnn(), cache=None, pipeline="O2", collect_ir=True
        )
        assert "macro-kernels:" in result.snapshots["codegen"]
        assert "compute cycles  [quantize, conv2d:" in result.snapshots["codegen"]


class TestSidecarArtifact:
    def test_memory_cache_hit_restores_macro_kernels(self):
        cache = CompileCache()
        first = compile_graph(quantized_cnn(), cache=cache)
        hit = compile_graph(quantized_cnn(), cache=cache)
        assert hit.cache_hit
        assert isinstance(hit.macro_kernels, MacroKernelSet)
        assert hit.macro_kernels.covered_segments == \
            first.macro_kernels.covered_segments

    def test_sidecar_lands_on_disk_next_to_the_model(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        result = compile_graph(quantized_cnn(), cache=cache)
        key = result.model.compile_info["key"]
        assert (tmp_path / f"{key}.pkl").exists()
        assert (tmp_path / f"{key}.{_CODEGEN_KIND}.pkl").exists()

    def test_fresh_cache_instance_reloads_from_disk(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        first = compile_graph(quantized_cnn(), cache=cache)
        key = first.model.compile_info["key"]
        reloaded = CompileCache(directory=tmp_path)
        artifact = reloaded.lookup_artifact(key, _CODEGEN_KIND)
        assert isinstance(artifact, MacroKernelSet)
        assert artifact.covered_segments == \
            first.macro_kernels.covered_segments
        assert reloaded.stats.artifact_hits == 1

    def test_o0_compile_stores_no_sidecar(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        result = compile_graph(quantized_cnn(), cache=cache, pipeline="O0")
        key = result.model.compile_info["key"]
        assert not (tmp_path / f"{key}.{_CODEGEN_KIND}.pkl").exists()

    def test_clear_drops_sidecar_files_too(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        result = compile_graph(quantized_cnn(), cache=cache)
        key = result.model.compile_info["key"]
        cache.clear(disk=True)
        assert not (tmp_path / f"{key}.{_CODEGEN_KIND}.pkl").exists()
        assert cache.lookup_artifact(key, _CODEGEN_KIND) is None

    def test_round_trip_across_processes(self, tmp_path):
        """A second process picks the MacroKernels up from disk and runs
        them bit-identically to the interpreter — the pickled artifact is
        self-contained."""
        cache = CompileCache(directory=tmp_path)
        result = compile_graph(quantized_cnn(), cache=cache)
        covered = result.macro_kernels.covered_segments
        script = textwrap.dedent(f"""
            import numpy as np
            from repro.compiler import CompileCache, compile_graph
            from repro.runtime import NcoreExecutor, execute_quantized
            from tests.compiler.test_codegen_stage import quantized_cnn

            cache = CompileCache(directory={str(tmp_path)!r})
            result = compile_graph(quantized_cnn(), cache=cache)
            assert result.cache_hit, "expected a disk cache hit"
            kernels = result.macro_kernels
            assert kernels is not None
            assert kernels.covered_segments == {covered}

            executor = NcoreExecutor(
                result.model, verify=False, policy="codegen",
                macro_kernels=kernels,
            )
            rng = np.random.default_rng(3)
            feeds = {{"x": rng.uniform(
                -1, 1, size=(1, 8, 8, 3)).astype(np.float32)}}
            got = executor.execute(feeds).outputs
            want = execute_quantized(result.model.graph, feeds)
            assert executor.last_tier == "codegen"
            for name, value in want.items():
                assert np.asarray(got[name]).tobytes() == \\
                    np.asarray(value).tobytes()
            executor.close()
            print("ROUNDTRIP-OK")
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "ROUNDTRIP-OK" in proc.stdout

    def test_corrupt_sidecar_is_a_miss(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        result = compile_graph(quantized_cnn(), cache=cache)
        key = result.model.compile_info["key"]
        path = tmp_path / f"{key}.{_CODEGEN_KIND}.pkl"
        path.write_bytes(b"not a pickle")
        fresh = CompileCache(directory=tmp_path)
        assert fresh.lookup_artifact(key, _CODEGEN_KIND) is None
        assert not path.exists()  # corrupt file unlinked

    def test_lost_sidecar_is_a_compile_miss(self, tmp_path):
        """A model hit whose sidecar is gone recompiles and re-stores both;
        it must not hand back a model pinned to the per-node walk."""
        import numpy as np

        from repro.runtime import NcoreExecutor

        first = compile_graph(
            quantized_cnn(), cache=CompileCache(directory=tmp_path), pipeline="O2"
        )
        path = tmp_path / f"{first.key}.{_CODEGEN_KIND}.pkl"
        path.write_bytes(path.read_bytes()[:64])
        again = compile_graph(
            quantized_cnn(), cache=CompileCache(directory=tmp_path), pipeline="O2"
        )
        assert not again.cache_hit
        assert isinstance(again.macro_kernels, MacroKernelSet)
        assert again.macro_kernels.covered_segments == \
            first.macro_kernels.covered_segments
        assert path.exists()
        executor = NcoreExecutor(
            again.model, verify=False, macro_kernels=again.macro_kernels
        )
        try:
            rng = np.random.default_rng(3)
            executor.execute(
                {"x": rng.uniform(-1, 1, size=(1, 8, 8, 3)).astype(np.float32)}
            )
            assert executor.last_tier == "codegen"
        finally:
            executor.close()

    def test_o0_hit_needs_no_sidecar(self, tmp_path):
        compile_graph(
            quantized_cnn(), cache=CompileCache(directory=tmp_path), pipeline="O0"
        )
        hit = compile_graph(
            quantized_cnn(), cache=CompileCache(directory=tmp_path), pipeline="O0"
        )
        assert hit.cache_hit and hit.macro_kernels is None
