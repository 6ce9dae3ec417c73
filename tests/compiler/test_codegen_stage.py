"""The ``codegen`` compiler stage; the compiled model carries its kernels."""

import subprocess
import sys
import textwrap

import numpy as np

from repro.compiler import CompileCache, compile_graph, get_pipeline
from repro.ncore.codegen import MacroKernelSet
from repro.quantize import calibrate, quantize_graph
from repro.runtime import NcoreExecutor

from tests.quantize.test_convert import calibration_batches, small_cnn


def quantized_cnn(seed=11):
    g = small_cnn(seed=seed)
    return quantize_graph(g, calibrate(g, calibration_batches()))


def served_tier(model):
    """Open an executor on ``model`` alone, run one query; (tier, stats)."""
    executor = NcoreExecutor(model, verify=False)
    try:
        rng = np.random.default_rng(3)
        executor.execute(
            {"x": rng.uniform(-1, 1, size=(1, 8, 8, 3)).astype(np.float32)}
        )
        return executor.last_tier, executor.dispatcher.stats
    finally:
        executor.close()


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


class TestModelCarriesKernels:
    def test_uncached_compile_runs_tier3(self):
        """``cache=None`` used to lose the kernels in transit: the executor
        looked them up in a process-wide cache that never saw them."""
        model = compile_graph(quantized_cnn(), cache=None).model
        tier, stats = served_tier(model)
        assert tier == "codegen"
        assert stats["oracle_checks"] >= 1

    def test_disk_directory_holds_one_file_per_key(self, tmp_path):
        result = compile_graph(quantized_cnn(), cache=CompileCache(directory=tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == [f"{result.key}.pkl"]

    def test_o0_model_has_no_kernels_and_walks_per_node(self):
        model = compile_graph(quantized_cnn(), cache=None, pipeline="O0").model
        assert model.macro_kernels is None
        assert served_tier(model) == ("interpreter", {})

    def test_truncated_pickle_is_recompiled_with_kernels(self, tmp_path):
        first = compile_graph(quantized_cnn(), cache=CompileCache(directory=tmp_path))
        path = tmp_path / f"{first.key}.pkl"
        path.write_bytes(path.read_bytes()[:64])
        fresh = CompileCache(directory=tmp_path)
        assert fresh.lookup(first.key) is None
        assert not path.exists()  # corrupt file unlinked
        again = compile_graph(quantized_cnn(), cache=fresh)
        assert not again.cache_hit and path.exists()
        assert again.macro_kernels.covered_segments == \
            first.macro_kernels.covered_segments
        assert served_tier(again.model)[0] == "codegen"


class TestSidecarArtifact:
    """Same subject as :class:`TestModelCarriesKernels`; the class keeps its
    pre-PR-20 name only because these five test ids are pinned."""

    def test_memory_cache_hit_restores_macro_kernels(self):
        cache = CompileCache()
        first = compile_graph(quantized_cnn(), cache=cache)
        hit = compile_graph(quantized_cnn(), cache=cache)
        assert hit.cache_hit and hit.model is first.model
        assert isinstance(hit.model.macro_kernels, MacroKernelSet)

    def test_fresh_cache_instance_reloads_from_disk(self, tmp_path):
        first = compile_graph(quantized_cnn(), cache=CompileCache(directory=tmp_path))
        reloaded = CompileCache(directory=tmp_path)
        model = reloaded.lookup(first.key)
        assert reloaded.stats.disk_hits == 1
        assert model.compile_info == first.model.compile_info
        assert model.macro_kernels.covered_segments == \
            first.macro_kernels.covered_segments

    def test_clear_drops_sidecar_files_too(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        result = compile_graph(quantized_cnn(), cache=cache)
        cache.clear(disk=True)
        assert not list(tmp_path.iterdir())
        assert cache.lookup(result.key) is None

    def test_round_trip_across_processes(self, tmp_path):
        """A second process picks the model up from disk and runs its
        MacroKernels bit-identically to the interpreter — the pickled
        artifact is self-contained."""
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
            assert result.macro_kernels.covered_segments == {covered}

            executor = NcoreExecutor(result.model, verify=False, policy="codegen")
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

    def test_o0_hit_needs_no_sidecar(self, tmp_path):
        compile_graph(
            quantized_cnn(), cache=CompileCache(directory=tmp_path), pipeline="O0"
        )
        hit = compile_graph(
            quantized_cnn(), cache=CompileCache(directory=tmp_path), pipeline="O0"
        )
        assert hit.cache_hit and hit.macro_kernels is None
