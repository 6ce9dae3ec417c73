"""The content-addressed compile cache: hits, invalidation, tiers."""

import numpy as np
import pytest

from repro.compiler import (
    CompileCache,
    compile_graph,
    get_compile_cache,
    install_cache,
)
from repro.ncore.config import NcoreConfig
from tests.quantize.test_convert import small_cnn


class TestMemoryTier:
    def test_second_compile_is_a_hit(self):
        cache = CompileCache()
        g = small_cnn()
        first = compile_graph(g, cache=cache)
        second = compile_graph(small_cnn(), cache=cache)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.model is first.model  # same immutable artifact
        assert second.stats == []  # nothing ran
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_cache_none_always_compiles(self):
        g = small_cnn()
        assert not compile_graph(g, cache=None).cache_hit
        assert not compile_graph(g, cache=None).cache_hit

    def test_config_change_misses(self):
        cache = CompileCache()
        compile_graph(small_cnn(), cache=cache)
        again = compile_graph(
            small_cnn(), config=NcoreConfig(slices=8), cache=cache
        )
        assert not again.cache_hit
        assert len(cache) == 2

    def test_pipeline_change_misses(self):
        cache = CompileCache()
        compile_graph(small_cnn(), pipeline="O2", cache=cache)
        assert not compile_graph(small_cnn(), pipeline="O0", cache=cache).cache_hit

    def test_weight_change_misses(self):
        cache = CompileCache()
        compile_graph(small_cnn(), cache=cache)
        poked = small_cnn()
        poked.tensor("w1").data = poked.tensor("w1").data + np.float32(0.5)
        assert not compile_graph(poked, cache=cache).cache_hit

    def test_collect_ir_bypasses_lookup(self):
        cache = CompileCache()
        compile_graph(small_cnn(), cache=cache)
        watched = compile_graph(small_cnn(), cache=cache, collect_ir=True)
        assert not watched.cache_hit
        assert watched.snapshots  # the point of bypassing

    def test_lru_eviction(self):
        cache = CompileCache(capacity=1)
        compile_graph(small_cnn(), pipeline="O0", cache=cache)
        compile_graph(small_cnn(), pipeline="O2", cache=cache)
        assert len(cache) == 1
        assert cache.stats.evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CompileCache(capacity=0)

    def test_stats_hit_rate(self):
        cache = CompileCache()
        compile_graph(small_cnn(), cache=cache)
        compile_graph(small_cnn(), cache=cache)
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestDiskTier:
    def test_fresh_cache_loads_from_disk(self, tmp_path):
        first = compile_graph(
            small_cnn(), cache=CompileCache(directory=tmp_path)
        )
        fresh = CompileCache(directory=tmp_path)
        loaded = fresh.lookup(first.key)
        assert loaded is not None
        assert loaded.ncore_cycles() == first.model.ncore_cycles()
        assert fresh.stats.disk_hits == 1
        # The disk load populated the memory tier.
        assert first.key in fresh

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        result = compile_graph(small_cnn(), cache=cache)
        path = tmp_path / f"{result.key}.pkl"
        path.write_bytes(b"not a pickle")
        fresh = CompileCache(directory=tmp_path)
        assert fresh.lookup(result.key) is None
        assert not path.exists()

    def test_clear_disk(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        compile_graph(small_cnn(), cache=cache)
        assert list(tmp_path.glob("*.pkl"))
        cache.clear(disk=True)
        assert len(cache) == 0
        assert not list(tmp_path.glob("*.pkl"))


class TestDefaultCacheAndFacade:
    def test_install_cache_scopes_the_default(self):
        outer = get_compile_cache()
        scoped = CompileCache()
        with install_cache(scoped):
            assert get_compile_cache() is scoped
            compile_graph(small_cnn())
            assert compile_graph(small_cnn()).cache_hit
        assert get_compile_cache() is outer

    def test_compile_model_facade_is_served_from_cache(self):
        from repro.quantize import calibrate, quantize_graph
        from tests.quantize.test_convert import calibration_batches

        g = small_cnn()
        qg = quantize_graph(g, calibrate(g, calibration_batches()))
        with install_cache(CompileCache()) as scoped:
            first = compile_graph(qg, pipeline="O0", name="facade").model
            second = compile_graph(qg, pipeline="O0", name="facade").model
            assert second is first
            assert scoped.stats.hits == 1

    def test_facade_records_compile_info(self):
        from repro.quantize import calibrate, quantize_graph
        from tests.quantize.test_convert import calibration_batches

        g = small_cnn()
        qg = quantize_graph(g, calibrate(g, calibration_batches()))
        model = compile_graph(
            qg, pipeline="O0", name="provenance", cache=None
        ).model
        assert model.compile_info["pipeline"] == "O0"
        assert model.compile_info["verified"] is True
        assert "lower" in model.compile_info["stages"]
