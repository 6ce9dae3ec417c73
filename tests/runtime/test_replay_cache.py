"""The tier-2 segment replay cache: identical queries skip re-execution.

Replay must be an invisible optimization — outputs bit-identical to a
fresh quantized execution, timing still recomputed per call — with LRU
eviction bounded by ``replay_capacity`` and a clean opt-out.
"""

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.models import PAPER_CHARACTERISTICS
from repro.models.mobilenet import build_mobilenet_v1
from repro.quantize import calibrate, quantize_graph
from repro.runtime import NcoreExecutor, TierPolicy, execute_quantized

from tests.quantize.test_convert import calibration_batches, small_cnn


@pytest.fixture(scope="module")
def compiled():
    g = small_cnn()
    qg = quantize_graph(g, calibrate(g, calibration_batches()))
    return compile_graph(qg, name="smallcnn-replay").model


class TestReplayCache:
    def test_hit_returns_bit_identical_outputs(self, compiled):
        executor = NcoreExecutor(compiled, verify=False)
        feeds = calibration_batches(count=1, seed=21)[0]
        first = executor.execute(feeds)
        assert executor.replay_stats == {"hits": 0, "misses": 1}
        second = executor.execute(feeds)
        assert executor.replay_stats == {"hits": 1, "misses": 1}
        direct = execute_quantized(compiled.graph, feeds)
        for name in direct:
            np.testing.assert_array_equal(first.outputs[name], direct[name])
            np.testing.assert_array_equal(second.outputs[name], direct[name])
        # Timing is modelled, not cached: the hit reports it identically.
        assert second.timing.total_seconds == first.timing.total_seconds
        executor.close()

    def test_distinct_feeds_miss(self, compiled):
        executor = NcoreExecutor(compiled, verify=False)
        a, b = calibration_batches(count=2, seed=5)
        executor.execute(a)
        executor.execute(b)
        assert executor.replay_stats == {"hits": 0, "misses": 2}
        executor.close()

    def test_cached_outputs_are_isolated_from_caller_mutation(self, compiled):
        executor = NcoreExecutor(compiled, verify=False)
        feeds = calibration_batches(count=1, seed=9)[0]
        first = executor.execute(feeds)
        name = next(iter(first.outputs))
        first.outputs[name][...] = 0  # caller scribbles on its result
        second = executor.execute(feeds)
        direct = execute_quantized(compiled.graph, feeds)
        np.testing.assert_array_equal(second.outputs[name], direct[name])
        executor.close()

    def test_lru_eviction_respects_capacity(self, compiled):
        executor = NcoreExecutor(
            compiled, verify=False, policy=TierPolicy(replay_capacity=2)
        )
        batches = calibration_batches(count=3, seed=30)
        for feeds in batches:
            executor.execute(feeds)
        assert len(executor._replay_cache) == 2
        # The oldest entry was evicted: replaying it misses again.
        executor.execute(batches[0])
        assert executor.replay_stats["misses"] == 4
        # The newest entries survived.
        executor.execute(batches[2])
        assert executor.replay_stats["hits"] == 1
        executor.close()

    def test_opt_out_disables_caching(self, compiled):
        executor = NcoreExecutor(
            compiled, verify=False, policy=TierPolicy(replay=False)
        )
        feeds = calibration_batches(count=1, seed=2)[0]
        executor.execute(feeds)
        executor.execute(feeds)
        assert executor.replay_stats == {"hits": 0, "misses": 0}
        assert not executor._replay_cache
        executor.close()


class TestReplayOnZooModel:
    def test_mobilenet_replay_on_off_identical(self):
        graph = build_mobilenet_v1(resolution=64)
        info = PAPER_CHARACTERISTICS["mobilenet_v1"]
        feeds = info.sample_input(graph, seed=7)
        model = compile_graph(
            quantize_graph(graph, calibrate(graph, [feeds]))
        ).model
        with_replay = NcoreExecutor(model, verify=False, policy=TierPolicy())
        without = NcoreExecutor(
            model, verify=False, policy=TierPolicy(replay=False)
        )
        try:
            warm = with_replay.execute(feeds).outputs
            hit = with_replay.execute(feeds).outputs
            plain = without.execute(feeds).outputs
            assert with_replay.replay_stats == {"hits": 1, "misses": 1}
            assert without.replay_stats == {"hits": 0, "misses": 0}
            for name in plain:
                np.testing.assert_array_equal(warm[name], plain[name])
                np.testing.assert_array_equal(hit[name], plain[name])
        finally:
            with_replay.close()
            without.close()
