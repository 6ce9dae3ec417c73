"""Cycle attribution: segment features, tier-stamped records, harvest outputs."""

import json

import pytest

from repro.compiler import compile_graph
from repro.obs.attrib import (
    collapsed_stacks,
    model_run_records,
    segment_features,
    write_harvest,
)
from repro.runtime.executor import TIER_CODEGEN, TIER_REPLAY
from tests.quantize.test_convert import calibration_batches, small_cnn
from tests.helpers import CHA_DMA_BYTES_PER_CYCLE as BPC


@pytest.fixture(scope="module")
def compiled():
    from repro.quantize import calibrate, quantize_graph

    g = small_cnn()
    qg = quantize_graph(g, calibrate(g, calibration_batches()))
    return compile_graph(qg, name="smallcnn").model


class TestSegmentFeatures:
    def test_one_record_per_segment(self, compiled):
        records = segment_features(compiled, BPC)
        assert len(records) == len(compiled.segments)
        assert [r["segment"] for r in records] == list(range(len(records)))

    def test_ncore_segments_carry_kernel_attribution(self, compiled):
        records = segment_features(compiled, BPC)
        ncore = [r for r in records if r["target"] == "ncore"]
        assert ncore, "expected at least one Ncore segment"
        for record in ncore:
            assert record["kernels"] > 0
            assert record["compute_cycles"] > 0
            assert record["total_cycles"] >= record["compute_cycles"]
            assert sum(record["op_cycles"].values()) > 0
            assert record["macs"] > 0
            # Op mix covers every node in the segment.
            assert sum(record["ops"].values()) == record["nodes"]

    def test_dma_bytes_follow_the_memory_plan(self, compiled):
        for record in segment_features(compiled, BPC):
            if record["weights_pinned"]:
                assert record["dma_bytes"] == 0
            else:
                assert record["dma_bytes"] == record["weight_bytes"]


class TestCollector:
    def test_record_model_run_stamps_tier_and_count(self, compiled):
        records = (model_run_records(compiled, TIER_CODEGEN, BPC, batch=4, count=3)
                   + model_run_records(compiled, TIER_REPLAY, BPC, count=2))
        per_run = len(compiled.segments)
        assert len(records) == 2 * per_run
        executed = [r for r in records if r["tier"] == TIER_CODEGEN]
        assert len(executed) == per_run
        assert all(r["count"] == 3 and r["batch"] == 4 for r in executed)
        # A record is the segment's static features plus the stamps.
        for record, features in zip(executed, segment_features(compiled, BPC),
                                    strict=True):
            assert {k: v for k, v in record.items()
                    if k not in ("tier", "batch", "count")} == features

    def test_zero_count_records_nothing(self, compiled):
        assert model_run_records(compiled, TIER_CODEGEN, BPC, count=0) == []

    def test_jsonl_harvest_roundtrips(self, compiled, tmp_path):
        records = model_run_records(compiled, TIER_CODEGEN, BPC)
        path = tmp_path / "harvest.jsonl"
        count = write_harvest(str(path), records)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == count == len(records)
        assert [json.loads(line) for line in lines] == records
        # The ROADMAP item 3 training schema keys.
        for key in ("model", "segment", "ops", "op_cycles", "dma_bytes",
                    "loop_trips", "macs", "total_cycles", "tier", "batch"):
            assert key in records[0]

    def test_collapsed_stacks_weight_by_cycles(self, compiled):
        once = collapsed_stacks(model_run_records(compiled, TIER_CODEGEN, BPC))
        twice = collapsed_stacks(model_run_records(compiled, TIER_CODEGEN, BPC, count=2))
        assert twice
        for line in twice.splitlines():
            frames, weight = line.rsplit(" ", 1)
            assert frames.startswith("smallcnn;segment[")
            assert "(codegen)" in frames
            assert int(weight) > 0
        # Weights scale with the execution count.
        assert [int(line.rsplit(" ", 1)[1]) * 2 for line in once.splitlines()] == \
            [int(line.rsplit(" ", 1)[1]) for line in twice.splitlines()]

    def test_collapsed_stacks_fold_x86_segments_by_op_count(self):
        records = [{"model": "m", "segment": 1, "tier": "timing-model",
                    "count": 3, "op_cycles": {}, "ops": {"softmax": 1}}]
        assert collapsed_stacks(records) == "m;segment[1] (timing-model);softmax 3"
