"""Cycle attribution: segment features, tier records, harvest outputs."""

import json

import pytest

from repro.compiler import compile_graph
from repro.obs.attrib import (
    TIER_CODEGEN,
    TIER_REPLAY,
    AttributionCollector,
    get_attrib,
    install_attrib,
    segment_features,
    set_attrib,
)
from tests.quantize.test_convert import calibration_batches, small_cnn


@pytest.fixture(scope="module")
def compiled():
    from repro.quantize import calibrate, quantize_graph

    g = small_cnn()
    qg = quantize_graph(g, calibrate(g, calibration_batches()))
    return compile_graph(qg, name="smallcnn").model


class TestSegmentFeatures:
    def test_one_record_per_segment(self, compiled):
        records = segment_features(compiled)
        assert len(records) == len(compiled.segments)
        assert [r["segment"] for r in records] == list(range(len(records)))

    def test_ncore_segments_carry_kernel_attribution(self, compiled):
        records = segment_features(compiled)
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
        for record in segment_features(compiled):
            if record["weights_pinned"]:
                assert record["dma_bytes"] == 0
            else:
                assert record["dma_bytes"] == record["weight_bytes"]


class TestCollector:
    def test_record_model_run_stamps_tier_and_count(self, compiled):
        collector = AttributionCollector()
        collector.record_model_run(compiled, TIER_CODEGEN, batch=4, count=3)
        collector.record_model_run(compiled, TIER_REPLAY, count=2)
        per_run = len(compiled.segments)
        assert len(collector.records) == 2 * per_run
        executed = [r for r in collector.records if r["tier"] == TIER_CODEGEN]
        assert all(r["count"] == 3 and r["batch"] == 4 for r in executed)

    def test_zero_count_records_nothing(self, compiled):
        collector = AttributionCollector()
        collector.record_model_run(compiled, TIER_CODEGEN, count=0)
        assert len(collector) == 0

    def test_features_are_cached_per_model(self, compiled):
        collector = AttributionCollector()
        first = collector.features_for(compiled)
        assert collector.features_for(compiled) is first

    def test_jsonl_harvest_roundtrips(self, compiled, tmp_path):
        collector = AttributionCollector()
        collector.record_model_run(compiled, TIER_CODEGEN)
        path = tmp_path / "harvest.jsonl"
        count = collector.write_jsonl(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == count == len(collector.records)
        record = json.loads(lines[0])
        # The ROADMAP item 3 training schema keys.
        for key in ("model", "segment", "ops", "op_cycles", "dma_bytes",
                    "loop_trips", "macs", "total_cycles", "tier", "batch"):
            assert key in record

    def test_collapsed_stacks_weight_by_cycles(self, compiled):
        collector = AttributionCollector()
        collector.record_model_run(compiled, TIER_CODEGEN, count=2)
        stacks = collector.collapsed_stacks()
        assert stacks
        for line in stacks.splitlines():
            frames, weight = line.rsplit(" ", 1)
            assert frames.startswith("smallcnn;segment[")
            assert int(weight) > 0


class TestInstallation:
    def test_null_by_default(self):
        assert not get_attrib().enabled
        # Null collector absorbs records without tracking anything.
        get_attrib().record(model="m", segment=0)

    def test_install_and_restore(self, compiled):
        with install_attrib() as collector:
            assert get_attrib() is collector
            get_attrib().record_model_run(compiled, TIER_CODEGEN)
            assert len(collector) == len(compiled.segments)
        assert not get_attrib().enabled

    def test_set_attrib_none_restores_null(self):
        collector = AttributionCollector()
        set_attrib(collector)
        assert get_attrib() is collector
        set_attrib(None)
        assert not get_attrib().enabled
