"""Table V reproduction at the model level: MACs, weights, MACs/weight."""

import pytest

from repro.models import PAPER_CHARACTERISTICS


class TestTableV:
    """Each model's analytic counts must match the paper's Table V."""

    @pytest.mark.parametrize("key", ["mobilenet_v1", "resnet50_v15", "ssd_mobilenet_v1"])
    def test_macs_within_5_percent(self, key):
        info = PAPER_CHARACTERISTICS[key]
        graph = info.build()
        assert graph.count_macs() == pytest.approx(info.paper_macs, rel=0.05)

    @pytest.mark.parametrize("key", ["mobilenet_v1", "resnet50_v15", "ssd_mobilenet_v1"])
    def test_weights_within_5_percent(self, key):
        info = PAPER_CHARACTERISTICS[key]
        graph = info.build()
        assert graph.count_weights() == pytest.approx(info.paper_weights, rel=0.05)

    def test_gnmt_weights_match(self):
        info = PAPER_CHARACTERISTICS["gnmt"]
        graph = info.build()
        assert graph.count_weights() == pytest.approx(info.paper_weights, rel=0.05)

    def test_gnmt_macs_single_greedy_pass(self):
        # The paper's 3.9 B includes beam-search re-execution; one greedy
        # pass performs ~2.5 B (see the module docstring).
        graph = PAPER_CHARACTERISTICS["gnmt"].build()
        assert 2.0e9 < graph.count_macs() < 3.9e9

    def test_gnmt_is_the_memory_bound_model(self):
        # Table V's punchline: GNMT has by far the lowest MACs/weight,
        # which is why it is memory-bound and ran Offline-only.
        ratios = {
            key: info.build().count_macs() / info.build().count_weights()
            for key, info in PAPER_CHARACTERISTICS.items()
        }
        assert min(ratios, key=ratios.get) == "gnmt"
        assert ratios["gnmt"] < 40
        for key in ("mobilenet_v1", "resnet50_v15", "ssd_mobilenet_v1"):
            assert ratios[key] > 100


class TestModelStructure:
    def test_mobilenet_has_13_separable_blocks(self):
        g = PAPER_CHARACTERISTICS["mobilenet_v1"].build()
        assert len(g.find_nodes("depthwise_conv2d")) == 13
        assert len(g.find_nodes("conv2d")) == 14  # stem + 13 pointwise

    def test_resnet_has_explicit_pads(self):
        # The MLPerf reference graph has four explicit pad operations
        # (section V-B): the stem plus the three stride-2 stage entries.
        g = PAPER_CHARACTERISTICS["resnet50_v15"].build()
        assert len(g.find_nodes("pad")) == 4

    def test_resnet_bottleneck_count(self):
        g = PAPER_CHARACTERISTICS["resnet50_v15"].build()
        assert len(g.find_nodes("add")) == 3 + 4 + 6 + 3

    def test_ssd_anchor_count(self):
        from repro.models.ssd import TOTAL_ANCHORS

        assert TOTAL_ANCHORS == 1917
        g = PAPER_CHARACTERISTICS["ssd_mobilenet_v1"].build()
        nms = g.find_nodes("nms")[0]
        assert g.tensor(nms.inputs[0]).shape == (1917, 4)

    def test_ssd_rejects_batching(self):
        # Section VI-C: the NMS postprocess does not support batching.
        with pytest.raises(ValueError, match="batch"):
            PAPER_CHARACTERISTICS["ssd_mobilenet_v1"].build(batch=2)

    def test_gnmt_unrolled_length(self):
        g = PAPER_CHARACTERISTICS["gnmt"].build()
        # 4 encoder layers x 25 sequence-projected steps, 4 decoder layers
        # x 25 cells.
        assert len(g.find_nodes("lstm_step")) == 4 * 25
        assert len(g.find_nodes("lstm_cell")) == 4 * 25
        assert len(g.find_nodes("attention")) == 25

    def test_models_validate_and_infer_shapes(self):
        from repro.analyze import analyze_graph

        for info in PAPER_CHARACTERISTICS.values():
            g = info.build()
            g.validate()
            assert analyze_graph(g).ok


class TestBatchedBuilds:
    def test_mobilenet_batch_shapes(self):
        from repro.models import build_mobilenet_v1

        g = build_mobilenet_v1(batch=4, resolution=64)
        assert g.tensor(g.inputs[0]).shape[0] == 4
        assert g.tensor(g.outputs[0]).shape[0] == 4

    def test_batch_scales_macs_linearly(self):
        from repro.models import build_resnet50_v15

        one = build_resnet50_v15(batch=1).count_macs()
        four = build_resnet50_v15(batch=4).count_macs()
        assert four == 4 * one
