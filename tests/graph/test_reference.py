"""Tests for the float32 reference operator semantics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.graph import reference as ref


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 5, 5, 3)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        for c in range(3):
            w[0, 0, c, c] = 1.0
        np.testing.assert_allclose(ref.conv2d(x, w), x, rtol=1e-6)

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6, 7, 4)).astype(np.float32)
        w = rng.normal(size=(3, 3, 4, 5)).astype(np.float32)
        out = ref.conv2d(x, w, stride=(2, 1), padding=((1, 1), (0, 2)))
        # Direct sextuple-loop reference.
        xp = np.pad(x, ((0, 0), (1, 1), (0, 2), (0, 0)))
        oh = (xp.shape[1] - 3) // 2 + 1
        ow = xp.shape[2] - 3 + 1
        expected = np.zeros((2, oh, ow, 5), dtype=np.float64)
        for n in range(2):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, i * 2 : i * 2 + 3, j : j + 3, :]
                    for k in range(5):
                        expected[n, i, j, k] = np.sum(patch * w[..., k])
        np.testing.assert_allclose(out, expected, rtol=1e-4)

    def test_bias_and_activation(self):
        x = np.full((1, 2, 2, 1), -3.0, dtype=np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        out = ref.conv2d(x, w, bias=np.array([1.0], np.float32), activation="relu")
        assert (out == 0.0).all()

    def test_channel_mismatch_rejected(self):
        with pytest.raises(Exception):
            ref.conv2d(np.zeros((1, 4, 4, 3), np.float32), np.zeros((1, 1, 2, 8), np.float32))


class TestDepthwise:
    def test_equals_grouped_conv(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 5, 5, 4)).astype(np.float32)
        w = rng.normal(size=(3, 3, 4)).astype(np.float32)
        out = ref.depthwise_conv2d(x, w, padding=((1, 1), (1, 1)))
        for c in range(4):
            single = ref.conv2d(
                x[..., c : c + 1], w[..., c : c + 1, None], padding=((1, 1), (1, 1))
            )
            np.testing.assert_allclose(out[..., c], single[..., 0], rtol=1e-4)


class TestPooling:
    def test_max_pool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = ref.max_pool(x, (2, 2), (2, 2))
        np.testing.assert_array_equal(out.reshape(2, 2), [[5, 7], [13, 15]])

    def test_avg_pool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = ref.avg_pool(x, (2, 2), (2, 2))
        np.testing.assert_allclose(out.reshape(2, 2), [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_padding_uses_neg_inf(self):
        x = -np.ones((1, 2, 2, 1), dtype=np.float32)
        out = ref.max_pool(x, (2, 2), (2, 2), padding=((1, 0), (1, 0)))
        assert out.max() == -1.0  # padding must not contribute zeros


class TestActivationsAndSoftmax:
    @given(npst.arrays(np.float32, 16, elements=st.floats(-50, 50, width=32)))
    def test_softmax_sums_to_one(self, x):
        out = ref.softmax(x)
        assert abs(out.sum() - 1.0) < 1e-5
        assert (out >= 0).all()

    def test_relu6(self):
        out = ref.apply_activation(np.array([-1.0, 3.0, 9.0], np.float32), "relu6")
        np.testing.assert_array_equal(out, [0, 3, 6])

    def test_sigmoid_bounds(self):
        out = ref.apply_activation(np.array([-100.0, 0.0, 100.0], np.float32), "sigmoid")
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-6)


class TestLstmAndAttention:
    def test_lstm_gate_arithmetic(self):
        hidden = 4
        x = np.zeros((1, 3), dtype=np.float32)
        h = np.zeros((1, hidden), dtype=np.float32)
        c = np.ones((1, hidden), dtype=np.float32)
        weights = np.zeros((3 + hidden, 4 * hidden), dtype=np.float32)
        bias = np.zeros(4 * hidden, dtype=np.float32)
        # Zero gates: i = f = o = 0.5, g = 0 -> c' = 0.5, h' = 0.5*tanh(0.5)
        h2, c2 = ref.lstm_cell(x, weights, bias, h, c)
        np.testing.assert_allclose(c2, 0.5, rtol=1e-5)
        np.testing.assert_allclose(h2, 0.5 * np.tanh(0.5), rtol=1e-5)

    def test_attention_uniform_when_scores_equal(self):
        keys = np.ones((1, 5, 8), dtype=np.float32)
        query = np.ones((1, 8), dtype=np.float32)
        ctx = ref.attention(query, keys)
        np.testing.assert_allclose(ctx, 1.0, rtol=1e-5)

    def test_attention_picks_matching_key(self):
        keys = np.zeros((1, 3, 4), dtype=np.float32)
        keys[0, 1] = [10, 0, 0, 0]
        query = np.array([[10.0, 0, 0, 0]], dtype=np.float32)
        ctx = ref.attention(query, keys)
        np.testing.assert_allclose(ctx[0], keys[0, 1], atol=1e-2)


class TestNms:
    def test_suppresses_overlapping_boxes(self):
        boxes = np.array(
            [[0, 0, 10, 10], [0, 1, 10, 11], [20, 20, 30, 30]], dtype=np.float32
        )
        scores = np.array([[0.9], [0.8], [0.7]], dtype=np.float32)
        out_boxes, out_scores, out_classes = ref.nms(
            boxes, scores, iou_threshold=0.5, score_threshold=0.1, max_detections=3
        )
        assert out_scores[0] == pytest.approx(0.9)
        assert out_scores[1] == pytest.approx(0.7)  # the 0.8 box suppressed
        assert out_classes[2] == -1  # padding

    def test_score_threshold(self):
        boxes = np.array([[0, 0, 1, 1]], dtype=np.float32)
        scores = np.array([[0.05]], dtype=np.float32)
        _, out_scores, _ = ref.nms(boxes, scores, score_threshold=0.3)
        assert out_scores[0] == 0.0

    def test_multiclass_kept_separately(self):
        boxes = np.array([[0, 0, 10, 10], [0, 0, 10, 10]], dtype=np.float32)
        scores = np.array([[0.9, 0.0], [0.0, 0.8]], dtype=np.float32)
        _, out_scores, out_classes = ref.nms(boxes, scores, max_detections=4)
        # Same box, different classes: both survive.
        assert sorted(out_classes[:2].tolist()) == [0, 1]


    def test_tied_scores_and_a_class_below_threshold(self):
        # Five disjoint boxes, so every candidate above the threshold is
        # kept and the (score, anchor, class) sort decides the order.
        boxes = np.array([[i * 10, 0, i * 10 + 5, 5] for i in range(5)], dtype=np.float32)
        scores = np.zeros((5, 3), dtype=np.float32)
        scores[:, 0] = [0.5, 0.9, 0.5, 0.2, 0.5]  # three tied, one below
        scores[:, 1] = 0.1  # the whole class below the threshold
        scores[0, 2] = 0.5  # tied with class 0's
        out_boxes, out_scores, out_classes = ref.nms(
            boxes, scores, score_threshold=0.3, max_detections=6
        )
        np.testing.assert_array_equal(out_scores, np.float32([0.9, 0.5, 0.5, 0.5, 0.5, 0.0]))
        np.testing.assert_array_equal(out_classes, [0, 0, 0, 2, 0, -1])
        np.testing.assert_array_equal(out_boxes[:5], boxes[[1, 4, 2, 0, 0]])
        np.testing.assert_array_equal(out_boxes[5], 0.0)
        # Nothing anywhere above the threshold: all padding.
        _, none_scores, none_classes = ref.nms(boxes, scores, score_threshold=0.95)
        assert not none_scores.any() and (none_classes == -1).all()


    def test_matches_the_python_candidate_filter(self):
        # The loop the vectorised filter replaced, kept as the reference:
        # overlapping boxes and scores on a 0.1 grid, so ties decide which
        # box of an overlapping pair survives.
        def loop_filter_nms(boxes, scores, iou_threshold, score_threshold, max_detections):
            picked = []
            for cls in range(scores.shape[1]):
                cls_scores = scores[:, cls]
                candidates = [
                    a for a in np.argsort(-cls_scores) if cls_scores[a] >= score_threshold
                ]
                kept = []
                for anchor in candidates:
                    if all(ref._iou(boxes[anchor], boxes[k]) <= iou_threshold for k in kept):
                        kept.append(anchor)
                picked.extend((float(cls_scores[a]), a, cls) for a in kept)
            picked.sort(reverse=True)
            return picked[:max_detections]

        rng = np.random.default_rng(17)
        corners = rng.uniform(0, 20, size=(60, 2))
        boxes = np.concatenate([corners, corners + rng.uniform(4, 12, size=(60, 2))], axis=1)
        boxes = boxes.astype(np.float32)
        scores = (rng.integers(0, 11, size=(60, 4)) / 10).astype(np.float32)
        scores[:, 3] = 0.2  # one class entirely below the threshold
        want = loop_filter_nms(boxes, scores, 0.4, 0.3, 25)
        out_boxes, out_scores, out_classes = ref.nms(boxes, scores, 0.4, 0.3, 25)
        assert 5 < len(want) <= 25
        np.testing.assert_array_equal(out_scores[: len(want)], [s for s, _, _ in want])
        np.testing.assert_array_equal(out_classes[: len(want)], [c for _, _, c in want])
        np.testing.assert_array_equal(out_boxes[: len(want)], boxes[[a for _, a, _ in want]])


class TestGraphExecution:
    def test_executes_pipeline(self):
        from tests.graph.test_gir import simple_conv_graph

        g = simple_conv_graph()
        g.tensor("w").data = np.full((3, 3, 3, 16), 0.1, dtype=np.float32)
        x = np.ones((1, 8, 8, 3), dtype=np.float32)
        out = ref.execute_float(g, {"x": x})
        assert out["y"].shape == (1, 8, 8, 16)
        # Interior pixels see all 27 taps of 0.1 each.
        np.testing.assert_allclose(out["y"][0, 4, 4, :], 2.7, rtol=1e-5)

    def test_missing_feed_rejected(self):
        from tests.graph.test_gir import simple_conv_graph

        with pytest.raises(Exception, match="missing feed"):
            ref.execute_float(simple_conv_graph(), {})


class TestShapeInference:
    def test_accepts_consistent_graph(self):
        from tests.graph.test_gir import simple_conv_graph

        ref.infer_shapes(simple_conv_graph())

    def test_rejects_wrong_conv_output_shape(self):
        import repro.graph as G

        g = G.Graph()
        g.add_input("x", G.TensorType((1, 8, 8, 3)))
        g.add_constant("w", np.zeros((3, 3, 3, 16), dtype=np.float32))
        g.add_tensor(G.Tensor("y", G.TensorType((1, 9, 9, 16))))  # wrong
        g.add_node(G.Node("conv", "conv2d", ["x", "w"], ["y"]))
        g.mark_output("y")
        with pytest.raises(G.GraphError, match="expected"):
            ref.infer_shapes(g)
