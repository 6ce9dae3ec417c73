"""Tests for the x86 image preprocessing pipeline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.preprocessing import (
    detection_pipeline,
    normalize,
    resize_bilinear,
)


class TestResizeBilinear:
    def test_identity_when_same_size(self):
        img = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        np.testing.assert_array_equal(resize_bilinear(img, 4, 4), img)

    def test_constant_image_stays_constant(self):
        img = np.full((7, 9, 3), 55, np.uint8)
        out = resize_bilinear(img, 13, 5)
        np.testing.assert_allclose(out, 55.0)

    def test_upscale_preserves_gradient_monotonicity(self):
        img = np.linspace(0, 255, 8)[None, :, None].repeat(8, 0).repeat(3, 2)
        out = resize_bilinear(img.astype(np.uint8), 8, 16)
        row = out[4, :, 0]
        assert (np.diff(row) >= 0).all()

    def test_downscale_averages(self):
        # A checkerboard downsampled 2x lands near the mean.
        img = np.zeros((8, 8, 1), np.uint8)
        img[::2, ::2] = 200
        img[1::2, 1::2] = 200
        out = resize_bilinear(img, 4, 4)
        assert 60 < out.mean() < 140

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 16), st.integers(2, 16), st.integers(2, 16), st.integers(2, 16))
    def test_output_shape_and_range(self, h, w, oh, ow):
        img = np.random.default_rng(0).integers(0, 255, (h, w, 3)).astype(np.uint8)
        out = resize_bilinear(img, oh, ow)
        assert out.shape == (oh, ow, 3)
        assert out.min() >= 0.0 and out.max() <= 255.0


class TestCropAndNormalize:

    def test_normalize_range(self):
        img = np.array([[[0, 127.5, 255]]], np.float32)
        out = normalize(img)
        np.testing.assert_allclose(out, [[[-1.0, 0.0, 1.0]]])


class TestPipelines:

    def test_detection_shape(self):
        frame = np.random.default_rng(3).integers(0, 255, (720, 1280, 3)).astype(np.uint8)
        assert detection_pipeline(frame).shape == (1, 300, 300, 3)

    def test_feeds_the_detector_end_to_end(self):
        from repro.perf.system import get_system
        from repro.runtime import execute_quantized

        frame = np.random.default_rng(4).integers(0, 255, (480, 640, 3)).astype(np.uint8)
        feeds = {"images": detection_pipeline(frame)}
        system = get_system("ssd_mobilenet_v1")
        outputs = execute_quantized(system.compiled.graph, feeds)
        assert outputs["detection_boxes"].shape == (10, 4)
