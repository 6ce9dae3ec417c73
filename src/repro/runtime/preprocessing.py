"""x86-side image preprocessing: the MLPerf input pipeline.

"The x86 portion consists of preprocessing, postprocessing, framework
overhead, and benchmark overhead" (section VI-C).  These are the actual
preprocessing kernels of the detection path: SSD resizes directly to
300x300 and normalizes.
"""

from __future__ import annotations

import numpy as np


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of an (H, W, C) image (align_corners=False)."""
    h, w, c = image.shape
    if (h, w) == (out_h, out_w):
        return image.astype(np.float32)
    # Half-pixel-centre sampling, the TF/PIL convention.
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    img = image.astype(np.float32)
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bottom = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return (top * (1 - wy) + bottom * wy).astype(np.float32)


def normalize(image: np.ndarray, mean: float = 127.5, scale: float = 1 / 127.5) -> np.ndarray:
    """Map uint8 pixel values into the model's input range."""
    return ((image.astype(np.float32) - mean) * scale).astype(np.float32)


def detection_pipeline(image: np.ndarray, resolution: int = 300) -> np.ndarray:
    """The SSD preprocess: direct resize to (resolution, resolution)."""
    resized = resize_bilinear(image, resolution, resolution)
    return normalize(resized)[None, ...]
