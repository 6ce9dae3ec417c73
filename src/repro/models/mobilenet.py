"""MobileNet-V1 (224x224, width multiplier 1.0).

The Howard et al. architecture: a full 3x3 conv followed by 13 depthwise-
separable blocks (depthwise 3x3 + pointwise 1x1, each with batch-norm and
ReLU6), global average pooling and a 1000-way classifier.  0.57 B MACs and
4.2 M weights (Table V).
"""

from __future__ import annotations

from repro.graph.gir import Graph
from repro.models.common import GraphBuilder

# (pointwise out_channels, depthwise stride) for the 13 blocks.
_BLOCKS = [
    (64, 1),
    (128, 2),
    (128, 1),
    (256, 2),
    (256, 1),
    (512, 2),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (1024, 2),
    (1024, 1),
]


def build_mobilenet_v1(batch: int = 1, resolution: int = 224) -> Graph:
    """Build MobileNet-V1 (1001 classes) with synthetic weights."""
    b = GraphBuilder("mobilenet_v1", seed=20)
    x = b.input("images", (batch, resolution, resolution, 3))
    x = b.conv(x, 32, 3, stride=2, batch_norm=True, activation="relu6")
    for out_channels, stride in _BLOCKS:
        x = b.depthwise(x, 3, stride=stride, activation="relu6")
        x = b.conv(x, out_channels, 1, batch_norm=True, activation="relu6")
    x = b.global_mean(x)
    logits = b.fully_connected(x, 1001)
    probs = b.softmax(logits)
    return b.finish([probs])
