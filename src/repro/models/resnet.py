"""ResNet-50 v1.5 (the MLPerf reference variant).

v1.5 differs from v1 in placing the stride-2 downsampling on each stage's
3x3 convolution instead of the first 1x1.  The MLPerf TensorFlow reference
graph carries four explicit pad operations that the GCL fuses into the
adjacent convolutions (section V-B) — this builder reproduces those
explicit pads so the pass has its real work to do.  4.1 B MACs and 26.0 M
weights (Table V).
"""

from __future__ import annotations

from repro.graph.gir import Graph
from repro.models.common import GraphBuilder

# (blocks, bottleneck channels, output channels) per stage.
_STAGES = [
    (3, 64, 256),
    (4, 128, 512),
    (6, 256, 1024),
    (3, 512, 2048),  # row-bytes-ok: ResNet-50 stage widths, not a row width
]


def _bottleneck(b: GraphBuilder, x: str, mid: int, out: int, stride: int, first: bool) -> str:
    shortcut = x
    if first:
        shortcut = b.conv(x, out, 1, stride=stride, batch_norm=True, bias=False)
    y = b.conv(x, mid, 1, batch_norm=True, activation="relu", bias=False)
    if stride == 2:
        # The MLPerf reference expresses stride-2 3x3 convs as an explicit
        # pad followed by a VALID conv — one of the four explicit pads.
        y = b.pad(y, ((1, 1), (1, 1)))
        y = b.conv(y, mid, 3, stride=2, padding="valid", batch_norm=True, activation="relu", bias=False)
    else:
        y = b.conv(y, mid, 3, batch_norm=True, activation="relu", bias=False)
    y = b.conv(y, out, 1, batch_norm=True, bias=False)
    return b.add(y, shortcut, activation="relu")


def build_resnet50_v15(batch: int = 1) -> Graph:
    """Build ResNet-50 v1.5 (1001 classes) with synthetic weights."""
    b = GraphBuilder("resnet50_v15", seed=21)
    x = b.input("images", (batch, 224, 224, 3))
    # Stem: explicit pad + 7x7/2 VALID conv (as in the reference graph).
    x = b.pad(x, ((3, 3), (3, 3)))
    x = b.conv(x, 64, 7, stride=2, padding="valid", batch_norm=True, activation="relu", bias=False)
    x = b.max_pool(x, 3, 2)
    for stage_index, (blocks, mid, out) in enumerate(_STAGES):
        for block_index in range(blocks):
            stride = 2 if (stage_index > 0 and block_index == 0) else 1
            x = _bottleneck(b, x, mid, out, stride, first=(block_index == 0))
    x = b.global_mean(x)
    logits = b.fully_connected(x, 1001)
    probs = b.softmax(logits)
    return b.finish([probs])
