"""SSD-MobileNet-V1 (300x300 COCO detector).

The MobileNet-V1 trunk feeds a six-scale SSD head (feature maps of
19, 10, 5, 3, 2, 1 with 3/6/6/6/6/6 anchors per cell — 1917 anchors total).
Box-decode details are folded into the x86 postprocess; class scores pass
through a softmax and per-class non-maximum suppression, both of which run
on x86 exactly as in the paper's submission ("SSD's non-maximum suppression
operation ... is executed on x86", section VI-C).  1.2 B MACs and 6.8 M
weights (Table V).
"""

from __future__ import annotations

from repro.graph.gir import Graph, Node, Tensor, TensorType
from repro.models.common import GraphBuilder
from repro.models.mobilenet import _BLOCKS

NUM_CLASSES = 91

# (feature map side, anchors per cell) for the six SSD scales.
_SCALES = [(19, 3), (10, 6), (5, 6), (3, 6), (2, 6), (1, 6)]
TOTAL_ANCHORS = sum(side * side * anchors for side, anchors in _SCALES)  # 1917

# Extra feature layers after the trunk: (squeeze 1x1, expand 3x3/2).
_EXTRAS = [(256, 512), (128, 256), (128, 256), (64, 128)]


def build_ssd_mobilenet_v1(batch: int = 1) -> Graph:
    """Build SSD-MobileNet-V1 with synthetic weights."""
    if batch != 1:
        raise ValueError(
            "the SSD postprocess (NMS) does not support batching — the very "
            "limitation discussed in section VI-C of the paper"
        )
    b = GraphBuilder("ssd_mobilenet_v1", seed=22)
    x = b.input("images", (1, 300, 300, 3))
    x = b.conv(x, 32, 3, stride=2, batch_norm=True, activation="relu6")
    feature_maps: list[str] = []
    for index, (out_channels, stride) in enumerate(_BLOCKS):
        x = b.depthwise(x, 3, stride=stride, activation="relu6")
        x = b.conv(x, out_channels, 1, batch_norm=True, activation="relu6")
        if index == 10:  # conv11: the 19x19x512 feature map
            feature_maps.append(x)
    feature_maps.append(x)  # conv13: 10x10x1024
    for squeeze, expand in _EXTRAS:
        x = b.conv(x, squeeze, 1, batch_norm=True, activation="relu6")
        x = b.conv(x, expand, 3, stride=2, batch_norm=True, activation="relu6")
        feature_maps.append(x)

    box_parts: list[str] = []
    class_parts: list[str] = []
    for feature, (side, anchors) in zip(feature_maps, _SCALES, strict=False):
        assert b.shape(feature)[1] == side, (b.shape(feature), side)
        # 1x1 convolutional box predictors, as in the reference model.
        boxes = b.conv(feature, anchors * 4, 1, bias=True)
        classes = b.conv(feature, anchors * NUM_CLASSES, 1, bias=True)
        box_parts.append(b.reshape(boxes, (side * side * anchors, 4)))
        class_parts.append(b.reshape(classes, (side * side * anchors, NUM_CLASSES)))
    all_boxes = b.concat(box_parts, axis=0)
    all_logits = b.concat(class_parts, axis=0)
    scores = b.softmax(all_logits, axis=-1)

    g = b.g
    g.add_tensor(Tensor("detection_boxes", TensorType((10, 4))))
    g.add_tensor(Tensor("detection_scores", TensorType((10,))))
    g.add_tensor(Tensor("detection_classes", TensorType((10,), "int32")))
    g.add_node(
        Node(
            "postprocess",
            "nms",
            [all_boxes, scores],
            ["detection_boxes", "detection_scores", "detection_classes"],
            {"iou_threshold": 0.6, "score_threshold": 0.3, "max_detections": 10},
        )
    )
    return b.finish(["detection_boxes", "detection_scores", "detection_classes"])
