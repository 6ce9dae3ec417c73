"""Model registry and the paper's Table V characteristics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.gir import Graph
from repro.models.gnmt import build_gnmt
from repro.models.mobilenet import build_mobilenet_v1
from repro.models.resnet import build_resnet50_v15
from repro.models.ssd import build_ssd_mobilenet_v1
from repro.quantize import calibrate, convert_to_bf16, quantize_graph


@dataclass(frozen=True)
class ModelInfo:
    """One evaluated benchmark model."""

    key: str
    display: str
    input_type: str           # "image" | "text"
    builder: Callable[..., Graph]
    paper_macs: float          # Table V
    paper_weights: float       # Table V
    paper_macs_per_weight: int
    precision: str = "uint8"   # submission datatype: "uint8" | "bf16"

    def build(self, **kwargs) -> Graph:
        return self.builder(**kwargs)

    def sample_input(self, graph: Graph, seed: int = 0) -> dict[str, np.ndarray]:
        """A synthetic input batch matching the graph's inputs."""
        rng = np.random.default_rng(seed)
        # int32 inputs are token ids; keep them inside the smallest
        # embedding table so reduced-vocab bench builds stay in range.
        high = 1000
        for node in graph.find_nodes("embedding"):
            high = min(high, graph.tensor(node.inputs[0]).shape[0])
        feeds: dict[str, np.ndarray] = {}
        for name in graph.inputs:
            tensor = graph.tensor(name)
            feeds[name] = (
                rng.integers(0, high, size=tensor.shape).astype(np.int32)
                if tensor.type.dtype == "int32"
                else rng.uniform(-1, 1, size=tensor.shape).astype(np.float32)
            )
        return feeds

    def convert(self, graph: Graph, seed: int = 0, batches: int = 1) -> Graph:
        """The submission-precision graph: uint8 PTQ calibrated on
        ``sample_input(graph, seed + i)`` for each batch, or bfloat16."""
        if self.precision == "bf16":
            return convert_to_bf16(graph)
        feeds = [self.sample_input(graph, seed + i) for i in range(batches)]
        return quantize_graph(graph, calibrate(graph, feeds))


PAPER_CHARACTERISTICS: dict[str, ModelInfo] = {
    "mobilenet_v1": ModelInfo(
        key="mobilenet_v1",
        display="MobileNet-V1",
        input_type="image",
        builder=build_mobilenet_v1,
        paper_macs=0.57e9,
        paper_weights=4.2e6,
        paper_macs_per_weight=136,
    ),
    "resnet50_v15": ModelInfo(
        key="resnet50_v15",
        display="ResNet-50-V1.5",
        input_type="image",
        builder=build_resnet50_v15,
        paper_macs=4.1e9,
        paper_weights=26.0e6,
        paper_macs_per_weight=158,
    ),
    "ssd_mobilenet_v1": ModelInfo(
        key="ssd_mobilenet_v1",
        display="SSD-MobileNet-V1",
        input_type="image",
        builder=build_ssd_mobilenet_v1,
        paper_macs=1.2e9,
        paper_weights=6.8e6,
        paper_macs_per_weight=176,
    ),
    "gnmt": ModelInfo(
        key="gnmt",
        display="GNMT",
        input_type="text",
        builder=build_gnmt,
        paper_macs=3.9e9,
        paper_weights=131e6,
        paper_macs_per_weight=30,
        precision="bf16",
    ),
}

MODEL_BUILDERS = {key: info.builder for key, info in PAPER_CHARACTERISTICS.items()}
