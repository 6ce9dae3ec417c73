"""Ablation: the sparse-weight decompression engine.

Section VII: "The accelerator presented in this work includes a hardware
decompression engine for sparse weights, but does not exploit data
sparsity."  This bench measures what the engine buys on a weight-pruned
ResNet-50: compressed weight traffic shrinks the streaming DMA, cutting
the stalls the dense schedule pays.
"""

import numpy as np

from repro.graph import partition
from repro.graph.passes import default_pipeline
from repro.models import PAPER_CHARACTERISTICS, build_resnet50_v15
from repro.nkl.lower import compressed_weight_bytes, lower_segment
from repro.perf.report import render_table

DMA_BYTES_PER_CYCLE = 102.4e9 / 2.5e9


def _pruned_resnet(sparsity: float):
    """Quantized ResNet-50 with the smallest weights zeroed per layer.

    Pruning happens in float; PTQ then maps the zeros to each tensor's
    zero point, which is the byte the NDU decompressor elides (it fills
    with the configured weight zero offset).
    """
    graph = build_resnet50_v15()
    default_pipeline().run(graph)
    if sparsity > 0:
        for tensor in graph.tensors.values():
            if tensor.is_constant and tensor.data.ndim == 4:
                flat = np.abs(tensor.data).reshape(-1)
                cut = np.quantile(flat, sparsity)
                tensor.data = np.where(
                    np.abs(tensor.data) < cut, 0.0, tensor.data
                ).astype(np.float32)
    info = PAPER_CHARACTERISTICS["resnet50_v15"]
    return info.convert(graph, seed=0)


def compute_sparsity_ablation():
    rows = []
    for sparsity in (0.0, 0.5, 0.8):
        graph = _pruned_resnet(sparsity)
        segments = [s for s in partition(graph) if s.target == "ncore"]
        dense_cycles = compressed_cycles = 0
        dense_bytes = packed_bytes = 0
        for segment in segments:
            dense = lower_segment(graph, segment, compress_sparse_weights=False)
            packed = lower_segment(graph, segment, compress_sparse_weights=True)
            dense_cycles += dense.total_cycles(DMA_BYTES_PER_CYCLE)
            compressed_cycles += packed.total_cycles(DMA_BYTES_PER_CYCLE)
            dense_bytes += dense.weight_image_bytes
            packed_bytes += packed.weight_image_bytes
        rows.append(
            [
                f"{sparsity:.0%}",
                f"{dense_bytes / 1e6:.1f}",
                f"{packed_bytes / 1e6:.1f}",
                f"{packed_bytes / dense_bytes:.2f}x",
                f"{dense_cycles / 2.5e9 * 1e3:.3f}",
                f"{compressed_cycles / 2.5e9 * 1e3:.3f}",
            ]
        )
    return rows


def test_ablation_sparsity(benchmark, capsys):
    rows = benchmark.pedantic(compute_sparsity_ablation, rounds=1, iterations=1)
    with capsys.disabled():
        print(render_table(
            "Ablation: sparse-weight compression on (pruned) ResNet-50",
            ["pruned", "dense MB", "packed MB", "ratio", "dense ms", "packed ms"],
            rows,
        ))
    ratios = [float(r[3][:-1]) for r in rows]
    # Dense weights barely compress (bitmap overhead ~= savings); pruned
    # weights compress steeply and the Ncore portion shrinks with them.
    assert ratios[0] > 0.95
    assert ratios[1] < 0.70
    assert ratios[2] < 0.40
    dense_ms = [float(r[4]) for r in rows]
    packed_ms = [float(r[5]) for r in rows]
    assert packed_ms[2] <= dense_ms[2]


def test_compressed_bytes_matches_actual_encoder(benchmark):
    # The analytic size used by the scheduler equals what the NDU-format
    # encoder actually produces.
    from repro.ncore.ndu import compress

    rng = np.random.default_rng(0)
    data = rng.normal(size=(3, 3, 16, 16)).astype(np.float32)
    data[np.abs(data) < 0.8] = 0.0
    quantized = (data * 10).astype(np.int8)

    def check():
        analytic = compressed_weight_bytes(quantized)
        actual = compress(
            np.frombuffer(np.ascontiguousarray(quantized).tobytes(), dtype=np.uint8)
        ).size
        return analytic, actual

    analytic, actual = benchmark(check)
    assert analytic == actual
