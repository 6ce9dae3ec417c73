"""Ablation: datatype choice (int8 vs bfloat16 vs int16).

Section II-A.6 / IV-D.4: 8-bit ops execute in one clock, bfloat16 in three
and int16 in four — the fallback types trade throughput for precision.
This bench times the same convolution body at each datatype.
"""

import pytest

from repro.dtypes import NcoreDType
from repro.nkl.schedule import conv2d_schedule
from repro.perf.report import render_table

LAYERS = [
    (64, 64, 56, 56, 3, 3),
    (128, 128, 28, 28, 3, 4),
    (256, 256, 14, 14, 3, 6),
    (512, 512, 7, 7, 3, 3),
]


def compute_dtype_ablation():
    rows = []
    cycles = {}
    for dtype in (NcoreDType.INT8, NcoreDType.UINT8, NcoreDType.BF16, NcoreDType.INT16):
        total = sum(
            rep * conv2d_schedule(ci, co, h, w, k, k, dtype).cycles
            for ci, co, h, w, k, rep in LAYERS
        )
        cycles[dtype] = total
        rows.append(
            [
                dtype.value,
                total,
                f"{total / 2.5e9 * 1e6:.1f}",
                f"{total / cycles[NcoreDType.INT8]:.2f}x",
            ]
        )
    return cycles, rows


def test_ablation_dtype(benchmark, capsys):
    cycles, rows = benchmark(compute_dtype_ablation)
    with capsys.disabled():
        print(render_table(
            "Ablation: datatype vs convolution-body latency",
            ["dtype", "cycles", "time (us)", "vs int8"],
            rows,
        ))
    # The ratios approach the NPU issue latencies (3x for bf16, 4x int16)
    # as the inner loops dominate.
    assert cycles[NcoreDType.UINT8] == cycles[NcoreDType.INT8]
    assert cycles[NcoreDType.BF16] / cycles[NcoreDType.INT8] == pytest.approx(3.0, abs=0.1)
    assert cycles[NcoreDType.INT16] / cycles[NcoreDType.INT8] == pytest.approx(4.0, abs=0.1)
