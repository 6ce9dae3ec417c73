"""Ablation: SIMD width (slice count) sweep.

Section II-A.4: the SIMD architecture "was easy to slice and expand as
needed for the area allocated".  This sweep re-times the ResNet-50 Ncore
portion at 4..32 slices (1..8 KB rows): peak throughput scales linearly
with breadth while the realized speedup flattens as per-pass overheads and
mapping waste grow — the quantitative version of the sizing decision.
"""

from repro.ncore import NcoreConfig
from repro.nkl.schedule import conv2d_schedule
from repro.perf.report import render_table

# (cin, cout, h, w, k) x repeats: the ResNet-50 convolution body.
RESNET_LAYERS = [
    (3, 64, 112, 112, 7, 1),
    (64, 64, 56, 56, 1, 3), (64, 64, 56, 56, 3, 3), (64, 256, 56, 56, 1, 4),
    (256, 64, 56, 56, 1, 2), (256, 128, 28, 28, 1, 2), (128, 128, 28, 28, 3, 4),
    (128, 512, 28, 28, 1, 4), (512, 128, 28, 28, 1, 3), (512, 256, 14, 14, 1, 2),
    (256, 256, 14, 14, 3, 6), (256, 1024, 14, 14, 1, 6), (1024, 256, 14, 14, 1, 5),
    (1024, 512, 7, 7, 1, 2), (512, 512, 7, 7, 3, 3), (512, 2048, 7, 7, 1, 3),
]


def resnet_cycles_at_width(lanes: int) -> int:
    """Scale the Fig. 7 schedules to a different machine breadth: pass
    count scales inversely with the lane count (the slice knob)."""
    total = 0
    for cin, cout, h, w, k, repeats in RESNET_LAYERS:
        s = conv2d_schedule(cin, cout, h, w, k, k)
        width_factor = 4096 / lanes
        passes = max(1, round(s.passes * width_factor))
        total += repeats * (s.setup_cycles + passes * (s.inner_cycles + s.epilogue_cycles))
    return total


def compute_slice_sweep():
    rows = []
    baseline = None
    for slices in (4, 8, 16, 32):
        cfg = NcoreConfig(slices=slices)
        cycles = resnet_cycles_at_width(cfg.lanes)
        ms = cycles / cfg.clock_hz * 1e3
        if slices == 4:
            baseline = cycles
        rows.append(
            [
                slices,
                cfg.lanes,
                f"{cfg.peak_ops_per_second() / 1e12:.2f}",
                f"{ms:.3f}",
                f"{baseline / cycles:.2f}x",
            ]
        )
    return rows


def test_ablation_slices(benchmark, capsys):
    rows = benchmark(compute_slice_sweep)
    with capsys.disabled():
        print(render_table(
            "Ablation: slice count vs ResNet-50 Ncore-portion latency",
            ["Slices", "Lanes", "Peak TOPS", "Latency (ms)", "Speedup vs 4"],
            rows,
        ))
    speedups = [float(r[4][:-1]) for r in rows]
    # More slices always helps...
    assert speedups == sorted(speedups)
    # ...sub-linearly: doubling 16 -> 32 slices gains less than 2x.
    by_slices = {r[0]: float(r[3]) for r in rows}
    assert by_slices[16] / by_slices[32] < 2.0
    # The shipped 16-slice point still gets most of the 4->16 scaling.
    assert by_slices[4] / by_slices[16] > 2.5
