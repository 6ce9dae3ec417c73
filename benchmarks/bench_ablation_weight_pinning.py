"""Ablation: MobileNet weight pinning vs streamed weights.

Section V-B: "In the case of MobileNetV1, the GCL determines that all the
model's weights fit in on-chip SRAM, and promotes the weight buffers to
become persistent rather than transferred during execution."  This bench
measures what that promotion is worth by re-timing the same loadables with
streaming forced on.
"""

import copy

from repro.perf.report import render_table
from repro.perf.system import get_system

DMA_BYTES_PER_CYCLE = 102.4e9 / 2.5e9


def compute_pinning_ablation():
    sys = get_system("mobilenet_v1")
    rows = []
    pinned_cycles = streamed_cycles = 0
    for index in sys.compiled.ncore_segments:
        loadable = sys.compiled.loadables[index]
        assert loadable.memory_plan.weights_pinned  # the GCL's decision
        pinned_cycles += loadable.total_cycles(DMA_BYTES_PER_CYCLE)
        forced = copy.copy(loadable)
        forced.memory_plan = copy.copy(loadable.memory_plan)
        forced.memory_plan.weights_pinned = False
        streamed_cycles += forced.total_cycles(DMA_BYTES_PER_CYCLE)
    clock = 2.5e9
    rows.append(["pinned (GCL default)", pinned_cycles, f"{pinned_cycles / clock * 1e6:.1f}"])
    rows.append(["forced streaming", streamed_cycles, f"{streamed_cycles / clock * 1e6:.1f}"])
    return pinned_cycles, streamed_cycles, rows


def test_ablation_weight_pinning(benchmark, capsys):
    pinned, streamed, rows = benchmark(compute_pinning_ablation)
    with capsys.disabled():
        print(render_table(
            "Ablation: MobileNet-V1 weight pinning vs streaming",
            ["Weight policy", "Ncore cycles", "Ncore portion (us)"],
            rows,
        ))
        print(f"  pinning saves {(streamed - pinned) / streamed:.1%} of Ncore cycles")
    assert pinned < streamed
    # MobileNet's depthwise layers give DMA little compute to hide behind,
    # so streaming must cost a measurable share.
    assert (streamed - pinned) / streamed > 0.02


def test_resnet_weights_do_not_fit(benchmark):
    def check():
        sys = get_system("resnet50_v15")
        return [
            sys.compiled.loadables[i].memory_plan.weights_pinned
            for i in sys.compiled.ncore_segments
        ]

    pinned_flags = benchmark(check)
    # ResNet-50's 26 M weights exceed the 8 MB weight RAM: streamed.
    assert any(flag is False for flag in pinned_flags)
