"""Ablation: Ncore DMA through the L3 cache vs direct to DRAM.

Section IV-A: "Ncore also has the ability to use DMA to read CHA's shared
L3 caches ... The extra hop through the L3 minimally increases the latency
to DRAM, so the feature isn't needed for purely streaming workloads" — and
the L3 path was *not* used in the paper's evaluation.  This bench measures
both paths on the simulator and verifies the coherence benefit the direct
path lacks.
"""

import numpy as np

from repro.isa import assemble
from repro.ncore import DmaDescriptor
from repro.perf.report import render_table
from repro.soc import ChaSoc

ROWS = 16  # 64 KB transfer


def run_both_paths():
    soc = ChaSoc()
    ncore = soc.ncore
    ncore.dma_read.configure_window(0)
    payload = np.arange(ROWS * 4096, dtype=np.uint32).astype(np.uint8)
    soc.dram.write(0, payload.tobytes())
    # A CPU store still dirty in the L3.
    soc.l3.write_line(0, b"\xEE" * 64)

    results = {}
    for label, through_l3, ram_row in (("direct", False, 0), ("through L3", True, 64)):
        ncore.reset()
        ncore.dma_read.busy_until = 0
        ncore.set_dma_descriptor(
            0,
            DmaDescriptor(False, False, ram_row=ram_row, rows=ROWS, dram_addr=0, through_l3=through_l3),
        )
        ncore.execute_program(assemble("dmastart 0\ndmawait 1\nhalt"))
        first = np.frombuffer(ncore.read_data_ram(ram_row * 4096, 64), np.uint8)
        results[label] = {
            "cycles": ncore.dma_stall_cycles,
            "sees_cpu_store": bool((first == 0xEE).all()),
        }
    return results


def test_ablation_l3_dma(benchmark, capsys):
    results = benchmark(run_both_paths)
    with capsys.disabled():
        print(render_table(
            "Ablation: DMA read path (64 KB transfer)",
            ["Path", "Stall cycles", "Coherent w/ CPU stores"],
            [
                [label, r["cycles"], "yes" if r["sees_cpu_store"] else "no"]
                for label, r in results.items()
            ],
        ))
    direct, through = results["direct"], results["through L3"]
    # The L3 hop adds latency...
    assert through["cycles"] > direct["cycles"]
    # ...but "minimally" — a small fraction of the transfer time.
    assert (through["cycles"] - direct["cycles"]) / direct["cycles"] < 0.10
    # And only the L3 path observes CPU stores that haven't reached DRAM.
    assert through["sees_cpu_store"]
    assert not direct["sees_cpu_store"]
