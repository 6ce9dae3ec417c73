"""Regression guard: the Fig. 6 fused inner loop must stay fused, and the
trace-fused tier well ahead of the interpreter on it.

``test_fig6_loop_fuses`` is the exact check against a change that quietly
disables fusion: one compiled trace, one hit, all 512 trips fused, no
rejection and no fallback.  ``test_fastpath_speedup_guard`` times both
tiers.  Its floor is 0.8x the lowest of 36 readings against the
interpreter that decodes once and runs the 8-bit MAC in int32
(4.41-6.87x on a 2-vCPU host; CHANGES.md lists them), rounded down: a
copy whose trace is rejected reads 0.7-1.0x and fails both tests.
"""

import time

from bench_simulator import build_machine

from repro.nkl.catalog import FIG6_TRIPS

GUARD_SPEEDUP = 3.5


def measure_inner_loop(fastpath: bool) -> dict[str, float]:
    """Best-of-five wall time executing the Fig. 6 inner loop, with the
    simulated cycles and instructions it ran."""
    machine, program = build_machine(fastpath=fastpath)
    best = float("inf")
    result = None
    for _ in range(5):
        machine.reset()
        start = time.perf_counter()
        result = machine.execute_program(program)
        best = min(best, time.perf_counter() - start)
    assert result is not None
    return {
        "seconds": best,
        "cycles": float(result.cycles),
        "instructions": float(machine.total_instructions),
    }


def test_fig6_loop_fuses():
    machine, program = build_machine()
    machine.execute_program(program)
    stats = machine.fastpath_stats
    assert (stats["compiled"], stats["rejected"]) == (1, 0), stats
    assert (stats["hits"], stats["fallbacks"]) == (1, 0), stats
    assert stats["fused_trips"] == FIG6_TRIPS == 512, stats


def test_fastpath_speedup_guard():
    fast = measure_inner_loop(fastpath=True)
    interp = measure_inner_loop(fastpath=False)
    # Identical simulated work on both tiers — only wall time may differ.
    assert fast["cycles"] == interp["cycles"]
    assert fast["instructions"] == interp["instructions"]
    speedup = interp["seconds"] / fast["seconds"]
    assert speedup >= GUARD_SPEEDUP, (
        f"fastpath only {speedup:.1f}x over the interpreter "
        f"(guard {GUARD_SPEEDUP}x) — did the Fig. 6 loop stop fusing?"
    )
