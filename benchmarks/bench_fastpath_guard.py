"""Regression guard: the trace-fused tier must stay well ahead of the
interpreter on the Fig. 6 fused inner loop.

The measured advantage on an idle machine is >10x; the guard asserts a
conservative 5x so CI noise and slower runners never flake it, while any
change that quietly disables fusion (a rejected trace, a fallback on the
hot loop) still fails loudly.
"""

from repro.perf.simbench import measure_inner_loop

GUARD_SPEEDUP = 5.0


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
