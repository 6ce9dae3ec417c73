"""Regression guard: the Fig. 6 fused inner loop and the conv programs'
passes must stay fused, and the trace-fused tier well ahead of the
interpreter on them.

``test_fig6_loop_fuses`` is the exact check against a change that quietly
disables fusion: one compiled trace, one hit, every issue but the halt
fused (the 512 trips and the prologue), no rejection and no fallback.
``test_conv_passes_fuse`` is the same check on every catalog conv and
depthwise kind and on ``matmul_fc``: each IRAM chunk is one run.
``test_fastpath_speedup_guard`` and ``test_conv_speedup_guard`` time both
tiers.  Each floor is 0.8x the lowest of its recorded readings, rounded
down (CHANGES.md lists them, on a 2-vCPU host): the Fig. 6 loop's
4.41-6.87x over 36 readings, conv3x3_s1's 1.88-3.53x over 20.  A copy
whose traces are rejected reads about 1x on both and fails.
"""

import time

import numpy as np
from bench_simulator import build_machine

from repro.ncore import Ncore
from repro.ncore.fastpath import fusion_blockers
from repro.nkl.catalog import FIG6_TRIPS, build_kinds
from repro.nkl.programs import run_streamed

GUARD_SPEEDUP = 3.5
GUARD_CONV_SPEEDUP = 1.5

#: The catalog kinds whose programs are Fig. 7 passes of Fig. 6 taps.
CONV_KINDS = ("conv3x3_s1", "conv3x3_s2", "conv1x1", "depthwise3x3")

#: The kinds ``test_conv_passes_fuse`` holds to one run per IRAM chunk.
RUN_KINDS = (*CONV_KINDS, "matmul_fc")


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
    assert stats["fused_trips"] == machine.total_issues - 1 == FIG6_TRIPS + 4, stats


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


def _kinds(names):
    return [kind for kind in build_kinds(np.random.default_rng(1)) if kind.name in names]


def test_conv_passes_fuse():
    # One run per IRAM chunk: the passes with their clears, address writes,
    # requants and stores; every issue but the chunks' halts fused.
    kinds = _kinds(RUN_KINDS)
    assert [kind.name for kind in kinds] == list(RUN_KINDS)
    for kind in kinds:
        machine = Ncore()
        program, _ = kind.emit(machine)
        assert run_streamed(machine, program).halted
        chunks = -(-len(program) // (machine.iram.bank_instructions - 1))
        assert not any(fusion_blockers(ins) for ins in program[:-1]), kind.name
        stats = machine.fastpath_stats
        assert stats["hits"] == stats["compiled"] == chunks, (kind.name, stats)
        assert stats["fused_trips"] == machine.total_issues - chunks, (kind.name, stats)
        assert stats["misses"] == stats["fallbacks"] == stats["rejected"] == 0, (kind.name, stats)


def measure_conv(fastpath: bool) -> dict[str, float]:
    """Best-of-five wall time loading and running conv3x3_s1's program,
    with the simulated cycles it ran."""
    (kind,) = _kinds(("conv3x3_s1",))
    best = float("inf")
    machine = None
    for _ in range(5):
        machine = Ncore(fastpath=fastpath)
        program, _ = kind.emit(machine)
        start = time.perf_counter()
        run_streamed(machine, program)
        best = min(best, time.perf_counter() - start)
    assert machine is not None
    return {"seconds": best, "cycles": float(machine.total_cycles)}


def test_conv_speedup_guard():
    fast = measure_conv(fastpath=True)
    interp = measure_conv(fastpath=False)
    assert fast["cycles"] == interp["cycles"]
    speedup = interp["seconds"] / fast["seconds"]
    assert speedup >= GUARD_CONV_SPEEDUP, (
        f"fastpath only {speedup:.1f}x over the interpreter on conv3x3_s1 "
        f"(guard {GUARD_CONV_SPEEDUP}x) — did its passes stop fusing?"
    )
