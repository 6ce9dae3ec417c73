"""Simulator throughput measurement: how fast the golden model replays.

Two independent measurements, one per execution axis, both taken by the
wall-time guards.  The *machine* axis: the Fig. 6 fused convolution inner
loop on the instruction-level simulator, with and without
:mod:`repro.ncore.fastpath` trace fusion (``benchmarks/bench_fastpath_guard.py``;
``benchmarks/bench_simulator.py`` reuses its machine).  The *graph* axis:
the reduced zoo builds
(:func:`compile_zoo_model`) that ``benchmarks/bench_codegen_guard.py`` times
through :class:`~repro.runtime.executor.NcoreExecutor` in two graph modes —
no zoo query touches the instruction machine.  The versioned numbers live
in the performance ledger (``benchmarks/ledger``).

Wall-clock numbers here describe the *simulator*, not the modelled
hardware — simulated cycle counts are identical either way (the fastpath
differential tests prove it).
"""

from __future__ import annotations

import time

import numpy as np

from repro.isa import Instruction, assemble
from repro.ncore import Ncore
from repro.obs import NULL_OBSERVATION, Observation

#: Trip count of the Fig. 6 inner loop used for throughput measurement.
FIG6_ITERATIONS = 512


def fig6_program(iterations: int = FIG6_ITERATIONS) -> list[Instruction]:
    """The Fig. 6 fused convolution inner loop (one MAC issue per trip)."""
    return assemble(
        f"""
        setaddr a0, 0
        setaddr a3, 0
        setaddr a5, 0
        bypass n0, dram[a0]
        loop {iterations} {{
          broadcast64 n1, wtram[a3], a5, inc
          mac.uint8 dlast, n1
          rotl n0, n0, 64
        }}
        halt
        """
    )


def fig6_machine(
    iterations: int = FIG6_ITERATIONS, fastpath: bool = True,
    obs: Observation = NULL_OBSERVATION,
) -> tuple[Ncore, list[Instruction]]:
    """A machine with deterministic RAM contents plus the Fig. 6 program."""
    machine = Ncore(fastpath=fastpath, obs=obs)
    row_bytes = machine.config.row_bytes
    machine.write_data_ram(0, bytes(np.full(row_bytes, 3, np.uint8)))
    machine.write_weight_ram(0, bytes(np.full(row_bytes, 2, np.uint8)))
    return machine, fig6_program(iterations)


def measure_inner_loop(fastpath: bool) -> dict[str, float]:
    """Best-of-five wall time executing the Fig. 6 inner loop.

    Returns instructions/sec and cycles/sec of *simulated* work per
    second of host wall time — the simulator's replay throughput.
    """
    machine, program = fig6_machine(FIG6_ITERATIONS, fastpath=fastpath)
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
        "cycles_per_second": result.cycles / best,
        "instructions_per_second": machine.total_instructions / best,
    }


def compile_zoo_model(model_key: str = "mobilenet_v1"):
    """Convert and O2-compile one zoo model; returns ``(model, feeds)``.

    Uses a reduced-resolution MobileNet build when available so the
    baseline stays cheap enough for CI while still walking every layer.
    GNMT takes the bf16 path (it has no int8 recipe); everything else is
    int8-quantized off a single calibration batch.  Compiling at O2 means
    the Tier-3 ``codegen`` stage runs and the returned model carries its
    macro-kernels, so executors opened on it can use any graph mode.
    """
    from repro.compiler import compile_graph
    from repro.models import PAPER_CHARACTERISTICS

    info = PAPER_CHARACTERISTICS[model_key]
    if model_key == "gnmt":
        # Reduced GNMT build (same precedent as the reduced-resolution
        # MobileNet below): full 1024-wide 8-layer GNMT holds 131 M bf16
        # weights, far too slow to walk per-node in CI.  This keeps the
        # real topology — unrolled lstm_step encoder, attention decoder,
        # embeddings and the softmax/mean float tails — at a width where
        # the float region's matmuls, not numpy call overhead, carry the
        # query, as they do at the paper's 1024-wide full size: the
        # encoder's sequence projection (once per walk) and the recurrent
        # matmuls grow with h**2, the per-step call costs do not.
        graph = info.build(
            seq_len=288, hidden=512, layers=2,
            vocab=4096,  # row-bytes-ok: reduced BPE vocab, not a row size
        )
    else:
        try:
            graph = info.build(resolution=64)
        except TypeError:
            graph = info.build()
    converted = info.convert(graph, seed=0)
    return compile_graph(converted, name=model_key).model, info.sample_input(graph, seed=0)
