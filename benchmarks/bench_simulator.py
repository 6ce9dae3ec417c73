"""Simulator performance: how fast the instruction-level model executes.

Times the Fig. 6 fused convolution inner loop (one 4096-wide MAC issue per
iteration) on the functional simulator — the number that bounds how large
a workload the golden model can replay for verification.  The machine and
program come from :mod:`repro.perf.simbench`; the fastpath/interpreter
pair here is the microbenchmark behind the tier-1 speedup claim in
``docs/simulator-performance.md``.
"""

from repro.perf.simbench import FIG6_ITERATIONS, fig6_machine

ITERATIONS = FIG6_ITERATIONS


def build_machine(fastpath=True):
    return fig6_machine(fastpath=fastpath)


def _throughput_case(benchmark, fastpath):
    machine, program = build_machine(fastpath=fastpath)

    def run():
        machine.reset()
        return machine.execute_program(program)

    result = benchmark(run)
    assert result.halted
    # One simulated clock per fused iteration, plus 3 setaddr + bypass +
    # halt around the loop.  Identical on both tiers.
    assert result.cycles == ITERATIONS + 5
    return machine


def test_simulator_inner_loop_throughput(benchmark):
    machine = _throughput_case(benchmark, fastpath=True)
    assert machine.fastpath_stats["hits"] > 0


def test_simulator_inner_loop_interpreter(benchmark):
    machine = _throughput_case(benchmark, fastpath=False)
    assert machine.fastpath_stats["hits"] == 0


def test_simulator_dma_roundtrip_throughput(benchmark):
    from repro.isa import assemble
    from repro.ncore import DmaDescriptor, Ncore

    machine = Ncore()
    machine.dma_read.configure_window(0)
    machine.memory.write(0, b"\x05" * (64 * 4096))
    machine.set_dma_descriptor(
        0, DmaDescriptor(False, True, ram_row=0, rows=64, dram_addr=0)
    )
    program = assemble("dmastart 0\ndmawait 1\nhalt")

    def run():
        machine.reset()
        machine.dma_read.busy_until = 0
        return machine.execute_program(program)

    result = benchmark(run)
    assert result.halted
