"""Simulator performance: how fast the instruction-level model executes.

Times one round of the NKL program catalog (:mod:`repro.nkl.catalog`: ten
kinds at zoo-layer shapes, the Fig. 6 loop among them) on the functional
simulator in both machine modes, with every output checked against its
numpy kernel (or the interpreter, where no bit-exact kernel exists), plus
a 64-row DMA round trip.  :func:`build_machine` is the Fig. 6 machine the
fast-path and observability guards time.
"""

import numpy as np
import pytest

from repro.ncore import Ncore
from repro.nkl.catalog import FIG6_TRIPS, build_kinds, fig6_program
from repro.nkl.programs import run_streamed
from repro.obs import NULL_OBSERVATION


def build_machine(fastpath=True, obs=NULL_OBSERVATION):
    """A machine with constant RAM contents plus the Fig. 6 program."""
    machine = Ncore(fastpath=fastpath, obs=obs)
    row_bytes = machine.config.row_bytes
    machine.write_data_ram(0, bytes(np.full(row_bytes, 3, np.uint8)))
    machine.write_weight_ram(0, bytes(np.full(row_bytes, 2, np.uint8)))
    return machine, fig6_program(FIG6_TRIPS)


def _run_kind(kind, fastpath):
    machine = Ncore(fastpath=fastpath)
    program, handle = kind.emit(machine)
    assert run_streamed(machine, program).halted, kind.name
    return kind.read(machine, handle)


@pytest.mark.parametrize("fastpath", [True, False], ids=["fused", "interpreter"])
def test_catalog_round_throughput(benchmark, fastpath):
    kinds = build_kinds(np.random.default_rng(1))
    outputs = benchmark(lambda: [_run_kind(kind, fastpath) for kind in kinds])
    for kind, output in zip(kinds, outputs, strict=True):
        expected = kind.reference
        if expected is None:
            expected = _run_kind(kind, fastpath=False)
        np.testing.assert_array_equal(output, expected, err_msg=kind.name)


def test_simulator_dma_roundtrip_throughput(benchmark):
    from repro.isa import assemble
    from repro.ncore import DmaDescriptor

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
