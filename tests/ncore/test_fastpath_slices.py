"""Every catalog kind, stopped by ``step(budget)`` at each word boundary of
its first two passes and at the end of each run, equals the interpreter
stopped there.

A fused run commits whole or not at all: a budget that ends inside a run
leaves it to the interpreter (no fused trip), and one that covers it fuses
it whole.  The machine stepped with the fast path, fresh for each
boundary, must hold the interpreter's RAM, registers, OUT registers,
counters and RAM traffic there, and its ``state_digest`` at each clear,
requant and store.
"""

import numpy as np
import pytest

from repro.isa import Instruction, SeqOp, SeqOpcode
from repro.isa.instruction import OutOpcode
from repro.ncore import Ncore
from repro.ncore.fastpath import MIN_FUSED_TRIPS, compile_program
from repro.obs import NULL_OBSERVATION
from repro.sanitize.oracle import state_digest
from tests.helpers import catalog_kinds


def _first_chunk(machine, kind):
    """The kind's staged machine and its first IRAM chunk, as
    ``run_streamed`` loads it."""
    program, _ = kind.emit(machine)
    chunk = list(program[: machine.iram.bank_instructions - 1])
    if not chunk[-1].is_halt:
        chunk.append(Instruction(seq=SeqOp(SeqOpcode.HALT)))
    return chunk


def _scalars(m):
    return (
        m.addr_regs, m.pc, m.halted, m.total_cycles, m.total_instructions, m.total_issues,
        m.total_macs, m.data_ram.reads, m.weight_ram.reads, m.data_ram.writes,
        {name: (c.value, c.wrapped) for name, c in m.perf_counters.items()},
    )


def _assert_same(fast, interp):
    for name in ("ndu_regs", "acc_int", "out_low", "out_high"):
        np.testing.assert_array_equal(getattr(fast, name), getattr(interp, name), err_msg=name)
    assert np.array_equal(fast.data_ram.data, interp.data_ram.data)
    assert np.array_equal(fast.weight_ram.data, interp.weight_ram.data)
    assert _scalars(fast) == _scalars(interp)


@pytest.mark.parametrize("kind", catalog_kinds(), ids=lambda kind: kind.name)
def test_each_word_boundary_of_two_passes_matches_the_interpreter(kind):
    interp = Ncore(fastpath=False)
    chunk = _first_chunk(interp, kind)
    interp.load_program(chunk)
    cycles = np.cumsum([ins.total_cycles() for ins in chunk])
    stores = [pc for pc, ins in enumerate(chunk)
              if ins.out is not None and ins.out.opcode is OutOpcode.STORE]
    last = stores[1] if len(stores) > 1 else len(chunk) - 1
    runs = [(pc, trace) for pc, trace in
            compile_program(chunk, interp.config, {}, NULL_OBSERVATION).items() if trace]
    # Kinds too short to fuse compile no run.
    assert bool(runs) == (sum(ins.repeat for ins in chunk) >= MIN_FUSED_TRIPS)
    ends = [pc + trace.words - 1 for pc, trace in runs]  # each run's last word
    for word in sorted({*range(last + 1), *ends}):
        interp.step(int(cycles[word]) - interp.total_cycles)
        fast = Ncore()
        fast.load_program(_first_chunk(fast, kind))
        fast.step(int(cycles[word]))
        assert fast.pc == interp.pc == word + 1, (kind.name, word)
        _assert_same(fast, interp)
        # The runs the budget covers fuse whole; the one it ends inside not at all.
        covered = sum(trace.trips for (_, trace), end in zip(runs, ends, strict=True)
                      if end <= word)
        assert fast.fastpath_stats["fused_trips"] == covered, (kind.name, word)
        ins = chunk[word]
        if ins.out is not None or (ins.npu is not None and not ins.npu.accumulate):
            assert state_digest(fast) == state_digest(interp), (kind.name, word)
