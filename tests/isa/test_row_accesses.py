"""``Instruction.row_accesses`` / ``addr_steps`` against the golden model.

The interpreter (``Ncore(fastpath=False)``) stays the executable reference
for what an issue touches; the ISA's table is what the trace compiler, the
program verifier and the hazard analyzer read.  Here every issue of real
and random programs runs under a recording sanitizer, one issue per
``step()``: the rows the machine reports must be the table's, evaluated at
the pre-issue address registers, and the registers must move by
``addr_steps()``.
"""

import dataclasses

import numpy as np
import pytest

from repro.isa import assemble
from repro.isa.instruction import (
    Instruction,
    NDUOp,
    NDUOpcode,
    RowAccess,
    SeqOpcode,
)
from tests.helpers import data_ram, weight_ram
from repro.ncore import Ncore
from repro.sanitize.sanitizer import Sanitizer

from tests.analyze.test_program_rules import _forge
from tests.ncore.test_fastpath import NKL_EMITTERS
from tests.ncore.test_fastpath_fuzz import _configured_machine, _random_program


class _Recorder(Sanitizer):
    """Records ``(ram, row, rows, write)`` per RAM access; checks nothing."""

    def __init__(self, config):
        super().__init__(config)
        self.events = []

    def on_row_read(self, ram, row, rows, cycle, pc):
        self.events.append((ram, row, rows, False))

    def on_row_write(self, ram, row, rows, cycle, pc):
        self.events.append((ram, row, rows, True))


def _check_every_issue(machine, program):
    """Single-step ``program``; returns the number of issues checked."""
    recorder = machine.arm_sanitizer(_Recorder(machine.config))
    machine.load_program(program)
    machine.n_step = 1  # one issue per step(), also mid-repeat
    issues = 0
    while not machine.halted:
        instruction = program[machine.pc]
        before = list(machine.addr_regs)
        recorder.events.clear()
        result = machine.step()
        assert result.issues == 1
        issues += 1
        expected = [
            (access.ram, before[access.reg], access.rows, access.write)
            for access in instruction.row_accesses()
        ]
        assert recorder.events == expected, instruction
        steps = instruction.addr_steps()
        seq = instruction.seq
        for reg, (old, new) in enumerate(zip(before, machine.addr_regs)):
            if seq.opcode in (SeqOpcode.SET_ADDR, SeqOpcode.ADD_ADDR) and seq.arg == reg:
                continue  # the sequencer rewrote it after the issue
            assert new - old == steps.get(reg, 0), (instruction, reg)
    return issues


@pytest.mark.parametrize("name", sorted(NKL_EMITTERS))
def test_nkl_programs_touch_what_the_table_says(name):
    machine = Ncore(fastpath=False)
    program, _ = NKL_EMITTERS[name](machine)
    assert _check_every_issue(machine, program) >= len(program)


@pytest.mark.parametrize("batch", range(4))
def test_random_programs_touch_what_the_table_says(batch):
    # The fast-path fuzz corpus: int16 lanes, ``store ... inc``, ``loopn``,
    # ``broadcast64 ... inc`` and every NPU op, mixed per instruction.
    for seed in range(batch * 10, batch * 10 + 10):
        program = assemble(_random_program(np.random.default_rng(1000 + seed)))
        _check_every_issue(_configured_machine(seed, fastpath=False), program)


def test_wide_operands_storeacc_and_merge():
    # What the fuzz vocabulary lacks: bf16 lanes, the four-row accumulator
    # spill (with a post-increment the assembler has no syntax for) and a
    # MERGE whose mask comes from RAM.
    (storeacc,) = assemble("storeacc a6")
    spill = dataclasses.replace(
        storeacc, out=dataclasses.replace(storeacc.out, dst_increment=True), repeat=3
    )
    merge = Instruction(ndu_ops=(
        NDUOp(NDUOpcode.MERGE, 1, data_ram(0, True), src2=weight_ram(1, True)),
    ), repeat=2)
    program = [
        *assemble(
            "setaddr a0, 2\nsetaddr a1, 4\nsetaddr a6, 40\n"
            "loop 3 {\n  mac.bf16 dram[a0++], wtram[a1]\n}\n"
            "loop 2 {\n  mac.int16 dram[a0], wtram[a1++], noacc\n}\n"
            "storeacc a6"
        ),
        spill,
        merge,
        *assemble("halt"),
    ]
    assert spill.row_accesses() == (RowAccess("out", "data", 6, 4, 4, True),)
    assert spill.addr_steps() == {6: 4}
    assert [a.ram for a in merge.row_accesses()] == ["data", "weight"]
    machine = _configured_machine(0, fastpath=False)
    _check_every_issue(machine, program)
    assert machine.addr_regs[0] == 2 + 3 * 2 + 2  # bf16 pairs, then the merge
    assert machine.addr_regs[1] == 4 + 2 * 2 + 2  # int16 pairs, then the mask
    assert machine.addr_regs[6] == 40 + 3 * 4


def test_table_answers_for_instructions_the_machine_would_reject():
    # Plain methods over the fields: an NPU NOP reads nothing, EXPAND never
    # reads its ``src2``, and a forged register index is reported as is.
    (nop,) = assemble("nop")
    assert nop.row_accesses() == () and nop.addr_steps() == {}
    expand = NDUOp(NDUOpcode.EXPAND, 0, weight_ram(1, True), src2=data_ram(2, True))
    assert Instruction(ndu_ops=(expand,)).addr_steps() == {1: 1}
    (store,) = assemble("store a6, inc")
    forged = dataclasses.replace(store, out=_forge(store.out, dst_addr_reg=11))
    assert forged.row_accesses() == (RowAccess("out", "data", 11, 1, 1, True),)
    assert forged.addr_steps() == {11: 1}
