"""Bank streaming (``run_streamed``) of programs longer than one IRAM bank.

A ``loopn`` body must run from one bank: its ``endloop`` jumps back to the
body's pc in the bank the ``loopn`` ran from.  So the streamer cuts chunks
only at loop depth 0, and refuses a loop whose body cannot fit a bank.
"""

import pytest

from repro.isa import assemble
from repro.ncore import Ncore
from repro.nkl.programs import ProgramShapeError, run_streamed


def _loop_across_bank(pad: int, tail: int) -> str:
    """``pad`` nops put the ``loopn`` right at the first bank boundary."""
    return "\n".join(
        ["nop"] * pad
        + ["setaddr a1, 0", "loopn 4", "addaddr a1, 1", "addaddr a1, 1", "endloop"]
        + ["addaddr a2, 1"] * tail
        + ["halt"]
    )


@pytest.mark.parametrize("tail", [300, 3])
@pytest.mark.parametrize("pad", [250, 251, 252, 253])
def test_loop_body_is_never_split_across_banks(pad, tail):
    machine = Ncore()
    program = assemble(_loop_across_bank(pad, tail))
    assert len(program) > machine.iram.bank_instructions
    run = run_streamed(machine, program)
    assert run.halted
    assert machine.addr_regs[1] == 8
    assert machine.addr_regs[2] == tail
    assert not machine.loop_stack


def test_streamed_loop_runs_like_one_bank():
    """The cut moves the whole loop into the next bank and costs nothing
    but the bank-boundary halt: same registers as the unsplit program."""
    source = _loop_across_bank(0, 3)
    whole = Ncore()
    whole.execute_program(assemble(source))
    streamed = Ncore()
    run_streamed(streamed, assemble(_loop_across_bank(251, 3)))
    assert streamed.addr_regs == whole.addr_regs


def test_nested_loops_cut_before_the_outermost():
    source = "\n".join(
        ["nop"] * 250
        + ["loopn 2", "loopn 3", "addaddr a1, 1", "endloop", "addaddr a2, 1", "endloop"]
        + ["halt"]
    )
    machine = Ncore()
    assert run_streamed(machine, assemble(source)).halted
    assert (machine.addr_regs[1], machine.addr_regs[2]) == (6, 2)


def test_loop_longer_than_a_bank_is_refused():
    source = "\n".join(
        ["nop"] * 10 + ["loopn 2"] + ["addaddr a1, 1"] * 300 + ["endloop", "halt"]
    )
    with pytest.raises(ProgramShapeError, match="loopn at pc 10"):
        run_streamed(Ncore(), assemble(source))
