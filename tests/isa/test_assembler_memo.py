"""The assembler's per-call memo is invisible.

``assemble`` parses each distinct line and each distinct ``loop N { ... }``
block once per call and reuses the built instruction for every repeat.
These tests pin that this changes nothing observable: the program equals
assembling every instruction's text on its own, errors name the first
offending line, and no state survives from one call to the next.
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.isa import AssemblyError, assemble, disassemble
from repro.ncore import Ncore
from repro.nkl import programs
from tests.nkl.test_staged_ram import CASES


def _chunks(source: str) -> list[str]:
    """Split source text into one text per instruction: a stand-alone
    line, or a whole ``loop N { ... }`` block."""
    chunks: list[str] = []
    block: list[str] | None = None
    for raw in source.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if block is not None:
            block.append(line)
            if line == "}":
                chunks.append("\n".join(block))
                block = None
        elif line.startswith("loop "):
            block = [line]
        else:
            chunks.append(line)
    assert block is None
    return chunks


def _assert_invisible(source: str) -> list:
    program = assemble(source)
    one_by_one = [ins for chunk in _chunks(source) for ins in assemble(chunk)]
    assert program == one_by_one
    assert assemble(disassemble(program)) == program
    return program


def _emitted_source(monkeypatch, name: str) -> str:
    """The text the named emitter case hands to ``assemble``, joined over
    its calls (the window emitters assemble each distinct pass once)."""
    sources: list[str] = []

    def recording(source):
        sources.append(source)
        return assemble(source)

    monkeypatch.setattr(programs, "assemble", recording)
    emit, _ = CASES[name]
    emit(Ncore(), np.random.default_rng(0))
    return "\n".join(sources)


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitted_programs_equal_per_instruction_assembly(monkeypatch, name):
    _assert_invisible(_emitted_source(monkeypatch, name))


def test_repeats_share_one_instruction_object(monkeypatch):
    source = _emitted_source(monkeypatch, "conv3x3_s1")
    program = _assert_invisible(source)
    distinct = set(_chunks(source))
    assert len(program) > 3 * len(distinct)
    assert len({id(ins) for ins in program}) == len(distinct)


_LINES = [
    "setaddr a0, 3",
    "setaddr a0, 3   ; same statement, with a comment",
    "addaddr a1, -2",
    "nop",
    "bypass n0, dram[a0++]",
    "rotl n1, n1, 8",
    "rotr n2, n0, 64",
    "broadcast64 n1, wtram[a3], a5, inc",
    "mac.uint8 n0, n1, zoff",
    "add.int16 dram[a0], n2, noacc, zoff, neighbor, pred3",
    "max.uint8 dram[a0++], zero",
    "requant.uint8 relu",
    "store a6, inc",
    "storeacc a6",
    "bypass n0, dram[a0++] | mac n0, wtram[a1++] | requant relu",
    "event 7",
    "loopn 4",
    "endloop",
]

_BLOCKS = [
    "loop 3 {\n  broadcast64 n1, wtram[a3], a5, inc\n"
    "  mac.uint8 dlast, n1, zoff\n  rotl n0, n0, 1\n}",
    "loop 7 {\n  add.uint8 dram[a0++], zero\n}",
    "loop 3 {\n  add.uint8 dram[a0++], zero\n}",  # same body, other count
    "loop 2 {\n  bypass n0, dram[a0++]\n  broadcast64 n1, wtram[a3], a5, inc\n"
    "  mac.uint8 n0, n1, zoff\n}",
    "loop 2 {\n  bypass n0, dram[a0++] | mac n0, wtram[a1++]\n}",
]


@pytest.mark.parametrize("seed", range(6))
def test_seeded_corpus_with_repeats(seed):
    rng = np.random.default_rng(seed)
    pool = _LINES + _BLOCKS
    picks = rng.integers(0, len(pool), size=300)
    source = "\n".join(pool[i] for i in picks) + "\nhalt\n"
    program = _assert_invisible(source)
    assert len(program) == 301


def test_repeated_malformed_line_reports_its_first_line():
    source = "setaddr a0, 1\nfrobnicate n0\nnop\nfrobnicate n0\nhalt"
    with pytest.raises(AssemblyError, match="line 2") as info:
        assemble(source)
    assert info.value.line_no == 2


def test_repeated_malformed_block_reports_its_first_line():
    bad_body = "loop 3 {\n  mac.uint8 n9, n1\n}"
    source = "nop\n" + bad_body + "\nnop\n" + bad_body + "\nhalt"
    with pytest.raises(AssemblyError, match="NDU register 9") as info:
        assemble(source)
    assert info.value.line_no == 3
    # A block whose statements parse but cannot form one instruction
    # reports the line its ``loop`` opens on.
    bad_block = "loop 3 {\n  bypass n1, dram[a0]\n  rotl n1, n0, 1\n}"
    source = "nop\n" + bad_block + "\n" + bad_block + "\nhalt"
    with pytest.raises(AssemblyError, match="distinct registers") as info:
        assemble(source)
    assert info.value.line_no == 2


@pytest.mark.parametrize(
    "source, line_no, message",
    [
        ("loop 2 {\n  nop\n  frobnicate\n", 3, "unknown mnemonic"),
        ("loop 2 {\n  nop\n", 1, "unterminated"),
        ("loop 2 {\n  frobnicate\n  loop 3 {\n", 2, "unknown mnemonic"),
        ("loop 2 {\n  nop\n  loop 3 {\n", 3, "nested"),
    ],
)
def test_open_block_errors_keep_their_order(source, line_no, message):
    """The body's own errors come before the block's structural ones."""
    with pytest.raises(AssemblyError, match=message) as info:
        assemble(source)
    assert info.value.line_no == line_no


_GOOD = (
    "setaddr a0, 1\nloop 3 {\n  add.uint8 dram[a0++], zero\n}\n"
    "setaddr a0, 1\nloop 3 {\n  add.uint8 dram[a0++], zero\n}\nhalt\n"
)


def test_no_state_survives_a_failing_call():
    with pytest.raises(AssemblyError):
        assemble(_GOOD.replace("halt", "setaddr a0, 1 | nop | frobnicate"))
    after_failure = assemble(_GOOD)
    fresh = subprocess.run(
        [
            sys.executable,
            "-c",
            "import pickle, sys\n"
            "from repro.isa import assemble\n"
            "sys.stdout.buffer.write(pickle.dumps(assemble(sys.stdin.read())))",
        ],
        input=_GOOD.encode(),
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert after_failure == pickle.loads(fresh)
