"""Differential fuzzing of the fast path against the interpreter.

Hundreds of seeded random — but legal — programs built from the fusable
instruction vocabulary (rotates, broadcasts, bypasses, every NPU op,
requant/store, fused loops, hardware repeats), run on both execution
tiers from identical random RAM images and configuration registers.
Everything observable must match bit-for-bit; traces the fast path
rejects simply fall back to the interpreter and still must agree.
"""

import numpy as np
import pytest

from repro.isa import assemble
from repro.ncore import Ncore

from tests.ncore.test_fastpath import _assert_same_state

PROGRAMS = 200

_NPU_OPS = ["mac", "add", "sub", "min", "max", "and", "or", "xor"]
_DTYPES = ["", ".uint8", ".int8", ".int16"]
_DATA_SOURCES = ["n0", "n1", "dlast", "dram[a0]", "zero"]
_WEIGHT_SOURCES = ["n1", "n2", "wtram[a1]", "zero"]


def _random_instruction(rng) -> str:
    """One (possibly multi-unit) instruction line in assembly syntax."""
    statements = []
    if rng.random() < 0.8:
        kind = rng.integers(0, 4)
        if kind == 0:
            statements.append(f"bypass n{rng.integers(0, 3)}, dram[a0]")
        elif kind == 1:
            direction = rng.choice(["rotl", "rotr"])
            reg = rng.integers(0, 3)
            statements.append(f"{direction} n{reg}, n{reg}, {rng.integers(1, 65)}")
        elif kind == 2:
            statements.append(f"broadcast64 n{rng.integers(0, 3)}, wtram[a1], a5, inc")
        else:
            statements.append(f"bypass n{rng.integers(0, 3)}, wtram[a1]")
    if rng.random() < 0.8:
        op = rng.choice(_NPU_OPS)
        dtype = rng.choice(_DTYPES)
        if dtype == ".int16":
            # 16-bit NPU operands must come straight from the RAMs.
            data = rng.choice(["dram[a0]", "zero"])
            weight = rng.choice(["wtram[a1]", "zero"])
        else:
            data = rng.choice(_DATA_SOURCES)
            weight = rng.choice(_WEIGHT_SOURCES)
        if rng.random() < 0.3:
            data += f">>{rng.integers(1, 4)}"
        flags = []
        if rng.random() < 0.3:
            flags.append("zoff")
        if rng.random() < 0.2:
            flags.append("noacc")
        if rng.random() < 0.15:
            flags.append("neighbor")
        tail = (", " + ", ".join(flags)) if flags else ""
        statements.append(f"{op}{dtype} {data}, {weight}{tail}")
    if rng.random() < 0.25:
        if rng.random() < 0.7:
            act = rng.choice(["", " relu", " relu6"])
            statements.append(f"requant.uint8{act}")
        else:
            statements.append("store a6, inc")
    if not statements:
        statements.append("nop")
    return " | ".join(statements)


def _random_program(rng) -> str:
    lines = [
        "setaddr a0, 0",
        "setaddr a1, 0",
        "setaddr a5, 0",
        f"setaddr a6, {int(rng.integers(64, 96))}",
    ]
    for _ in range(int(rng.integers(1, 5))):
        roll = rng.random()
        if roll < 0.5:
            # A fused block: one instruction with a hardware repeat count,
            # on either side of MIN_FUSED_TRIPS.
            lines.append(f"loop {int(rng.integers(2, 48))} {{")
            lines.append("  " + _random_instruction(rng))
            lines.append("}")
        elif roll < 0.75:
            # A multi-instruction hardware loop (interpreted; body repeats fuse).
            lines.append(f"loopn {int(rng.integers(2, 16))}")
            for _ in range(int(rng.integers(1, 3))):
                lines.append(_random_instruction(rng))
            lines.append("endloop")
        else:
            lines.append(_random_instruction(rng))
        if rng.random() < 0.3:
            lines.append(f"setaddr a5, {int(rng.integers(0, 8))}")
    lines.append("halt")
    return "\n".join(lines)


def _configured_machine(seed: int, fastpath: bool) -> Ncore:
    rng = np.random.default_rng(seed)
    machine = Ncore(fastpath=fastpath)
    machine.write_data_ram(0, rng.integers(0, 256, size=16 * 4096, dtype=np.uint8).tobytes())
    machine.write_weight_ram(0, rng.integers(0, 256, size=16 * 4096, dtype=np.uint8).tobytes())
    machine.set_zero_offsets(int(rng.integers(0, 256)), int(rng.integers(0, 256)))
    machine.set_requant(
        int(rng.integers(1 << 29, 1 << 31)),
        int(rng.integers(0, 12)),
        int(rng.integers(-64, 64)),
    )
    return machine


@pytest.mark.parametrize("batch", range(8))
def test_random_programs_differential(batch):
    per_batch = PROGRAMS // 8
    for index in range(per_batch):
        seed = batch * per_batch + index
        source = _random_program(np.random.default_rng(1000 + seed))
        program = assemble(source)
        fast = _configured_machine(seed, fastpath=True)
        interp = _configured_machine(seed, fastpath=False)
        fast_run = fast.execute_program(program)
        interp_run = interp.execute_program(program)
        assert fast_run.halted and interp_run.halted, source
        assert fast_run.cycles == interp_run.cycles, source
        assert fast_run.issues == interp_run.issues, source
        assert fast_run.macs == interp_run.macs, source
        try:
            _assert_same_state(fast, interp)
        except AssertionError:  # pragma: no cover - diagnostic aid
            print(f"seed {seed} diverged:\n{source}")
            raise


def test_fuzz_exercises_both_fusion_kinds():
    # Sanity: across the corpus the fast path actually fuses a meaningful
    # share of traces (the differential above would pass trivially if the
    # generator only ever produced rejected traces).
    hits = 0
    for seed in range(40):
        source = _random_program(np.random.default_rng(1000 + seed))
        machine = _configured_machine(seed, fastpath=True)
        machine.execute_program(assemble(source))
        hits += machine.fastpath_stats["hits"]
    assert hits > 10
