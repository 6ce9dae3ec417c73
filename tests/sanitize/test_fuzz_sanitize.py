"""The sanitizer over a seeded subset of the differential fuzz corpus.

Reuses the fastpath fuzz generator: random-but-legal programs from the
full single-instruction vocabulary, run on a sanitized interpreter next to a plain
one.  The sanitizer must never perturb architectural state, and a corpus
with no DMA instructions must produce no race or out-of-bounds findings
(uninitialized-read findings are expected — the generator freely walks
address registers past the staged 16 rows).
"""

import numpy as np
import pytest

from repro.isa import assemble
from repro.sanitize import state_digest

from tests.ncore.test_fastpath_fuzz import _configured_machine, _random_program

SEEDS = range(0, 48, 2)  # 24 programs out of the 200-seed corpus


@pytest.mark.parametrize("seed", SEEDS)
def test_sanitized_run_matches_plain_interpreter(seed):
    source = _random_program(np.random.default_rng(1000 + seed))
    program = assemble(source)

    plain = _configured_machine(seed, fastpath=False)
    sanitized = _configured_machine(seed, fastpath=False)
    sanitizer = sanitized.arm_sanitizer(True)

    plain_run = plain.execute_program(program)
    sanitized_run = sanitized.execute_program(program)

    assert sanitized_run.halted == plain_run.halted, source
    assert sanitized_run.cycles == plain_run.cycles, source
    assert state_digest(plain) == state_digest(sanitized), source

    rules = {d.rule for d in sanitizer.report}
    assert "san.race" not in rules, source
    assert "san.dma-oob" not in rules, source


def test_corpus_exercises_the_shadow_hooks():
    checked = 0
    for seed in SEEDS:
        source = _random_program(np.random.default_rng(1000 + seed))
        machine = _configured_machine(seed, fastpath=False)
        sanitizer = machine.arm_sanitizer(True)
        machine.execute_program(assemble(source))
        checked += sanitizer.stats["reads_checked"] + sanitizer.stats["writes_checked"]
    assert checked > 100
