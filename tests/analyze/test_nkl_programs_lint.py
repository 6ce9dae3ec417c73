"""The program verifier and the hazard analyzer over what the NKL emits.

Both passes were written for hand-emitted kernels; these are the kernels:
every kind of the NKL program catalog (``repro.nkl.catalog``), which
reaches every ``emit_*`` of ``repro.nkl.programs`` at the zoo-layer shapes
the ledger's ``machine_nkl`` workload runs, plus the Fig. 6 loop.
Streamed conv / depthwise programs exceed one IRAM bank by design (the
runtime double-buffers the banks), so ``isa.iram-overflow`` is the one
finding allowed.
"""

import pytest

from repro.analyze import analyze_program, analyze_program_hazards
from repro.ncore import Ncore
from repro.nkl import programs as nkl

from tests.helpers import catalog_emitters, catalog_kinds

#: kind name -> catalog kind.
KINDS = {kind.name: kind for kind in catalog_kinds()}


def test_every_emitter_is_linted():
    assert set(catalog_emitters()) == {n for n in dir(nkl) if n.startswith("emit_")}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_nkl_program_lints_clean(kind):
    program, _ = KINDS[kind].emit(Ncore(fastpath=False))
    rules = {d.rule for d in analyze_program(program, name=kind)}
    assert rules <= {"isa.iram-overflow"}, rules
    hazards = analyze_program_hazards(program, name=kind)
    assert len(hazards) == 0, [d.message for d in hazards]
