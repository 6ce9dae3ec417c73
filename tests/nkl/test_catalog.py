"""The NKL program catalog: it reaches every emitter, every kind equals its
reference on both machine modes, and it equals the performance ledger's
frozen copy of the ten ``machine_nkl`` kinds.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ncore import Ncore
from repro.nkl import catalog, programs
from repro.nkl.programs import run_streamed
from repro.nkl.schedule import conv2d_schedule, depthwise_schedule

from tests.helpers import catalog_emitters, catalog_kinds
from tests.nkl.test_staged_ram import staged_digest

LEDGER = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"


@pytest.fixture(scope="module")
def ledger_workloads():
    """The ledger's ``workloads`` module, imported by path.  It and its
    top-level ``metrics`` / ``spans`` imports are removed from
    ``sys.modules`` again, so no later test sees the ledger's modules under
    those names."""
    names = ("metrics", "spans", "ledger_workloads")
    saved = {name: sys.modules.pop(name, None) for name in names}
    sys.path.insert(0, str(LEDGER))
    try:
        spec = importlib.util.spec_from_file_location(
            "ledger_workloads", LEDGER / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules["ledger_workloads"] = module  # its dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(LEDGER))
        for name, previous in saved.items():
            if previous is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = previous
    return module


def _run(kind, fastpath):
    machine = Ncore(fastpath=fastpath)
    program, handle = kind.emit(machine)
    assert run_streamed(machine, program).halted, kind.name
    return machine, np.array(kind.read(machine, handle))


def test_every_emitter_is_reached_by_a_kind():
    assert set(catalog_emitters()) == {n for n in dir(programs) if n.startswith("emit_")}


def test_every_kind_equals_its_reference():
    for kind in catalog_kinds():
        _, interpreted = _run(kind, fastpath=False)
        _, fused = _run(kind, fastpath=True)
        np.testing.assert_array_equal(fused, interpreted, err_msg=kind.name)
        if kind.reference is not None:
            np.testing.assert_array_equal(interpreted, kind.reference, err_msg=kind.name)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_catalog_equals_the_ledger(ledger_workloads, seed):
    ours_rng, theirs_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ours = catalog.build_kinds(ours_rng)
    theirs = ledger_workloads.build_kinds(theirs_rng)
    assert [k.name for k in ours] == [k.name for k in theirs]
    assert ours_rng.bit_generator.state == theirs_rng.bit_generator.state
    for kind, frozen in zip(ours, theirs, strict=True):
        machine, frozen_machine = Ncore(fastpath=False), Ncore(fastpath=False)
        program, _ = kind.emit(machine)
        frozen_program, _ = frozen.emit(frozen_machine)
        assert program == frozen_program, kind.name
        assert staged_digest(machine) == staged_digest(frozen_machine), kind.name
        if kind.reference is None:
            assert frozen.expected is None, kind.name
        else:
            np.testing.assert_array_equal(kind.reference, frozen.expected, err_msg=kind.name)


#: conv kind -> (its ``Ncore.total_cycles``, the closed-form schedule of
#: the same shape and stride).  The schedule counts the program the
#: emitter runs from the same pass plan: the taps and the 4-word epilogue
#: of each pass, the 5 setup words and one halt per extra IRAM bank chunk
#: of ``run_streamed`` (2, 0, 1, 0 here).
CONV_SCHEDULES = {
    "conv3x3_s1": (945, conv2d_schedule(7, 64, 28, 28, 3, 3)),
    "conv3x3_s2": (253, conv2d_schedule(3, 32, 8, 56, 3, 3, stride=2)),
    "conv1x1": (278, conv2d_schedule(64, 64, 14, 14, 1, 1)),
    "depthwise3x3": (187, depthwise_schedule(64, 28, 28, 3, 3)),
}


@pytest.mark.parametrize("fastpath", [False, True])
@pytest.mark.parametrize("seed", [1, 2])
def test_conv_kinds_run_at_their_schedule(seed, fastpath):
    kinds = {k.name: k for k in catalog.build_kinds(np.random.default_rng(seed))}
    for name, (cycles, schedule) in CONV_SCHEDULES.items():
        machine, _ = _run(kinds[name], fastpath=fastpath)
        assert machine.total_cycles == schedule.cycles == cycles, name
