"""Determinism and equivalence oracles built on architectural state digests.

Two cheap whole-machine checks that complement the shadow-SRAM sanitizer:

- :func:`check_determinism` runs one program on N freshly-built machines
  and compares their final state digests — any divergence means hidden
  nondeterminism (``san.divergence``),
- :func:`oracle_compare` runs the same program through the pure
  interpreter and through the Tier-1 fast path and compares digests plus
  the cycle/issue/MAC counters (``san.oracle-mismatch``).

Both return :class:`~repro.analyze.diagnostics.AnalysisReport` so the
findings compose with the static and shadow-memory reports.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.analyze.diagnostics import AnalysisReport, diag
from repro.ncore.config import NcoreConfig
from repro.ncore.machine import Ncore

from repro.sanitize.sanitizer import DIVERGENCE, ORACLE_MISMATCH

SetupFn = Callable[[Ncore], None]


def state_digest(machine: Ncore) -> str:
    """SHA-256 over every architectural state element of the machine.

    Covers both scratchpads, all register files, the accumulators, the
    output and predicate registers, and the sequencer/statistics state —
    two runs that differ anywhere observable differ in this digest.
    """
    h = hashlib.sha256()
    h.update(machine.data_ram.data.tobytes())
    h.update(machine.weight_ram.data.tobytes())
    h.update(bytes(str(machine.addr_regs), "ascii"))
    h.update(machine.ndu_regs.tobytes())
    h.update(machine.acc_int.tobytes())
    h.update(machine.acc_float.tobytes())
    h.update(machine.out_low.tobytes())
    h.update(machine.out_high.tobytes())
    h.update(machine.pred_regs.tobytes())
    scalars = (
        machine.pc,
        machine.halted,
        machine.total_cycles,
        machine.total_instructions,
        machine.total_issues,
        machine.total_macs,
        machine.dma_stall_cycles,
    )
    h.update(bytes(str(scalars), "ascii"))
    return h.hexdigest()


def _run_once(
    program_source: str,
    *,
    config: NcoreConfig | None,
    setup: SetupFn | None,
    fastpath: bool,
    name: str,
) -> Ncore:
    from repro.isa.assembler import assemble

    machine = Ncore(config=config, fastpath=fastpath)
    if setup is not None:
        setup(machine)
    machine.execute_program(assemble(program_source))
    return machine


def check_determinism(
    program_source: str,
    *,
    config: NcoreConfig | None = None,
    setup: SetupFn | None = None,
    name: str = "ncore",
) -> AnalysisReport:
    """Run ``program_source`` on two fresh machines; digests must agree.

    ``setup`` stages each machine (RAM contents, descriptors, config
    registers) and must itself be deterministic — a stateful setup closure
    is exactly the nondeterminism this check exists to expose.
    """
    report = AnalysisReport()
    digests = [
        state_digest(_run_once(
            program_source, config=config, setup=setup, fastpath=False,
            name=name,
        ))
        for _ in range(2)
    ]
    if len(set(digests)) > 1:
        report.extend([diag(
            DIVERGENCE,
            f"{len(digests)} runs of the same program from the same initial "
            f"state produced {len(set(digests))} distinct state digests "
            f"({', '.join(d[:12] for d in digests)})",
            artifact=name, element="determinism",
            hint="look for state leaking between runs via the setup hook",
        )])
    return report


def oracle_compare(
    program_source: str,
    *,
    config: NcoreConfig | None = None,
    setup: SetupFn | None = None,
    name: str = "ncore",
) -> AnalysisReport:
    """Interpreter-vs-fastpath equivalence for one program.

    The fast path's contract is bit-identical architectural state *and*
    cycle-exact statistics; both are compared here.
    """
    report = AnalysisReport()
    interpreted = _run_once(
        program_source, config=config, setup=setup, fastpath=False, name=name,
    )
    fused = _run_once(
        program_source, config=config, setup=setup, fastpath=True, name=name,
    )
    digest_i = state_digest(interpreted)
    digest_f = state_digest(fused)
    if digest_i != digest_f:
        details = []
        for field in ("total_cycles", "total_issues", "total_macs", "pc"):
            a, b = getattr(interpreted, field), getattr(fused, field)
            if a != b:
                details.append(f"{field}: {a} vs {b}")
        report.extend([diag(
            ORACLE_MISMATCH,
            "fastpath execution diverges from the interpreter "
            f"(digest {digest_i[:12]} vs {digest_f[:12]}"
            + (f"; {', '.join(details)}" if details else "")
            + ")",
            artifact=name, element="fastpath",
            hint="run the differential fuzz suite to minimize the trigger",
        )])
    return report
