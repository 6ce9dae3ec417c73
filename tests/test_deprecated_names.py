"""No source module references the removed pre-rename spellings.

PR 3 renamed the machine-level ``RunResult`` to ``MachineRunResult`` and
left a warn-once module alias behind; the alias is now gone.  The
``InferenceSession`` / ``compile_model`` facades, the no-op ``fastpath``
graph tier, the reserved ``predict`` slot and the legacy executor kwargs
followed, then the pass-through ``*Step`` classes of the Tier-3 codegen
and its run-time variant race, then the process-wide machine-mode default
and ``loopn`` region fusion, then the analyzers' private copies of what an
instruction touches (``Instruction.row_accesses`` is the one table), then
the test-only ``EngineExecutor`` serving pipeline and ``MachineTask``, then
the per-table benchmark files, their helper module and the second Fig. 13
definition (``repro.perf.report`` is the one generator of paper numbers).
These tests grep the tree so a stray reference (or a reintroduced alias)
fails loudly rather than resurrecting an old name.
"""

import dataclasses
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Modules allowed to say ``RunResult`` because they define or consume the
#: *runtime-level* result type (``repro.runtime.delegate.RunResult``),
#: which was never deprecated.
_RUNTIME_RESULT_FILES = {
    SRC / "runtime" / "delegate.py",
    SRC / "runtime" / "executor.py",
}


def _source_files():
    return sorted(SRC.rglob("*.py"))


def _grep(pattern, files):
    return [
        f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}"
        for path in files
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]


def _tree_files(*folders):
    """README plus the ``*.py`` / ``*.md`` files under ``folders``."""
    files = [ROOT / "README.md"]
    for folder in folders:
        glob = "*.md" if folder == "docs" else "*.py"
        files += sorted((ROOT / folder).rglob(glob))
    return files


def test_no_machine_level_runresult_references():
    pattern = re.compile(r"\bRunResult\b")
    offenders = []
    for path in _source_files():
        if path in _RUNTIME_RESULT_FILES:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            if pattern.search(line) and "MachineRunResult" not in line:
                offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert not offenders, (
        "machine-level 'RunResult' spelling resurfaced:\n"
        + "\n".join(offenders)
    )


def test_no_module_getattr_shim_in_machine():
    text = (SRC / "ncore" / "machine.py").read_text()
    assert "__getattr__" not in text
    assert "RunResult =" not in text


def test_machine_module_has_no_alias_attribute():
    import repro.ncore.machine as machine_module

    assert not hasattr(machine_module, "RunResult")
    assert hasattr(machine_module, "MachineRunResult")


def test_removed_facade_and_tier_names_are_gone():
    pattern = re.compile(
        r"InferenceSession|compile_model|TIER_FASTPATH|\bpredict\b|_warn_legacy_kwarg"
        # The pass-through macro-kernel step classes and the op if-chains
        # the one op table (qkernels.INT8_KERNELS / FLOAT_KERNELS) replaced.
        r"|\b(Quantize|Dequantize|Add|Pool|Mean|Concat|Activation|Reshape|Identity"
        r"|Float|FloatEval|FloatMatmul|Embedding|FloatSlice|FloatConcat|FloatReshape"
        r"|LstmCell|LstmSeq)Step\b"
        r"|_execute_quantized_node|_lower_node|_lower_float_node|_is_float_step"
        # The run-time variant race: one step program per segment now.
        r"|KernelVariant|MultiKernelDispatcher|STRATEGY_|winner_for|variant_runs"
        r"|_depthwise_rowsweep"
        # The codegen sidecar channel and the process-wide tier default.
        r"|lookup_artifact|store_artifact|CODEGEN_ARTIFACT_KIND|_CODEGEN_KIND"
        r"|_load_macro_kernels|default_tier_policy"
        # The process-wide machine-mode default and region fusion.
        r"|set_fastpath_default|get_fastpath_default|compile_region|prologue_cycles"
        # The second serving pipeline and the engine adapter for the machine
        # (``repro.perf.serving.ServerScenario`` is the one pipeline).
        r"|EngineExecutor|SessionHandle|QueryTicket|MachineTask|MachineRun\b"
        r"|amortize_overshoot|overshoot_cycles"
    )
    offenders = _grep(pattern, _tree_files("src", "examples", "docs"))
    assert not offenders, "removed name resurfaced:\n" + "\n".join(offenders)


def test_one_generator_of_paper_numbers():
    pattern = re.compile(
        r"tableutil|expected_throughput_ips|bench_table|bench_fig"
        r"|bench_vendor_normalized|bench_scaleout"
    )
    files = _tree_files("src", "tests", "docs", "examples")
    files += [ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    files.remove(Path(__file__).resolve())
    offenders = _grep(pattern, files)
    assert not offenders, "second paper-table generator resurfaced:\n" + "\n".join(offenders)


def test_one_statement_of_what_an_instruction_touches():
    # The static re-derivations of rows-per-issue / post-increment and the
    # second abstract interpreter are gone: the analyzers read the ISA's
    # table through ``program_rules.AddressWalk``.
    gone = re.compile(r"_ram_operands|_AbstractState|_ProgramLoop|rows_per_issue")
    defined: dict[str, list[str]] = {"_MAX_STEPS": [], "_LOOP_WIDEN_AFTER": []}
    offenders = []
    for path in _source_files():
        in_analyze = SRC / "analyze" in path.parents
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            where = f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}"
            if gone.search(line) or (in_analyze and "increment" in line):
                offenders.append(where)
            for name, sites in defined.items():
                if re.match(rf"{name}\s*=", line):
                    sites.append(where)
    assert not offenders, "re-derived operand facts resurfaced:\n" + "\n".join(offenders)
    assert {name: len(sites) for name, sites in defined.items()} == {
        "_MAX_STEPS": 1, "_LOOP_WIDEN_AFTER": 1,
    }, defined


def test_tier_policy_is_exactly_the_graph_mode():
    from repro.runtime import TIER_CHOICES, TierPolicy

    fields = tuple(f.name for f in dataclasses.fields(TierPolicy))
    assert fields == ("replay", "replay_capacity", "codegen", "oracle")
    assert TIER_CHOICES == ("auto", "interpreter", "replay", "codegen")


@pytest.mark.parametrize(
    "kwarg", ["replay", "replay_capacity", "fastpath", "sanitize"]
)
def test_legacy_executor_kwargs_are_rejected(kwarg):
    from repro.runtime import NcoreExecutor

    # Rejected at the call boundary, before the model is even looked at.
    with pytest.raises(TypeError, match=kwarg):
        NcoreExecutor(None, **{kwarg: False})
