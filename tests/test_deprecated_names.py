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
definition (``repro.perf.report`` is the one generator of paper numbers),
then the first backlog of the consumer gate (``tools/lint_consumers.py``):
names only tests reached, then the commands that re-ran another command's
job (``repro bench``, ``repro trace``, the live ``repro top``) and the
second copies only they reached, then the serving telemetry's rolling
windows, rate meter and SLO monitor (one latency histogram is the record)
and the process-wide attribution collector, then the fast path's 16-bit
and bf16 lane sources and the ``Instruction``-side copy of its legality
rule (``repro.ncore.fastpath.fusion_blockers`` is the one statement of
it).  These tests grep the tree so a stray reference
(or a reintroduced alias) fails loudly rather than resurrecting an old name.
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


def test_test_only_names_are_gone():
    # The consumer gate's first backlog: names no CLI command, benchmark,
    # example or CI step reached, and the simulator baseline file whose zoo
    # rows nobody regenerated (the ledger owns those numbers now).
    pattern = re.compile(
        r"run_offline|OfflineResult|measure_zoo_tiers|record_baseline|ZOO_TIERS"
        r"|ZOO_MODELS|BENCH_simulator|\ball_of\b|\bevery\(|_busy_slot_seconds"
        r"|\bEwma\b|metrics_json|spans_for_trace|\.sibling\(|infer_shapes"
        r"|_optional_input|render_partition|nhwc_to_nchw|available_pipelines"
        r"|available_stages|from_stage_names|\.stage_stats\(|\bhit_rate\b|\.lookups\b"
        r"|shapes_compatible|_format_operand|_WindowMapping|center_crop"
        r"|classification_pipeline|power_down|\.by_rule\(|\.overflowed\b"
        r"|set_addr_reg|set_float_scale|core_to_ncore_seconds|ncore_area_fraction"
        r"|ring_stops|\bstream_seconds\b|combined_bandwidth|\btransfer_seconds\b"
        r"|\brun_task\b|saturating_add|saturating_accumulate|bf16_to_bits|bf16_from_bits"
    )
    files = _tree_files("src", "examples", "docs") + [ROOT / "DESIGN.md"]
    offenders = _grep(pattern, files)
    assert not offenders, "test-only name resurfaced:\n" + "\n".join(offenders)
    assert not (ROOT / "BENCH_simulator.json").exists()


def test_one_command_per_job():
    # ``repro trace`` is ``repro run --trace``; ``repro top`` only renders a
    # frame file.  With the removed commands went the engine SingleStream
    # loop, the CSV metrics dump and the profiler's overflow policy.
    pattern = re.compile(
        r"repro bench|repro trace|top --replay|run_single_stream|SingleStreamResult"
        r"|perf\.mlperf|perf/mlperf|metrics_csv|--metrics-csv|on_overflow"
    )
    files = _tree_files("src", "examples", "docs") + [ROOT / "DESIGN.md"]
    offenders = _grep(pattern, files)
    assert not offenders, "removed command or name resurfaced:\n" + "\n".join(offenders)


def test_one_record_of_serving_completions():
    # ``repro serve`` reads one latency histogram: the windowed
    # aggregations and ``--window`` went, and cycle attribution is pure
    # functions of the compiled model, with no installed collector.
    pattern = re.compile(
        r"WindowedHistogram|RateMeter|SloMonitor|windowed_histogram"
        r"|install_attrib|get_attrib|set_attrib|AttributionCollector"
        r"|NullAttribution|NULL_ATTRIB|window_seconds|error_budget"
        r"|--window\b|obs\.window|obs/window"
    )
    files = _tree_files("src", "examples", "docs", "benchmarks")
    offenders = _grep(pattern, files)
    assert not offenders, "removed telemetry name resurfaced:\n" + "\n".join(offenders)
    assert not (SRC / "obs" / "window.py").exists()


def test_one_fusion_legality_rule():
    # The fast path fuses 8-bit integer trips only: its 16-bit / bf16 lane
    # source went, and the legality rule moved out of the ISA into its one
    # consumer, ``repro.ncore.fastpath``.
    from repro.isa.instruction import Instruction

    for name in ("fusion_blockers", "TRACE_NDU_OPCODES", "TRACE_SEQ_OPCODES"):
        assert not hasattr(Instruction, name), name
    offenders = _grep(
        re.compile(r"fusion_blockers|TRACE_NDU_OPCODES|TRACE_SEQ_OPCODES"),
        sorted((SRC / "isa").rglob("*.py")),
    )
    offenders += _grep(
        re.compile(r"_LaneSource|compile_repeat"), _tree_files("src", "examples", "docs")
    )
    assert not offenders, "removed fast-path name resurfaced:\n" + "\n".join(offenders)


@pytest.mark.parametrize("owner, name", [
    ("repro.engine.core:Event", "fail"),
    ("repro.engine.core:Engine", "pending"),
    ("repro.engine.resources:Resource", "utilization"),
    ("repro.engine.resources:Resource", "queued"),
    ("repro.analyze.diagnostics:AnalysisReport", "worst"),
    ("repro.dtypes.quantization:QuantParams", "range"),
    ("repro.runtime.selftest:SelfTestReport", "passed"),
    ("repro.soc.cache:L3Cache", "access"),
    ("repro.soc.multisocket:MultiSocketSystem", "run_server"),
])
def test_test_only_members_are_gone(owner, name):
    # Common words the grep above cannot tell from live spellings.
    import importlib

    module, _, cls = owner.partition(":")
    assert not hasattr(getattr(importlib.import_module(module), cls), name)


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
