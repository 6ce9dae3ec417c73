"""Golden-IR snapshots: stage-by-stage counts pinned for the model zoo.

Four layers of pinning:

- the float-graph optimize stage (GCL folding/fusion) per model — cheap,
  graphs are built fresh;
- the backend stages (partition/plan/lower) over the converted benchmark
  graphs, reusing the ``get_system`` cache the perf tests already warm;
- one artifact per zoo key: the benchmark system, the CLI and the recipe
  ``compile_graph(info.convert(info.build(), seed=s))`` compile the same
  graph under the same key;
- the form and accumulation dtype the O2 ``codegen`` stage picks for every
  matmul step — the rules ``docs/simulator-performance.md`` measured,
  restated — one step per node of every covered segment, and the rung
  each step's epilogue runs on.

If a pass, the partitioner or the lowering changes what it produces for
the paper's four models, these numbers move and the change has to be
acknowledged here.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cli import _resolve_target
from repro.compiler import compile_graph, fingerprint_graph
from repro.graph.passes import default_pipeline
from repro.models import PAPER_CHARACTERISTICS
from repro.ncore.codegen import ConvStep
from repro.perf.system import get_system
from repro.quantize import calibrate, quantize_graph

# model -> (float nodes, optimized nodes)
OPTIMIZE_GOLDEN = {
    "mobilenet_v1": (84, 30),
    "resnet50_v15": (163, 73),
    "ssd_mobilenet_v1": (133, 63),
    "gnmt": (408, 408),
}

# model -> (converted nodes, segments, ncore segments, kernels)
BACKEND_GOLDEN = {
    "mobilenet_v1": (32, 2, 1, 31),
    "resnet50_v15": (75, 2, 1, 74),
    "ssd_mobilenet_v1": (66, 16, 8, 52),
    # lstm_step + bf16-region reshapes folding into Ncore collapsed GNMT
    # from 56 segments (27 reshape-forced x86 islands) to 2.
    "gnmt": (408, 2, 1, 406),
}

STAGE_ORDER = ["input", "partition", "verify", "plan", "lower", "finalize"]

# model -> (ConvSteps whose OUT-unit epilogue runs on the float64 rung,
# ConvSteps), on the ledger's recipe (calibration seed 1).  A record, not a
# bound: each step left on int64 has a bound * multiplier past 2**53.
EPILOGUE_RUNG_GOLDEN = {
    "mobilenet_v1": (28, 28),
    "ssd_mobilenet_v1": (46, 47),
    "resnet50_v15": (36, 54),
}


@pytest.mark.parametrize("key", sorted(OPTIMIZE_GOLDEN))
def test_optimize_stage_node_counts(key):
    expected_before, expected_after = OPTIMIZE_GOLDEN[key]
    graph = PAPER_CHARACTERISTICS[key].build()
    assert len(graph.nodes) == expected_before
    default_pipeline().run(graph)
    assert len(graph.nodes) == expected_after


@pytest.mark.parametrize("key", sorted(BACKEND_GOLDEN))
def test_backend_stage_counts(key):
    nodes, segments, ncore, kernels = BACKEND_GOLDEN[key]
    system = get_system(key)
    result = compile_graph(
        system.compiled.graph, config=system.config, pipeline="O0",
        name=key, cache=None, collect_ir=True,
    )
    assert len(result.model.graph.nodes) == nodes
    stages = {s.stage: s.changes for s in result.stats}
    assert stages["partition"]["segments"] == segments
    assert stages["partition"]["ncore_segments"] == ncore
    assert stages["lower"]["kernels"] == kernels
    assert list(result.snapshots) == STAGE_ORDER


@pytest.mark.parametrize("key", sorted(BACKEND_GOLDEN))
def test_one_artifact_per_zoo_key(key):
    """``BenchmarkSystem`` (every paper number) compiles the recipe's graph
    at the default preset, and ``repro compile|run|lint`` start from the
    same converted graph: one zoo artifact, whoever builds it."""
    nodes, segments, ncore, _ = BACKEND_GOLDEN[key]
    info = PAPER_CHARACTERISTICS[key]
    system = get_system(key)
    converted = info.convert(info.build(), seed=100)
    recipe = compile_graph(converted, config=system.config, name=key)
    assert system.compiled.compile_info["key"] == recipe.key
    part = system.compiled.compile_info["stages"]["partition"]
    assert (len(system.compiled.graph.nodes), part["segments"], part["ncore_segments"]) == (
        nodes, segments, ncore,
    )
    name, cli_graph = _resolve_target(key, 100)
    assert name == key
    assert fingerprint_graph(cli_graph) == fingerprint_graph(converted)


@pytest.mark.parametrize("key", sorted(EPILOGUE_RUNG_GOLDEN))
def test_epilogue_rungs_are_recorded(key):
    info = PAPER_CHARACTERISTICS[key]
    graph = info.build()
    ranges = calibrate(graph, [info.sample_input(graph, seed=1)])
    kset = compile_graph(
        quantize_graph(graph, ranges), pipeline="O2", name=key, cache=None
    ).macro_kernels
    rungs = Counter(
        step._epilogue.rung
        for kernel in kset.kernels.values()
        for step in kernel.steps
        if isinstance(step, ConvStep)
    )
    assert (rungs["f64"], sum(rungs.values())) == EPILOGUE_RUNG_GOLDEN[key], rungs


@pytest.mark.parametrize("key", sorted(BACKEND_GOLDEN))
def test_o0_relowering_of_the_o2_graph_keeps_cycles(key):
    """Re-lowering the benchmark artifact's graph — already optimized, as
    ``BenchmarkSystem`` compiles at O2 — through the O0 pipeline keeps the
    artifact's Ncore cycles."""
    system = get_system(key)
    result = compile_graph(
        system.compiled.graph, config=system.config, pipeline="O0",
        name=key, cache=None,
    )
    assert result.model.ncore_cycles(system.dma_bytes_per_cycle) == (
        system.compiled.ncore_cycles(system.dma_bytes_per_cycle)
    )


@pytest.mark.parametrize("key", sorted(BACKEND_GOLDEN))
def test_codegen_form_rule_is_pinned(key):
    """One program per segment, its forms a function of op and weight
    shape: im2col for the cin-3 stems, per-tap for every windowed conv2d
    with cin >= 64 (the zoo has none in between), never per-tap for
    depthwise / FC, and one step per node of the segment, in its order."""
    system = get_system(key)
    result = compile_graph(
        system.compiled.graph, config=system.config, pipeline="O2",
        name=key, cache=None,
    )
    kset = result.macro_kernels
    for index, kernel in kset.kernels.items():
        assert [step.node for step in kernel.steps] == [
            node.name for node in result.model.segments[index].nodes
        ], kernel.name
        for step in kernel.steps:
            if not isinstance(step, ConvStep):
                continue
            # Every zoo matmul is exact in float32 (its blocks, per tap).
            assert step.weights.dtype == np.float32, step.node
            if step.op != "conv2d" or step.weights.shape[:2] == (1, 1):
                assert not step.per_tap, step.node
                continue
            cin = step.weights.shape[2]
            assert cin == 3 or cin >= 64, step.node
            assert step.per_tap == (cin >= 64), step.node
    if key == "gnmt":
        lstm_steps = sum(node.op == "lstm_step" for node in system.compiled.graph.nodes)
        covered = sum(
            step.op == "lstm_step"
            for kernel in kset.kernels.values()
            for step in kernel.steps
        )
        assert covered == lstm_steps > 0
