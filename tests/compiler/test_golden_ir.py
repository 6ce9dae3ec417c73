"""Golden-IR snapshots: stage-by-stage counts pinned for the model zoo.

Three layers of pinning:

- the float-graph optimize stage (GCL folding/fusion) per model — cheap,
  graphs are built fresh;
- the backend stages (partition/plan/lower) over the converted benchmark
  graphs, reusing the ``get_system`` cache the perf tests already warm;
- the form and accumulation dtype the O2 ``codegen`` stage picks for every
  matmul step and LSTM chain — the rules ``docs/simulator-performance.md``
  measured, restated.

If a pass, the partitioner or the lowering changes what it produces for
the paper's four models, these numbers move and the change has to be
acknowledged here.
"""

from collections import Counter

import numpy as np
import pytest

from repro.compiler import compile_graph, optimize_graph
from repro.models import PAPER_CHARACTERISTICS
from repro.ncore.codegen import _LSTM_CHAINS, ConvStep, NodeStep
from repro.perf.system import get_system
from repro.quantize import calibrate, quantize_graph

# model -> (float nodes, optimized nodes)
OPTIMIZE_GOLDEN = {
    "mobilenet_v1": (84, 30),
    "resnet50_v15": (163, 73),
    "ssd_mobilenet_v1": (133, 63),
    "gnmt": (409, 408),
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


@pytest.mark.parametrize("key", sorted(OPTIMIZE_GOLDEN))
def test_optimize_stage_node_counts(key):
    expected_before, expected_after = OPTIMIZE_GOLDEN[key]
    graph = PAPER_CHARACTERISTICS[key].build()
    assert len(graph.nodes) == expected_before
    optimized = optimize_graph(graph)
    assert len(optimized.nodes) == expected_after
    assert len(graph.nodes) == expected_before  # input graph untouched


@pytest.mark.parametrize("key", sorted(BACKEND_GOLDEN))
def test_backend_stage_counts(key):
    nodes, segments, ncore, kernels = BACKEND_GOLDEN[key]
    system = get_system(key)
    result = compile_graph(
        system.compiled.graph, config=system.config, pipeline="O0",
        name=key, cache=None, collect_ir=True,
    )
    assert len(result.model.graph.nodes) == nodes
    part = result.context.stage_stats("partition").changes
    assert part["segments"] == segments
    assert part["ncore_segments"] == ncore
    assert result.context.stage_stats("lower").changes["kernels"] == kernels
    assert list(result.snapshots) == STAGE_ORDER


@pytest.mark.parametrize("key", sorted(set(BACKEND_GOLDEN) - {"gnmt"}))
def test_quantize_without_optimize_reaches_the_same_backend_counts(key):
    """The ledger-order recipe (calibrate -> quantize_graph -> O2, no prior
    ``optimize``): PTQ folds pad / batch_norm / bias_add into the convs
    itself, so the counts are the benchmark path's."""
    nodes, segments, ncore, _ = BACKEND_GOLDEN[key]
    info = PAPER_CHARACTERISTICS[key]
    graph = info.build()
    ranges = calibrate(graph, [info.sample_input(graph, seed=0)])
    result = compile_graph(quantize_graph(graph, ranges), pipeline="O2", name=key, cache=None)
    assert len(result.model.graph.nodes) == nodes
    part = result.context.stage_stats("partition").changes
    assert (part["segments"], part["ncore_segments"]) == (segments, ncore)
    assert Counter(node.op for node in result.model.graph.nodes) == Counter(
        node.op for node in get_system(key).compiled.graph.nodes
    )


@pytest.mark.parametrize("key", sorted(BACKEND_GOLDEN))
def test_staged_compile_matches_benchmark_artifact(key):
    """The staged O0 pipeline reproduces the benchmark path's cycles."""
    system = get_system(key)
    result = compile_graph(
        system.compiled.graph, config=system.config, pipeline="O0",
        name=key, cache=None,
    )
    assert result.model.ncore_cycles(system._dma_bytes_per_cycle) == (
        system.compiled.ncore_cycles(system._dma_bytes_per_cycle)
    )


@pytest.mark.parametrize("key", sorted(BACKEND_GOLDEN))
def test_codegen_form_rule_is_pinned(key):
    """One program per segment, its forms a function of op and weight
    shape: im2col for the cin-3 stems, per-tap for every windowed conv2d
    with cin >= 64 (the zoo has none in between), never per-tap for
    depthwise / FC, and no fusable LSTM chain left unfused."""
    system = get_system(key)
    kset = compile_graph(
        system.compiled.graph, config=system.config, pipeline="O2",
        name=key, cache=None,
    ).macro_kernels
    for kernel in kset.kernels.values():
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
        # Two adjacent bare LSTM nodes may not be a chain codegen could
        # have fused: shared operands equal and h/c threaded through.
        for prev, step in zip(kernel.steps, kernel.steps[1:], strict=False):
            if not (isinstance(prev, NodeStep) and isinstance(step, NodeStep)):
                continue
            if prev.op != step.op or step.op not in _LSTM_CHAINS:
                continue
            _, shared, h = _LSTM_CHAINS[step.op]
            a, b = prev.bound, step.bound
            assert not (
                b.inputs[shared] == a.inputs[shared] and b.inputs[h:h + 2] == a.outputs[:2]
            ), (prev.node, step.node)
    if key == "gnmt":
        lstm_steps = sum(node.op == "lstm_step" for node in system.compiled.graph.nodes)
        fused = sum(
            len(step.chain)
            for kernel in kset.kernels.values()
            for step in kernel.steps
            if not isinstance(step, NodeStep)
        )
        assert fused == lstm_steps > 0
