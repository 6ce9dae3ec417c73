"""The staged pipeline: presets, instrumentation, IR dumps."""

import numpy as np
import pytest

from repro import obs
from repro.compiler import (
    CompilerContext,
    CompilerError,
    compile_graph,
    get_pipeline,
    ir_diff,
)
from repro.compiler.stages import _run_optimize
from repro.graph.passes import PassManager, default_pipeline
from repro.ncore.config import NcoreConfig
from tests.quantize.test_convert import small_cnn


def bn_graph():
    """conv -> batch_norm -> relu: gives the optimize stage real work."""
    from repro.graph import Graph, Node, Tensor, TensorType

    rng = np.random.default_rng(3)
    g = Graph("bncnn")
    g.add_input("x", TensorType((1, 8, 8, 3)))
    g.add_constant("w", (rng.normal(size=(3, 3, 3, 8)) * 0.2).astype(np.float32))
    g.add_constant("mean", rng.normal(size=8).astype(np.float32))
    g.add_constant("var", rng.uniform(0.5, 1.5, size=8).astype(np.float32))
    g.add_constant("gamma", rng.uniform(0.5, 1.5, size=8).astype(np.float32))
    g.add_constant("beta", rng.normal(size=8).astype(np.float32))
    g.add_tensor(Tensor("c", TensorType((1, 8, 8, 8))))
    g.add_tensor(Tensor("b", TensorType((1, 8, 8, 8))))
    g.add_tensor(Tensor("r", TensorType((1, 8, 8, 8))))
    g.add_node(Node("conv", "conv2d", ["x", "w"], ["c"],
                    {"padding": ((1, 1), (1, 1))}))
    g.add_node(Node("bn", "batch_norm", ["c", "mean", "var", "gamma", "beta"],
                    ["b"], {"epsilon": 1e-3}))
    g.add_node(Node("act", "relu", ["b"], ["r"]))
    g.mark_output("r")
    return g


class TestPresets:
    def test_registry_has_the_presets(self):
        assert [get_pipeline(k).id for k in ("O0", "O1", "O2")] == ["O0", "O1", "O2"]

    def test_default_is_o2(self):
        result = compile_graph(small_cnn(), cache=None)
        assert result.model.compile_info["pipeline"] == "O2"

    def test_o0_has_no_optimize_stage(self):
        assert "optimize" not in get_pipeline("O0").stage_names()
        assert not get_pipeline("O0").mutates_graph

    def test_o2_runs_the_full_backend(self):
        assert get_pipeline("O2").stage_names() == [
            "optimize", "partition", "verify", "plan", "lower", "codegen",
            "finalize",
        ]
        assert get_pipeline("O2").mutates_graph

    def test_unknown_pipeline_errors(self):
        with pytest.raises(CompilerError, match="unknown pipeline"):
            get_pipeline("O9")

    def test_o1_folds_but_does_not_constant_fold(self):
        g = bn_graph()
        r1 = compile_graph(g, pipeline="O1", cache=None)
        changes = {s.stage: s for s in r1.stats}["optimize"].changes
        assert "fold_batch_norm" in changes["pass_changes"]
        assert "constant_fold" not in changes["pass_changes"]


class TestMutationContract:
    def test_compile_does_not_mutate_the_callers_graph(self):
        g = bn_graph()
        nodes_before = len(g.nodes)
        result = compile_graph(g, cache=None)
        assert len(g.nodes) == nodes_before  # caller's graph untouched
        assert len(result.model.graph.nodes) < nodes_before  # copy optimized


class TestInstrumentation:
    def test_every_stage_gets_a_span(self):
        tracer, metrics = observation = obs.observe()
        compile_graph(small_cnn(), cache=None, obs=observation)
        names = [s.name for s in tracer.spans_on("compiler")]
        for stage in ("optimize", "partition", "verify", "plan", "lower",
                      "codegen", "finalize"):
            assert f"compiler.{stage}" in names
        assert "compiler.compile" in names
        assert metrics.counter("compiler.stage.lower.runs").value == 1

    def test_cache_hit_emits_an_instant(self):
        from repro.compiler import CompileCache

        cache = CompileCache()
        compile_graph(small_cnn(), cache=cache)
        observation = obs.observe()
        compile_graph(small_cnn(), cache=cache, obs=observation)
        assert any(
            i.name == "compiler.cache.hit" for i in observation.tracer.instants
        )
        assert observation.metrics.get("compiler.cache.hits").value == 1
        assert "compiler.cache.misses" not in observation.metrics

    def test_stage_stats_recorded_in_order(self):
        result = compile_graph(small_cnn(), pipeline="O0", cache=None)
        assert [s.stage for s in result.stats] == [
            "partition", "verify", "plan", "lower", "finalize",
        ]
        plan = {s.stage: s for s in result.stats}["plan"]
        assert plan.changes["sram_bytes_planned"] > 0
        assert "plan:" in plan.summary()

    def test_verify_false_skips_the_gate(self):
        result = compile_graph(small_cnn(), cache=None, verify=False)
        assert {s.stage: s for s in result.stats}["verify"].changes == {"skipped": True}


class TestPassManagerStats:
    def test_run_records_stats(self):
        manager = default_pipeline()
        g = bn_graph()
        sweeps = manager.run(g)
        stats = manager.last_stats
        assert sweeps >= 1
        assert stats.reached_fixed_point
        assert stats.nodes_before > stats.nodes_after
        assert stats.pass_changes["fold_batch_norm"] == 1
        assert stats.pass_nodes_removed["fold_batch_norm"] >= 1

    def test_converged_rerun_reports_zero_sweeps(self):
        manager = default_pipeline()
        g = bn_graph()
        manager.run(g)
        assert manager.run(g) == 0
        assert manager.last_stats.reached_fixed_point

    def test_max_sweeps_exhaustion_warns_through_obs(self):
        g = bn_graph()
        manager = PassManager(default_pipeline().passes, max_sweeps=1)
        tracer, metrics = observation = obs.observe()
        ctx = CompilerContext(graph=g, config=NcoreConfig(), name=g.name, obs=observation)
        _run_optimize(ctx, manager)
        assert manager.last_stats.reached_fixed_point is False
        marks = [i for i in tracer.instants
                 if i.name == "passes.max_sweeps_exhausted"]
        assert marks and marks[0].args["max_sweeps"] == 1
        assert metrics.counter("compiler.pass_sweeps_exhausted").value == 1


class TestIrDump:
    def test_snapshots_cover_input_and_every_stage(self):
        result = compile_graph(small_cnn(), cache=None, collect_ir=True)
        assert list(result.snapshots) == [
            "input", "optimize", "partition", "verify", "plan", "lower",
            "codegen", "finalize",
        ]

    def test_partition_changes_the_ir_text(self):
        result = compile_graph(small_cnn(), cache=None, collect_ir=True)
        diff = ir_diff(result.snapshots["verify"], result.snapshots["plan"])
        assert "memory plan" in diff

    def test_identical_snapshots_diff_empty(self):
        result = compile_graph(small_cnn(), cache=None, collect_ir=True)
        assert ir_diff(result.snapshots["input"], result.snapshots["input"]) == ""

    def test_dump_is_deterministic(self):
        a = compile_graph(small_cnn(), cache=None, collect_ir=True)
        b = compile_graph(small_cnn(), cache=None, collect_ir=True)
        assert a.snapshots == b.snapshots
