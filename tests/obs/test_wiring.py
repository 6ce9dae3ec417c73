"""Integration: instrumentation wired through simulator, SoC and runtime."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.isa import assemble
from repro.ncore import DmaDescriptor, Ncore
from repro.soc import ChaSoc
from repro.soc.cache import L3Cache

REPO = Path(__file__).resolve().parents[2]


def run_mac_loop(machine: Ncore):
    machine.write_data_ram(0, bytes(np.full(4096, 1, np.uint8)))
    machine.write_weight_ram(0, bytes(np.full(4096, 1, np.uint8)))
    return machine.execute_program(
        assemble("loop 8 {\n  mac dram[a0], wtram[a1]\n}\nhalt")
    )


class TestMachineWiring:
    def test_run_emits_cycle_span(self):
        observation = obs.observe()
        result = run_mac_loop(Ncore(obs=observation))
        (span,) = observation.tracer.spans_on("ncore")
        assert span.name == "ncore.run"
        assert span.args["end_cycle"] - span.args["start_cycle"] == result.cycles
        assert span.args["stop_reason"] == "halt"
        assert span.args["macs"] == 8 * 4096

    def test_run_updates_counters(self):
        _, metrics = observation = obs.observe()
        result = run_mac_loop(Ncore(obs=observation))
        assert metrics.get("ncore.cycles").value == result.cycles
        assert metrics.get("ncore.macs").value == 8 * 4096
        assert metrics.get("ncore.runs").value == 1
        # The hardware counters are bound at construction, as live views.
        assert metrics.get("ncore.hw.macs").value == 8 * 4096

    def test_uninstrumented_run_records_nothing(self):
        machine = Ncore()
        run_mac_loop(machine)  # must not raise
        assert machine.obs is obs.NULL_OBSERVATION


class TestDmaWiring:
    def test_transfer_emits_span_and_bytes(self):
        tracer, metrics = observation = obs.observe()
        machine = Ncore(obs=observation)
        machine.dma_read.configure_window(0)
        machine.memory.write(0, b"\x07" * 8192)
        machine.set_dma_descriptor(
            0, DmaDescriptor(False, True, ram_row=0, rows=2, dram_addr=0)
        )
        machine.execute_program(assemble("dmastart 0\ndmawait 1\nhalt"))
        (span,) = tracer.spans_on("dma")
        assert span.name == "dma_read.rd"
        assert span.args["bytes"] == 8192
        assert span.args["ram"] == "weight"
        assert metrics.get("dma.bytes_moved").value == 8192
        assert metrics.get("dma.transfers").value == 1


class TestSocWiring:
    def test_l3_coherent_read_counters(self):
        _, metrics = observation = obs.observe()
        cache = L3Cache(obs=observation)
        cache.coherent_read(0, 128, b"\x00" * 128)  # 2 lines, both cold
        cache.coherent_read(0, 128, b"\x00" * 128)  # both warm
        assert metrics.get("l3.coherent_reads").value == 2
        assert metrics.get("l3.misses").value == 2
        assert metrics.get("l3.hits").value == 2

    def test_soc_hands_its_observation_to_every_part(self):
        observation = obs.observe()
        soc = ChaSoc(obs=observation)
        parts = (soc, soc.ncore, soc.ncore.dma_read, soc.ncore.dma_write, soc.l3)
        assert all(part.obs is observation for part in parts)


class TestRuntimeWiring:
    @pytest.fixture(scope="class")
    def compiled(self):
        from repro.quantize import calibrate, quantize_graph
        from tests.quantize.test_convert import small_cnn

        graph = small_cnn()
        rng = np.random.default_rng(0)
        feeds = {
            name: rng.uniform(-1, 1, size=graph.tensor(name).shape).astype(np.float32)
            for name in graph.inputs
        }
        quantized = quantize_graph(graph, calibrate(graph, [feeds]))
        return quantize_graph, quantized, feeds

    def test_compile_and_session_spans(self, compiled):
        from repro.compiler import compile_graph
        from repro.runtime import NcoreExecutor

        _, quantized, feeds = compiled
        tracer, metrics = observation = obs.observe()
        # cache=None: a cache hit runs no stages, so emits no span.
        model = compile_graph(
            quantized, pipeline="O0", name="small", cache=None, obs=observation
        ).model
        executor = NcoreExecutor(model, soc=ChaSoc(obs=observation))
        executor.execute(feeds)
        executor.close()
        delegate_names = {s.name for s in tracer.spans_on("delegate")}
        assert "delegate.run" in delegate_names
        driver_names = {s.name for s in tracer.spans_on("driver")}
        assert {"driver.probe", "driver.open", "driver.close"} <= driver_names
        # The modelled execution timeline is emitted in segment order.
        schedule = tracer.spans_on("delegate.schedule")
        assert schedule, "expected the Fig. 8/9 schedule spans"
        assert metrics.get("delegate.inferences").value == 1
        compile_span = next(
            s for s in tracer.spans_on("compiler") if s.name == "compiler.compile"
        )
        assert compile_span.args["segments"] == len(model.segments)

    def test_two_executors_keep_their_own_records(self, compiled):
        from repro.compiler import compile_graph
        from repro.runtime import NcoreExecutor

        _, quantized, feeds = compiled
        model = compile_graph(quantized, pipeline="O2", name="small", cache=None).model
        first, second = obs.observe(), obs.observe()
        executors = [
            NcoreExecutor(model, soc=ChaSoc(obs=observation), policy="codegen")
            for observation in (first, second)
        ]
        executors[0].execute(feeds)
        for _ in range(2):
            executors[1].execute(feeds)
        for executor in executors:
            executor.close()
        for observation, queries in ((first, 1), (second, 2)):
            tracer, metrics = observation
            runs = [s for s in tracer.spans_on("delegate") if s.name == "delegate.run"]
            assert len(runs) == queries
            assert metrics.get("delegate.inferences").value == queries
            assert metrics.get("ncore.codegen.dispatches").value == (
                queries * len(model.macro_kernels.kernels)
            )
            assert [s.name for s in tracer.spans_on("driver")] == [
                "driver.probe", "driver.open", "driver.close",
            ]


class TestProfilerForwarding:
    def test_profiler_spans_reach_the_tracer(self):
        observation = obs.observe()
        machine = Ncore(obs=observation)
        machine.write_data_ram(0, bytes(np.full(4096, 1, np.uint8)))
        machine.write_weight_ram(0, bytes(np.full(4096, 1, np.uint8)))
        from repro.runtime.profiler import Profiler

        profiler = Profiler(machine)
        (span,) = profiler.run(profiler.instrument(
            [("compute", assemble("loop 4 {\n  mac dram[a0], wtram[a1]\n}"))]
        ))
        names = {s.name for s in observation.tracer.spans_on("ncore")}
        assert "compute" in names      # the profiler's span
        assert "ncore.run" in names    # machine-level span
        # One span model: the returned record is the tracer's own.
        assert any(s is span for s in observation.tracer.spans_on("ncore"))
        assert span.category == "profiler"


#: Every (span, track) ``repro run mobilenet_v1 --trace`` records.
RUN_TRACE_SPANS = {
    ("compiler.codegen", "compiler"), ("compiler.compile", "compiler"),
    ("compiler.finalize", "compiler"), ("compiler.lower", "compiler"),
    ("compiler.optimize", "compiler"), ("compiler.partition", "compiler"),
    ("compiler.plan", "compiler"), ("compiler.quantize", "compiler"),
    ("compiler.verify", "compiler"),
    ("compute", "ncore"), ("ncore.run", "ncore"), ("stage_weights", "ncore"),
    ("writeback", "ncore"),
    ("conv2d", "ncore.kernels"), ("depthwise_conv2d", "ncore.kernels"),
    ("elementwise", "ncore.kernels"), ("matmul", "ncore.kernels"),
    ("pool", "ncore.kernels"),
    ("delegate.run", "delegate"),
    ("ncore.segment[0]", "delegate.schedule"), ("x86.segment[1]", "delegate.schedule"),
    ("dma_read.rd", "dma"),
    ("driver.close", "driver"), ("driver.open", "driver"), ("driver.probe", "driver"),
}

#: Every counter ``repro run mobilenet_v1 --trace`` exports.
RUN_TRACE_COUNTERS = {
    "analyze.hazard.loadables",
    "compiler.compiles",
    *(f"compiler.stage.{stage}.runs" for stage in (
        "codegen", "finalize", "lower", "optimize", "partition", "plan",
        "quantize", "verify",
    )),
    "delegate.inferences", "delegate.transitions",
    "dma.bytes_moved", "dma.dma_read.bytes", "dma.transfers",
    "l3.coherent_reads", "l3.hits", "l3.misses",
    "ncore.codegen.dispatches", "ncore.codegen.kernels",
    "ncore.codegen.oracle_checks", "ncore.codegen.steps",
    "ncore.cycles", "ncore.dma_stall_cycles", "ncore.instructions",
    "ncore.issues", "ncore.macs", "ncore.runs",
    "ncore.fastpath.compiled", "ncore.fastpath.fused_trips", "ncore.fastpath.hits",
    "ncore.hw.cycles", "ncore.hw.dma_stall", "ncore.hw.instructions", "ncore.hw.macs",
    "ncore.replay.misses",
    "x86.fallback.seconds", "x86.fallback.softmax.cycles",
}


class TestRunTraceSurface:
    def test_run_trace_records_every_instrumented_layer(self, tmp_path, capsys):
        # Pins what the observation reaches: a layer that stops passing it
        # on loses its spans or counters silently, and fails here.  An
        # earlier run in the same process must not change what is recorded.
        from repro.cli import main

        assert main(["run", "mobilenet_v1"]) == 0
        path = tmp_path / "run.trace.json"
        assert main(["run", "mobilenet_v1", "--trace", str(path)]) == 0
        capsys.readouterr()
        events = json.loads(path.read_text())["traceEvents"]
        threads = {(e["pid"], e["tid"]): e["args"]["name"] for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        spans = {(e["name"], threads[e["pid"], e["tid"]]) for e in events if e["ph"] == "X"}
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert len(RUN_TRACE_SPANS) == 25 and len(RUN_TRACE_COUNTERS) == 38
        assert spans == RUN_TRACE_SPANS
        assert counters == RUN_TRACE_COUNTERS


class TestNoProcessWideState:
    def test_the_only_global_statement_is_the_default_compile_cache(self):
        found = []
        for path in sorted((REPO / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Global):
                    found += [(path.relative_to(REPO).as_posix(), name) for name in node.names]
        assert found == [("src/repro/compiler/cache.py", "_default_cache")]

    def test_the_observation_installers_are_gone(self):
        # Spelled out piecewise so this file does not name them itself.
        removed = [f"{verb}_{noun}" for verb in ("get", "set", "install")
                   for noun in ("tracer", "metrics")] + ["bind" + "_metrics"]
        hits = []
        for tree in ("src", "tests", "benchmarks", "examples", "docs"):
            for path in sorted((REPO / tree).rglob("*")):
                if path.suffix not in (".py", ".md") or not path.is_file():
                    continue
                text = path.read_text(encoding="utf-8")
                hits += [(path.name, name) for name in removed if name in text]
        assert hits == []
