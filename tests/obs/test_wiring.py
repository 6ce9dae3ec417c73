"""Integration: instrumentation wired through simulator, SoC and runtime."""

import numpy as np
import pytest

from repro import obs
from repro.isa import assemble
from repro.ncore import DmaDescriptor, Ncore
from repro.soc.cache import L3Cache
from repro.soc.ring import RingBus, RingStop


def run_mac_loop(machine: Ncore):
    machine.write_data_ram(0, bytes(np.full(4096, 1, np.uint8)))
    machine.write_weight_ram(0, bytes(np.full(4096, 1, np.uint8)))
    return machine.execute_program(
        assemble("loop 8 {\n  mac dram[a0], wtram[a1]\n}\nhalt")
    )


class TestMachineWiring:
    def test_run_emits_cycle_span(self):
        with obs.observe() as (tracer, _):
            result = run_mac_loop(Ncore())
        (span,) = tracer.spans_on("ncore")
        assert span.name == "ncore.run"
        assert span.args["end_cycle"] - span.args["start_cycle"] == result.cycles
        assert span.args["stop_reason"] == "halt"
        assert span.args["macs"] == 8 * 4096

    def test_run_updates_counters(self):
        with obs.observe() as (_, metrics):
            result = run_mac_loop(Ncore())
        assert metrics.get("ncore.cycles").value == result.cycles
        assert metrics.get("ncore.macs").value == 8 * 4096
        assert metrics.get("ncore.runs").value == 1

    def test_uninstrumented_run_records_nothing(self):
        run_mac_loop(Ncore())  # must not raise, no tracer installed
        assert obs.get_tracer() is obs.NULL_TRACER


class TestDmaWiring:
    def test_transfer_emits_span_and_bytes(self):
        machine = Ncore()
        machine.dma_read.configure_window(0)
        machine.memory.write(0, b"\x07" * 8192)
        machine.set_dma_descriptor(
            0, DmaDescriptor(False, True, ram_row=0, rows=2, dram_addr=0)
        )
        with obs.observe() as (tracer, metrics):
            machine.execute_program(assemble("dmastart 0\ndmawait 1\nhalt"))
        (span,) = tracer.spans_on("dma")
        assert span.name == "dma_read.rd"
        assert span.args["bytes"] == 8192
        assert span.args["ram"] == "weight"
        assert metrics.get("dma.bytes_moved").value == 8192
        assert metrics.get("dma.transfers").value == 1


class TestSocWiring:
    def test_ring_counters(self):
        ring = RingBus()
        with obs.observe() as (_, metrics):
            ring.transfer_cycles(RingStop.CORE0, RingStop.NCORE, 4096)
        assert metrics.get("ring.messages").value == 1
        assert metrics.get("ring.bytes").value == 4096
        assert metrics.get("ring.occupancy_cycles").value == 4096 // ring.width_bytes

    def test_l3_coherent_read_counters(self):
        cache = L3Cache()
        with obs.observe() as (_, metrics):
            cache.coherent_read(0, 128, b"\x00" * 128)  # 2 lines, both cold
            cache.coherent_read(0, 128, b"\x00" * 128)  # both warm
        assert metrics.get("l3.coherent_reads").value == 2
        assert metrics.get("l3.misses").value == 2
        assert metrics.get("l3.hits").value == 2


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
        with obs.observe() as (tracer, metrics):
            # cache=None: a cache hit runs no stages, so emits no span.
            model = compile_graph(
                quantized, pipeline="O0", name="small", cache=None
            ).model
            executor = NcoreExecutor(model)
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


class TestMlperfWiring:
    class FakeSystem:
        model_key = "fake"

        def single_stream_latency_seconds(self):
            return 1e-3

        def offline_throughput_ips(self, cores=8):
            return 1000.0

    def test_single_stream_spans_and_histogram(self):
        from repro.perf.mlperf import run_single_stream

        with obs.observe() as (tracer, metrics):
            result = run_single_stream(self.FakeSystem(), queries=16)
        (span,) = tracer.spans_on("mlperf")
        assert span.name == "mlperf.single_stream"
        assert span.args["p90_latency_ms"] == pytest.approx(result.p90_latency_ms)
        queries = tracer.spans_on("mlperf.queries")
        assert len(queries) == 16
        # Queries tile the modelled timeline back-to-back.
        assert queries[1].start_us == pytest.approx(queries[0].end_us)
        histogram = metrics.get("mlperf.latency_seconds")
        assert histogram.count == 16
        assert histogram.percentile(90) == pytest.approx(
            result.p90_latency_seconds, rel=0.05
        )

    def test_offline_span(self):
        from repro.perf.mlperf import run_offline

        with obs.observe() as (tracer, metrics):
            result = run_offline(self.FakeSystem(), queries=32)
        (span,) = tracer.spans_on("mlperf")
        assert span.name == "mlperf.offline"
        assert span.args["throughput_ips"] == pytest.approx(result.throughput_ips)
        assert metrics.get("mlperf.offline_ips").value == pytest.approx(
            result.throughput_ips
        )


class TestProfilerForwarding:
    def test_profiler_spans_reach_the_tracer(self):
        machine = Ncore()
        machine.write_data_ram(0, bytes(np.full(4096, 1, np.uint8)))
        machine.write_weight_ram(0, bytes(np.full(4096, 1, np.uint8)))
        from repro.runtime.profiler import Profiler

        with obs.observe() as (tracer, _):
            profiler = Profiler(machine)
            trace = profiler.run(profiler.instrument(
                [("compute", assemble("loop 4 {\n  mac dram[a0], wtram[a1]\n}"))]
            ))
        names = {s.name for s in tracer.spans_on("ncore")}
        assert "compute" in names      # forwarded profiler span
        assert "ncore.run" in names    # machine-level span
        forwarded = next(s for s in tracer.spans_on("ncore") if s.name == "compute")
        assert forwarded.args["start_cycle"] == trace.span("compute").start_cycle
