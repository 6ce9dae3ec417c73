"""The Server scenario: determinism, latency shape, multisocket scaling."""

import numpy as np
import pytest

from repro.perf.serving import (
    ServerScenario,
    ServingTimingModel,
    default_server_qps,
    run_server,
)
from repro.perf.system import get_system
from repro.soc.multisocket import MultiSocketSystem

MODELS = ["mobilenet_v1", "resnet50_v15", "ssd_mobilenet_v1", "gnmt"]


@pytest.fixture(scope="module")
def resnet():
    return get_system("resnet50_v15")


class TestDeterminism:
    @pytest.mark.parametrize("key", MODELS)
    def test_same_seed_is_byte_identical(self, key):
        system = get_system(key)
        first = run_server(system, queries=128, seed=0)
        second = run_server(system, queries=128, seed=0)
        assert first.latencies_seconds.tobytes() == second.latencies_seconds.tobytes()
        assert first.sustained_qps == second.sustained_qps
        assert first.p99_latency_seconds == second.p99_latency_seconds

    def test_different_seeds_differ(self, resnet):
        first = run_server(resnet, queries=128, seed=0)
        second = run_server(resnet, queries=128, seed=1)
        assert first.latencies_seconds.tobytes() != second.latencies_seconds.tobytes()

    def test_simulated_time_only(self, resnet):
        # A GNMT-scale run simulates tens of seconds of model time; if the
        # engine consulted the wall clock this test could not be instant.
        result = run_server(get_system("gnmt"), queries=32, seed=0)
        assert result.sustained_qps > 0


class TestLatencyShape:
    def test_percentiles_are_ordered(self, resnet):
        result = run_server(resnet, queries=256, seed=0)
        assert (
            0
            < result.p50_latency_seconds
            <= result.p90_latency_seconds
            <= result.p99_latency_seconds
        )
        assert result.mean_latency_seconds > 0
        assert len(result.latencies_seconds) == 256

    def test_latency_floor_is_the_service_time(self, resnet):
        # No query can finish faster than an unqueued, unbatched pass.
        timing = ServingTimingModel.from_system(resnet)
        result = run_server(resnet, queries=256, seed=0)
        floor = timing.ncore_batched(result.max_batch) + timing.serial
        assert result.latencies_seconds.min() >= floor * 0.9

    def test_overload_grows_the_queue(self, resnet):
        light = run_server(resnet, queries=256, seed=0, qps=200.0)
        heavy = run_server(resnet, queries=256, seed=0, qps=5000.0)
        assert heavy.p99_latency_seconds > light.p99_latency_seconds
        # Saturation also assembles bigger batches.
        assert heavy.mean_batch_size > light.mean_batch_size

    def test_sustained_qps_tracks_offered_load_when_underloaded(self, resnet):
        offered = default_server_qps(resnet)
        result = run_server(resnet, queries=512, seed=0)
        assert result.offered_qps == pytest.approx(offered)
        # Underloaded: the system keeps up within the arrival burstiness.
        assert result.sustained_qps > 0.5 * offered


class TestMultisocket:
    def test_two_sockets_sustain_more_than_one(self, resnet):
        single = run_server(resnet, queries=256, seed=0, qps=2000.0, sockets=1)
        double = run_server(resnet, queries=256, seed=0, qps=2000.0, sockets=2)
        assert double.sustained_qps > single.sustained_qps

    def test_multisocket_system_helper(self, resnet):
        system = MultiSocketSystem(sockets=2)
        result = system.run_server(resnet, queries=128, seed=0)
        assert result.sockets == 2
        # The helper is the same engine path: rerunning is deterministic.
        again = system.run_server(resnet, queries=128, seed=0)
        assert result.latencies_seconds.tobytes() == again.latencies_seconds.tobytes()

    def test_socket_efficiency_penalises_throughput(self, resnet):
        ideal = run_server(
            resnet, queries=256, seed=0, qps=4000.0, sockets=2, socket_efficiency=1.0
        )
        real = run_server(
            resnet, queries=256, seed=0, qps=4000.0, sockets=2, socket_efficiency=0.9
        )
        assert real.sustained_qps < ideal.sustained_qps


class TestTimingModel:
    def test_decomposition_sums_to_the_single_stream_latency(self):
        for key in MODELS:
            system = get_system(key)
            timing = ServingTimingModel.from_system(system)
            assert timing.single_stream_seconds == pytest.approx(
                system.single_stream_latency_seconds()
            )

    def test_fallback_for_minimal_systems(self):
        class Minimal:
            model_key = "minimal"

            def single_stream_latency_seconds(self):
                return 2e-3

            def offline_throughput_ips(self, cores=8):
                return 500.0

        timing = ServingTimingModel.from_system(Minimal())
        assert timing.single_stream_seconds == pytest.approx(2e-3)
        result = run_server(Minimal(), queries=64, seed=0, qps=100.0)
        assert result.queries == 64
        assert result.p99_latency_seconds >= 2e-3

    def test_ssd_does_not_batch_offline(self):
        timing = ServingTimingModel.from_system(get_system("ssd_mobilenet_v1"))
        assert not timing.offline_batching
        assert timing.per_item_offline_seconds(8, cores=8) == pytest.approx(
            timing.single_stream_seconds
        )


class TestValidation:
    def test_rejects_bad_parameters(self, resnet):
        timing = ServingTimingModel.from_system(resnet)
        with pytest.raises(ValueError, match="query"):
            ServerScenario(timing, qps=100.0, queries=0)
        with pytest.raises(ValueError, match="QPS"):
            ServerScenario(timing, qps=0.0, queries=10)
        with pytest.raises(ValueError, match="socket"):
            ServerScenario(timing, qps=100.0, queries=10, sockets=0)
        with pytest.raises(ValueError, match="core"):
            ServerScenario(timing, qps=100.0, queries=10, cores=0)


class TestPipeline:
    def test_query_stages_are_monotonic(self, resnet):
        timing = ServingTimingModel.from_system(resnet)
        scenario = ServerScenario(timing, qps=2000.0, queries=128, sockets=2)
        scenario.run()
        for record in scenario._records:
            assert (
                record.arrival
                <= record.enqueued_at
                <= record.batch_started_at
                <= record.ncore_done_at
                <= record.completed_at
            )
            assert record.batch_size >= 1
            assert 0 <= record.socket < scenario.sockets

    def test_wedged_schedule_names_the_stuck_query(self, resnet, monkeypatch):
        timing = ServingTimingModel.from_system(resnet)
        scenario = ServerScenario(timing, qps=1000.0, queries=8)

        def idle_ncore(socket):
            # Never pulls a batch: every query stops in the queue.
            return
            yield

        monkeypatch.setattr(scenario, "_ncore_loop", idle_ncore)
        with pytest.raises(
            RuntimeError,
            match=r"^8 queries never completed; engine drained with a wedged "
            r"schedule \(first: query\[0\], last stage reached: queue\.wait\)$",
        ):
            scenario.run()


class TestObservability:
    def test_registered_histogram_sees_every_completion(self, resnet):
        from repro import obs

        with obs.install_metrics(obs.MetricsRegistry()) as registry:
            result = run_server(resnet, queries=64, seed=1)
            name = f'server.latency_seconds{{model="resnet50_v15"}}'
            histogram = registry.get(name)
        assert histogram.count == 64
        assert result.p99_latency_seconds == histogram.percentile(99)

    def test_summary_percentiles_match_numpy(self, resnet):
        from repro import obs

        with obs.install_metrics(obs.MetricsRegistry()):
            result = run_server(resnet, queries=128, seed=3)
        for p, got in ((50, result.p50_latency_seconds),
                       (90, result.p90_latency_seconds),
                       (99, result.p99_latency_seconds)):
            assert got == float(np.percentile(result.latencies_seconds, p))

    def test_metrics_do_not_change_the_simulation(self, resnet):
        from repro import obs

        bare = run_server(resnet, queries=64, seed=5)
        with obs.install_metrics(obs.MetricsRegistry()), \
                obs.install_tracer(obs.Tracer()):
            observed = run_server(resnet, queries=64, seed=5,
                                  slo_latency_seconds=0.1,
                                  telemetry_interval=0.01)
        assert np.asarray(bare.latencies_seconds).tobytes() == \
            np.asarray(observed.latencies_seconds).tobytes()

    def test_slo_monitor_reports_through_the_result(self, resnet):
        from repro import obs

        with obs.install_metrics(obs.MetricsRegistry()):
            generous = run_server(resnet, queries=64, seed=0,
                                  slo_latency_seconds=10.0)
            hopeless = run_server(resnet, queries=64, seed=0,
                                  slo_latency_seconds=1e-9)
        assert generous.slo["attainment"] == 1.0
        assert generous.slo["budget_remaining"] > 0
        assert hopeless.slo["attainment"] == 0.0
        assert hopeless.slo["budget_remaining"] < 0

    def test_no_slo_means_no_slo_field(self, resnet):
        result = run_server(resnet, queries=32, seed=0)
        assert result.slo is None

    def test_telemetry_frames_sample_the_run(self, resnet):
        from repro import obs

        with obs.install_metrics(obs.MetricsRegistry()):
            result = run_server(resnet, queries=64, seed=2,
                                telemetry_interval=0.005)
        assert len(result.frames) >= 2
        timestamps = [frame["ts"] for frame in result.frames]
        assert timestamps == sorted(timestamps)
        final = result.frames[-1]
        assert final["completed"] == 64
        assert final["model"] == "resnet50_v15"
        assert 0.0 <= final["slo_attainment"] if "slo_attainment" in final else True
        assert len(final["socket_util"]) == 1
        assert all(0.0 <= u <= 1.0 for u in final["socket_util"])

    def test_frames_are_seed_deterministic(self, resnet):
        from repro import obs

        def frames():
            with obs.install_metrics(obs.MetricsRegistry()):
                return run_server(resnet, queries=64, seed=4,
                                  telemetry_interval=0.01).frames

        assert frames() == frames()

    def test_queries_get_causally_linked_trace_trees(self, resnet):
        from repro import obs

        with obs.install_tracer(obs.Tracer()) as tracer:
            run_server(resnet, queries=16, seed=0)
        trace_ids = tracer.trace_ids()
        assert len(trace_ids) == 16
        assert trace_ids[0] == "resnet50_v15/q000000"
        spans = tracer.spans_for_trace(trace_ids[0])
        span_ids = {span.span_id for span in spans}
        assert "root" in span_ids
        assert {"pre", "queue.wait", "ncore", "x86.post"} <= span_ids
        for span in spans:
            if span.span_id != "root":
                assert span.parent_id == "root"
