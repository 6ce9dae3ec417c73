"""Closed-form SingleStream and Offline vs the recorded pre-engine harness.

The recorded values below were produced by the analytic (pre-engine)
harness at seed 0 on the four zoo systems;
``BenchmarkSystem.single_stream_latency_seconds`` and
``BenchmarkSystem.offline_throughput_ips`` must stay within 1% of them.
"""

import pytest

from repro.perf.system import get_system

# (mean_latency_s, offline_ips) at seed 0, queries=1024 (SingleStream) /
# queries=4096, batch=64, cores=8 (Offline).
PRE_ENGINE_BASELINE = {
    "mobilenet_v1": (0.000226629608785106, 8163.775483737591),
    # Re-recorded when the conv schedule began counting the program its
    # emitter runs (one Fig. 7 pass plan): the two stride-1 7x7 3x3 convs
    # take two passes per channel group, since the filter's reach needs 9
    # lanes of an output row 7 wide.
    "resnet50_v15": (0.0008707888, 1658.4277281666302),
    "ssd_mobilenet_v1": (0.0010948358649663977, 912.8290838262217),
    # Re-recorded when GNMT's encoder moved to lstm_step and bf16-region
    # reshapes joined the Ncore partition (fewer x86 islands and offloads).
    "gnmt": (0.10783783887470308, 13.786551225958789),
}


class TestBaselineRegression:
    @pytest.mark.parametrize("key", sorted(PRE_ENGINE_BASELINE))
    def test_single_stream_within_one_percent(self, key):
        mean, _ = PRE_ENGINE_BASELINE[key]
        latency = get_system(key).single_stream_latency_seconds()
        assert latency == pytest.approx(mean, rel=0.01)

    @pytest.mark.parametrize("key", sorted(PRE_ENGINE_BASELINE))
    def test_offline_within_one_percent(self, key):
        _, ips = PRE_ENGINE_BASELINE[key]
        throughput = get_system(key).offline_throughput_ips(cores=8)
        assert throughput == pytest.approx(ips, rel=0.01)


class TestOfflineEdgeCases:
    def test_rejects_bad_parameters(self):
        system = get_system("resnet50_v15")
        with pytest.raises(ValueError, match="batch"):
            system.ncore_seconds_batched(0)
        with pytest.raises(ValueError, match="core"):
            system.offline_throughput_ips(cores=0)
