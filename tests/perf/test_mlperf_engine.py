"""Engine-produced SingleStream and closed-form Offline vs the recorded
pre-engine harness.

The recorded values below were produced by the analytic (pre-engine)
harness at seed 0 on the four zoo systems; the engine SingleStream loop
and ``BenchmarkSystem.offline_throughput_ips`` must stay within 1% of
them.
"""

import pytest

from repro.perf.mlperf import run_single_stream
from repro.perf.system import get_system

# (mean_latency_s, p90_latency_s, offline_ips) at seed 0,
# queries=1024 (SingleStream) / queries=4096, batch=64, cores=8 (Offline).
PRE_ENGINE_BASELINE = {
    "mobilenet_v1": (0.000226629608785106, 0.00023098133628745226, 8163.775483737591),
    "resnet50_v15": (0.000839631496264597, 0.0008557540474780858, 1747.4370241044574),
    "ssd_mobilenet_v1": (0.0010948358649663977, 0.001115858834425993, 912.8290838262217),
    # Re-recorded when GNMT's encoder moved to lstm_step and bf16-region
    # reshapes joined the Ncore partition (fewer x86 islands and offloads).
    "gnmt": (0.10783783887470308, 0.10990853427827506, 13.786551225958789),
}


class TestBaselineRegression:
    @pytest.mark.parametrize("key", sorted(PRE_ENGINE_BASELINE))
    def test_single_stream_within_one_percent(self, key):
        mean, p90, _ = PRE_ENGINE_BASELINE[key]
        result = run_single_stream(get_system(key), queries=1024, seed=0)
        assert result.mean_latency_seconds == pytest.approx(mean, rel=0.01)
        assert result.p90_latency_seconds == pytest.approx(p90, rel=0.01)

    @pytest.mark.parametrize("key", sorted(PRE_ENGINE_BASELINE))
    def test_offline_within_one_percent(self, key):
        _, _, ips = PRE_ENGINE_BASELINE[key]
        throughput = get_system(key).offline_throughput_ips(cores=8, batch=64)
        assert throughput == pytest.approx(ips, rel=0.01)

    def test_scenarios_are_seed_deterministic(self):
        system = get_system("resnet50_v15")
        assert run_single_stream(system, queries=64, seed=3) == run_single_stream(
            system, queries=64, seed=3
        )


class TestOfflineEdgeCases:
    def test_rejects_bad_parameters(self):
        system = get_system("resnet50_v15")
        with pytest.raises(ValueError, match="batch"):
            system.offline_throughput_ips(batch=0)
        with pytest.raises(ValueError, match="core"):
            system.offline_throughput_ips(cores=0)
        with pytest.raises(ValueError):
            run_single_stream(system, queries=0)
