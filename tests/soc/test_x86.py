"""Tests for the CNS core model and the Table III comparison data."""

import pytest

from repro.dtypes import NcoreDType
from repro.soc import CNS, HASWELL, SKYLAKE_SERVER, X86Core


class TestTableIII:
    """The microarchitecture comparison facts from Table III."""

    def test_cns_vs_haswell(self):
        # "Compared against Haswell, CNS has higher L2 cache associativity,
        # larger store buffer, larger scheduler, and smaller per-core L3."
        assert CNS.l2_ways > HASWELL.l2_ways
        assert CNS.store_buffer > HASWELL.store_buffer
        assert CNS.scheduler_size > HASWELL.scheduler_size
        assert CNS.l3_per_core_mb == HASWELL.l3_per_core_mb  # both 2MB shared

    def test_cns_vs_skylake_server(self):
        # "Compared against Skylake Server, CNS has a larger per-core L3,
        # but smaller L2, store buffer, reorder buffer, and scheduler."
        assert CNS.l3_per_core_mb > SKYLAKE_SERVER.l3_per_core_mb
        assert CNS.l2_kb < SKYLAKE_SERVER.l2_kb
        assert CNS.store_buffer < SKYLAKE_SERVER.store_buffer
        assert CNS.rob_size < SKYLAKE_SERVER.rob_size
        assert CNS.scheduler_size < SKYLAKE_SERVER.scheduler_size

    def test_l1_caches_identical(self):
        for spec in (CNS, HASWELL, SKYLAKE_SERVER):
            assert spec.l1i_kb == 32
            assert spec.l1d_kb == 32


class TestX86CoreModel:
    def test_peak_throughput_matches_table2(self):
        # Table II: 1x CNS at 2.5 GHz peaks at 106 GOPS (8b), 80 GOPS (bf16).
        core = X86Core()
        assert core.peak_ops(NcoreDType.INT8) == pytest.approx(106e9)
        assert core.peak_ops(NcoreDType.BF16) == pytest.approx(80e9)
        assert core.peak_ops(None) == pytest.approx(80e9)  # FP32

    def test_peak_scales_with_clock(self):
        slow = X86Core(clock_hz=1.25e9)
        assert slow.peak_ops(NcoreDType.INT8) == pytest.approx(53e9)

    def test_compute_bound_task(self):
        core = X86Core(efficiency=0.5)
        seconds = core.task_seconds(ops=40e9, dtype=NcoreDType.BF16)
        assert seconds == pytest.approx(1.0)

    def test_memory_bound_task(self):
        core = X86Core(memory_bandwidth=20e9)
        assert core.task_seconds(bytes_moved=20e9) == pytest.approx(1.0)

    def test_fixed_overhead(self):
        core = X86Core()
        assert core.task_seconds(fixed_seconds=0.5) == pytest.approx(0.5)


class TestNcoreSpeedupContext:
    def test_ncore_is_23x_a_vnni_xeon_equivalent(self):
        # Section VI-B: Ncore's ResNet throughput equals ~23 VNNI Xeon
        # cores (53.3 IPS/core for 2x CLX 9282 vs Ncore's 1218 IPS).
        assert 1218.48 / (5965.62 / 112) == pytest.approx(22.9, abs=0.2)
