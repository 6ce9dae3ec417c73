"""Full-system shape tests: the simulated results must reproduce the
paper's comparative claims (who wins, by roughly what factor)."""

import pytest

from repro.perf.published import (
    PUBLISHED_LATENCY_MS,
    PUBLISHED_THROUGHPUT_IPS,
    per_ice_resnet_ips,
)
from repro.perf.report import figure_series, saturation_cores
from repro.perf.scaling import expected_throughput, observed_throughput
from repro.perf.system import get_system

CNN_MODELS = ("mobilenet_v1", "resnet50_v15", "ssd_mobilenet_v1")


def fig13_saturation(model):
    """Cores at which the report's simulated Fig. 13 series saturates."""
    return saturation_cores(figure_series(get_system(model), expected_throughput))


class TestLatencyShape:
    """Table VII reproduction: comparative latency claims."""

    @pytest.mark.parametrize("model", ["mobilenet_v1", "resnet50_v15"])
    def test_ncore_beats_every_published_competitor(self, model):
        ours = get_system(model).single_stream_latency_seconds() * 1e3
        for system, row in PUBLISHED_LATENCY_MS.items():
            if system == "Centaur Ncore" or row[model] is None:
                continue
            assert ours < row[model], f"lost to {system} on {model}"

    @pytest.mark.parametrize("model", CNN_MODELS)
    def test_latency_within_50_percent_of_paper(self, model):
        ours = get_system(model).single_stream_latency_seconds() * 1e3
        paper = PUBLISHED_LATENCY_MS["Centaur Ncore"][model]
        assert 0.5 * paper < ours < 1.5 * paper

    def test_latency_ordering_across_models(self):
        latencies = [
            get_system(m).single_stream_latency_seconds() for m in CNN_MODELS
        ]
        mobilenet, resnet, ssd = latencies
        assert mobilenet < resnet < ssd  # same ordering as Table VII

    def test_ssd_near_best_not_best(self):
        # SSD-MobileNet: "near-best latency" — Xavier and CLX are close;
        # the x86-dominated NMS keeps Ncore from the same margin it has on
        # the classification models.
        ours = get_system("ssd_mobilenet_v1").single_stream_latency_seconds() * 1e3
        xavier = PUBLISHED_LATENCY_MS["NVIDIA AGX Xavier"]["ssd_mobilenet_v1"]
        assert ours == pytest.approx(xavier, rel=0.35)


class TestThroughputShape:
    """Table VIII reproduction: comparative throughput claims."""

    @pytest.mark.parametrize("model", CNN_MODELS)
    def test_throughput_within_50_percent_of_paper(self, model):
        ours = get_system(model).offline_throughput_ips()
        paper = PUBLISHED_THROUGHPUT_IPS["Centaur Ncore"][model]
        assert 0.5 * paper < ours < 1.5 * paper

    def test_gnmt_matches_submission(self):
        ours = get_system("gnmt").offline_throughput_ips()
        assert ours == pytest.approx(12.28, rel=0.15)

    def test_gnmt_mature_software_projection(self):
        # "We anticipate Ncore's GNMT throughput to increase significantly
        # as Ncore's software stack continues to mature."
        system = get_system("gnmt")
        mature = system.offline_throughput_ips(mature_software=True)
        assert mature > 10 * system.offline_throughput_ips()

    def test_xavier_wins_resnet_throughput(self):
        # Xavier's ResNet-50 throughput is ~1.77x Ncore's; the simulated
        # Ncore must stay below Xavier (the paper's crossover).
        ours = get_system("resnet50_v15").offline_throughput_ips()
        xavier = PUBLISHED_THROUGHPUT_IPS["NVIDIA AGX Xavier"]["resnet50_v15"]
        assert ours < xavier

    def test_clx_breaks_even_only_with_100plus_cores(self):
        # Ncore ~ 23 VNNI Xeon cores: the 112-core CLX system wins on raw
        # throughput but Ncore wins per core by >20x.
        ours = get_system("resnet50_v15").offline_throughput_ips()
        clx = PUBLISHED_THROUGHPUT_IPS["(2x) Intel CLX 9282"]["resnet50_v15"]
        assert ours < clx
        assert ours / (clx / 112) > 15  # per-core advantage

    def test_resnet_beats_one_nnpi_ice_not_the_system(self):
        # "2.77x higher than a single 4096-byte ICE"; the 24-ICE system
        # still leads on raw throughput.
        ours = get_system("resnet50_v15").offline_throughput_ips()
        assert ours > 2 * per_ice_resnet_ips()
        assert ours < PUBLISHED_THROUGHPUT_IPS["(2x) Intel NNP-I 1000"]["resnet50_v15"]

    def test_mobilenet_near_xavier_far_above_i3(self):
        # Section VI-B: Ncore's MobileNet throughput is within 8 % of
        # Xavier's and an order of magnitude above the i3's.
        ours = get_system("mobilenet_v1").offline_throughput_ips()
        xavier = PUBLISHED_THROUGHPUT_IPS["NVIDIA AGX Xavier"]["mobilenet_v1"]
        assert abs(ours - xavier) / xavier < 0.30
        assert ours > 5 * PUBLISHED_THROUGHPUT_IPS["Intel i3 1005G1"]["mobilenet_v1"]

    def test_ssd_throughput_is_single_batch(self):
        # Section VI-C: SSD ran without batching, so Offline throughput ~
        # 1 / SingleStream latency (651.89 vs 649 in the paper).
        system = get_system("ssd_mobilenet_v1")
        throughput = system.offline_throughput_ips()
        reciprocal = 1.0 / system.single_stream_latency_seconds()
        assert throughput == pytest.approx(reciprocal, rel=0.01)

    def test_batching_speedups_by_model(self):
        # Section VI-C: ~2x for MobileNet, ~1.3x for ResNet.
        speedups = {}
        for model in ("mobilenet_v1", "resnet50_v15"):
            system = get_system(model)
            single = 1.0 / system.single_stream_latency_seconds()
            speedups[model] = system.offline_throughput_ips() / single
        assert speedups["mobilenet_v1"] > speedups["resnet50_v15"]
        assert 1.4 < speedups["mobilenet_v1"] < 2.6
        assert 1.1 < speedups["resnet50_v15"] < 1.6


class TestWorkloadSplit:
    """Table IX reproduction: the Ncore vs x86 decomposition, and the
    Fig. 13 / 14 core-count curves the report builds on it."""

    def test_ncore_fractions_ordering(self):
        # Paper: ResNet 68% Ncore > MobileNet 33% > SSD 23%.
        fractions = {}
        for model in CNN_MODELS:
            split = get_system(model).workload_split()
            fractions[model] = split["ncore"] / split["total"]
        assert fractions["resnet50_v15"] > fractions["mobilenet_v1"] > fractions["ssd_mobilenet_v1"]
        # ResNet is Ncore-dominated, SSD x86-dominated.
        assert fractions["resnet50_v15"] > 0.55
        assert fractions["ssd_mobilenet_v1"] < 0.35

    @pytest.mark.parametrize(
        "model,paper_fraction",
        [("mobilenet_v1", 0.33), ("resnet50_v15", 0.68), ("ssd_mobilenet_v1", 0.23)],
    )
    def test_ncore_fraction_close_to_paper(self, model, paper_fraction):
        split = get_system(model).workload_split()
        ours = split["ncore"] / split["total"]
        assert ours == pytest.approx(paper_fraction, abs=0.15)

    def test_ssd_x86_dominated_by_nms(self):
        # SSD's x86 latency is "largely attributed to SSD's non-maximum
        # suppression operation which is executed on x86".
        system = get_system("ssd_mobilenet_v1")
        portion = system.x86_portion()
        assert portion.graph_seconds > portion.preprocess_seconds

    @pytest.mark.parametrize("model", CNN_MODELS)
    def test_fig14_observed_below_fig13_expected(self, model):
        # Fig. 14's curves sit under Fig. 13's at 2-8 cores; both rise
        # monotonically with the core count.
        system = get_system(model)
        expected = figure_series(system, expected_throughput)
        observed = figure_series(system, observed_throughput)
        assert expected == sorted(expected) and observed == sorted(observed)
        assert all(o <= e for o, e in zip(observed[1:], expected[1:], strict=True))

    def test_fig13_resnet_saturates_before_mobilenet(self):
        assert fig13_saturation("resnet50_v15") < fig13_saturation("mobilenet_v1")

    @pytest.mark.xfail(strict=True, reason=(
        "SSD's non-batchable NMS share caps its simulated Fig. 13 series at 2 "
        "cores where the paper reads 5; a tracked fidelity gap (ROADMAP: Drive the "
        "paper error down with attributable terms)"
    ))
    def test_fig13_ssd_saturates_last(self):
        assert fig13_saturation("mobilenet_v1") <= fig13_saturation("ssd_mobilenet_v1")


class TestOneTimingModel:
    """``BenchmarkSystem`` and ``NcoreExecutor`` read one clock off the
    compiled model — the guard against a second copy of the formulas."""

    @pytest.mark.parametrize("model", (*CNN_MODELS, "gnmt"))
    def test_system_and_executor_agree_exactly(self, model):
        from repro.runtime import NcoreExecutor
        from repro.soc.cha import ChaSoc

        system = get_system(model)
        soc = ChaSoc(ncore_config=system.config)
        executor = NcoreExecutor(system.compiled, soc=soc, verify=False)
        clock = system.config.clock_hz
        bpc = soc.ncore_to_dram_bandwidth() / clock
        try:
            for batch in (1, 8, 64):
                assert system.compiled.ncore_cycles_batched(batch, bpc) / clock == \
                    system.ncore_seconds_batched(batch)
            with pytest.raises(ValueError):
                system.compiled.ncore_cycles_batched(0, bpc)
            assert executor.ncore_seconds() == system.ncore_seconds()
            assert executor.x86_graph_seconds() == system.x86_portion().graph_seconds
        finally:
            executor.close()
