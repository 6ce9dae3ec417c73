"""SocConfig: the shipped CHA numbers and the from_config plumbing."""

import pytest

from repro.soc import CHA_SOC, SocConfig, ring_order
from repro.soc.cha import ChaSoc
from repro.soc.memory import DramController
from repro.soc.ring import RingBus


class TestShippedPoint:
    def test_ring_bandwidth_is_160_gbps_per_direction(self):
        assert CHA_SOC.ring_bandwidth_per_direction == 160e9

    def test_ddr_bandwidth_is_102_4_gbps(self):
        assert CHA_SOC.ddr_bandwidth == 102.4e9

    def test_dma_rate_is_40_96_bytes_per_cycle(self):
        assert CHA_SOC.ncore_dma_bandwidth / 2.5e9 == pytest.approx(40.96)

    def test_twelve_ring_stops(self):
        assert len(ring_order(CHA_SOC.x86_cores)) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            SocConfig(ring_width_bits=100)  # not a multiple of 8
        with pytest.raises(ValueError):
            SocConfig(ddr_channels=0)
        with pytest.raises(ValueError):
            SocConfig(x86_cores=0)
        with pytest.raises(ValueError):
            SocConfig(cross_socket_efficiency=0.0)


class TestFromConfig:
    def test_ring_bus_follows_the_config(self):
        ring = RingBus.from_config(SocConfig(ring_width_bits=256, x86_cores=4))
        assert ring.width_bits == 256
        assert len(ring.order) == 4 + 4
        assert ring.bandwidth_per_direction == 32 * 2.5e9

    def test_default_ring_order_matches_the_cha_layout(self):
        from repro.soc.ring import RING_ORDER

        assert ring_order() == tuple(stop.value for stop in RING_ORDER)
        with pytest.raises(ValueError):
            ring_order(0)

    def test_dram_controller_follows_the_config(self):
        config = SocConfig(ddr_channels=8, ddr_transfer_rate=2400e6)
        dram = DramController.from_config(config)
        assert dram.peak_bandwidth == 8 * 2400e6 * 8

    def test_cha_soc_threads_one_config_through(self):
        config = SocConfig(ring_width_bits=1024, ddr_channels=2, x86_cores=4)
        soc = ChaSoc(soc_config=config)
        assert soc.ring.bandwidth_per_direction == 128 * 2.5e9
        assert soc.dram.peak_bandwidth == 2 * 3200e6 * 8
        assert len(soc.cores) == 4
        assert soc.l3.size_bytes == config.l3_bytes

    def test_cha_soc_rejects_contradictory_clocks(self):
        with pytest.raises(ValueError):
            ChaSoc(clock_hz=2.0e9, soc_config=SocConfig(clock_hz=2.5e9))

    def test_default_soc_is_unchanged(self):
        soc = ChaSoc()
        assert soc.ring.bandwidth_per_direction == 160e9
        assert soc.dram.peak_bandwidth == 102.4e9
        assert soc.ncore_to_dram_bandwidth() == pytest.approx(102.4e9)
