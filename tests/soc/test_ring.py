"""Tests for the CHA ring bus model."""

import itertools

import pytest

from repro.soc import RingBus, RingStop
from repro.soc.ring import RING_ORDER


@pytest.fixture
def ring():
    return RingBus()


class TestBandwidth:
    def test_160_gbps_per_direction(self, ring):
        # Section III: 512 bits/direction at 2.5 GHz = 160 GB/s.
        assert ring.bandwidth_per_direction == pytest.approx(160e9)

    def test_320_gbps_combined(self, ring):
        assert 2 * ring.bandwidth_per_direction == pytest.approx(320e9)


class TestTopology:
    def test_all_agents_have_stops(self):
        # Ring stops for each x86 core, Ncore, I/O, memory controllers,
        # and multi-socket logic (section III).
        assert set(RING_ORDER) == set(RingStop)
        assert len(RING_ORDER) == 12

    def test_hops_are_symmetric(self, ring):
        for a, b in itertools.combinations(RingStop, 2):
            assert ring.hops(a, b) == ring.hops(b, a)

    def test_bidirectional_takes_shorter_way(self, ring):
        # Max distance on a 12-stop bidirectional ring is 6 hops.
        assert max(
            ring.hops(a, b) for a, b in itertools.combinations(RingStop, 2)
        ) == 6

    def test_self_distance_zero(self, ring):
        assert ring.hops(RingStop.NCORE, RingStop.NCORE) == 0

    def test_ncore_adjacent_to_memory(self, ring):
        assert ring.hops(RingStop.NCORE, RingStop.MEMORY) == 1


class TestTransfers:
    def test_one_flit_costs_hops_plus_one(self, ring):
        hops = ring.hops(RingStop.CORE0, RingStop.NCORE)
        assert ring.transfer_cycles(RingStop.CORE0, RingStop.NCORE, 64) == hops + 1

    def test_serialisation_dominates_large_transfers(self, ring):
        cycles = ring.transfer_cycles(RingStop.MEMORY, RingStop.NCORE, 4096)
        assert cycles == 1 + 4096 // 64
