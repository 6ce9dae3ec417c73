"""Tests for the CHA ring bus model."""

import pytest

from repro.soc import RingBus


@pytest.fixture
def ring():
    return RingBus()


class TestBandwidth:
    def test_160_gbps_per_direction(self, ring):
        # Section III: 512 bits/direction at 2.5 GHz = 160 GB/s.
        assert ring.bandwidth_per_direction == pytest.approx(160e9)

    def test_320_gbps_combined(self, ring):
        assert 2 * ring.bandwidth_per_direction == pytest.approx(320e9)
