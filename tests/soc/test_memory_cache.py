"""Tests for the DRAM controller and the shared L3 cache."""

import pytest

from repro.soc import DramController, L3Cache
from repro.soc.cache import LINE_BYTES


def read_line(l3, addr):
    """One line through Ncore's coherent read path (allocates on a miss)."""
    return l3.coherent_read(addr, LINE_BYTES, bytes(LINE_BYTES))


class TestDramController:
    def test_peak_bandwidth_matches_paper(self):
        # Section III: four channels of DDR4-3200 give 102 GB/s peak.
        dram = DramController()
        assert dram.peak_bandwidth == pytest.approx(102.4e9)

    def test_bytes_per_cycle_at_cha_clock(self):
        dram = DramController()
        assert dram.bandwidth_bytes_per_cycle == pytest.approx(102.4e9 / 2.5e9)

    def test_is_a_linear_memory(self):
        dram = DramController(size=1 << 30)
        dram.write(123, b"abc")
        assert dram.read(123, 3) == b"abc"


class TestL3Cache:
    def test_capacity_checks(self):
        with pytest.raises(ValueError):
            L3Cache(size_bytes=100)

    def test_geometry(self):
        l3 = L3Cache()
        # 16 MB, 16 ways, 64 B lines -> 16384 sets.
        assert l3.num_sets == 16 * 1024 * 1024 // (16 * 64)

    def test_miss_then_hit(self):
        l3 = L3Cache()
        read_line(l3, 0x1000)
        assert (l3.hits, l3.misses) == (0, 1)
        read_line(l3, 0x1000)
        assert (l3.hits, l3.misses) == (1, 1)

    def test_lru_eviction(self):
        l3 = L3Cache(size_bytes=2 * 64, ways=2)  # 1 set, 2 ways
        read_line(l3, 0 * 64)
        read_line(l3, 1 * 64)
        read_line(l3, 0 * 64)      # touch line 0: line 1 is now LRU
        read_line(l3, 2 * 64)      # evicts line 1
        hits = l3.hits
        read_line(l3, 0 * 64)
        assert l3.hits == hits + 1
        read_line(l3, 1 * 64)
        assert l3.hits == hits + 1

    def test_hit_rate(self):
        l3 = L3Cache()
        read_line(l3, 0)
        read_line(l3, 0)
        read_line(l3, 64)
        assert l3.hits / (l3.hits + l3.misses) == pytest.approx(1 / 3)


class TestCoherentReadPath:
    """Section IV-A: Ncore DMA reads through L3 are coherent."""

    def test_dirty_line_overlays_dram_payload(self):
        l3 = L3Cache()
        dram_payload = b"\x00" * 128
        l3.write_line(64, b"\xAA" * LINE_BYTES)  # CPU store still in L3
        out = l3.coherent_read(0, 128, dram_payload)
        assert out[:64] == b"\x00" * 64
        assert out[64:] == b"\xAA" * 64

    def test_partial_line_overlay(self):
        l3 = L3Cache()
        l3.write_line(0, bytes(range(64)))
        out = l3.coherent_read(16, 8, b"\xFF" * 8)
        assert out == bytes(range(16, 24))

    def test_clean_miss_returns_dram_data(self):
        l3 = L3Cache()
        payload = b"\x12" * 64
        assert l3.coherent_read(0, 64, payload) == payload
        assert l3.misses == 1

    def test_read_allocates(self):
        l3 = L3Cache()
        l3.coherent_read(0, 64, b"\x00" * 64)
        l3.coherent_read(0, 64, b"\x00" * 64)
        assert l3.hits == 1

    def test_eviction_writes_back_to_dram(self):
        dram = DramController(size=1 << 20)
        l3 = L3Cache(size_bytes=2 * 64, ways=2, memory=dram)
        l3.write_line(0, b"\x55" * 64)
        read_line(l3, 1 * 64)
        read_line(l3, 2 * 64)  # evicts the dirty line 0
        assert l3.writebacks == 1
        assert dram.read(0, 64) == b"\x55" * 64
