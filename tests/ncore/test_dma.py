"""Tests for the DMA engines and the driver-configured address window."""

import numpy as np
import pytest

from repro.ncore import DmaDescriptor, DmaEngine, LinearMemory, RowMemory
from repro.ncore.dma import L3_EXTRA_LATENCY


@pytest.fixture
def memory():
    return LinearMemory(1 << 32, bandwidth_bytes_per_cycle=40.96, latency_cycles=75)


@pytest.fixture
def rams():
    return RowMemory(64, 4096, "data"), RowMemory(64, 4096, "weight")


def descriptor(**kwargs):
    defaults = dict(
        write_to_dram=False,
        target_weight_ram=False,
        ram_row=0,
        rows=1,
        dram_addr=0,
    )
    defaults.update(kwargs)
    return DmaDescriptor(**defaults)


class TestLinearMemory:
    def test_read_write_round_trip(self, memory):
        memory.write(12345, b"hello world")
        assert memory.read(12345, 11) == b"hello world"

    def test_unwritten_memory_reads_zero(self, memory):
        assert memory.read(999, 4) == b"\x00" * 4

    def test_cross_page_access(self, memory):
        addr = (1 << 20) - 4  # straddles the 1 MB page boundary
        memory.write(addr, bytes(range(8)))
        assert memory.read(addr, 8) == bytes(range(8))

    def test_bounds_checked(self, memory):
        with pytest.raises(IndexError):
            memory.read(memory.size - 2, 4)

    def test_transfer_cycles_model(self, memory):
        # latency + bytes / bandwidth
        assert memory.transfer_cycles(4096) == 75 + int(np.ceil(4096 / 40.96))


class TestDmaDescriptor:
    def test_row_count_validated(self):
        with pytest.raises(ValueError):
            descriptor(rows=0)

    def test_num_bytes(self):
        assert descriptor(rows=3).num_bytes == 3 * 4096


class TestDmaEngine:
    def test_window_must_be_configured(self, memory, rams):
        engine = DmaEngine("rd", memory, window_bytes=1 << 30)
        with pytest.raises(RuntimeError):
            engine.start(descriptor(), *rams, now_cycle=0)

    def test_window_translation(self, memory, rams):
        # The driver maps the window at a DRAM base; user addresses are
        # window-relative (section V-D).
        data_ram, weight_ram = rams
        engine = DmaEngine("rd", memory, window_bytes=1 << 30)
        engine.configure_window(1 << 30)
        memory.write((1 << 30) + 8192, b"\x42" * 4096)
        engine.start(descriptor(dram_addr=8192, ram_row=3), data_ram, weight_ram, 0)
        assert data_ram.read_bytes(3 * 4096, 4096) == b"\x42" * 4096

    def test_window_bounds_enforced(self, memory, rams):
        engine = DmaEngine("rd", memory, window_bytes=1 << 20)
        engine.configure_window(0)
        with pytest.raises(IndexError):
            engine.start(descriptor(dram_addr=(1 << 20) - 100), *rams, now_cycle=0)

    def test_window_must_fit_in_memory(self, memory):
        engine = DmaEngine("rd", memory, window_bytes=1 << 30)
        with pytest.raises(ValueError):
            engine.configure_window(memory.size - 100)

    def test_write_to_dram(self, memory, rams):
        data_ram, weight_ram = rams
        data_ram.write_bytes(0, b"\x07" * 4096)
        engine = DmaEngine("wr", memory, window_bytes=1 << 30)
        engine.configure_window(0)
        engine.start(
            descriptor(write_to_dram=True, dram_addr=4096), data_ram, weight_ram, 0
        )
        assert memory.read(4096, 4096) == b"\x07" * 4096

    def test_weight_ram_targeted(self, memory, rams):
        data_ram, weight_ram = rams
        engine = DmaEngine("rd", memory, window_bytes=1 << 30)
        engine.configure_window(0)
        memory.write(0, b"\x09" * 4096)
        engine.start(descriptor(target_weight_ram=True), data_ram, weight_ram, 0)
        assert weight_ram.read_bytes(0, 4096) == b"\x09" * 4096
        assert data_ram.read_bytes(0, 4096) == b"\x00" * 4096

    def test_busy_until_advances_with_transfers(self, memory, rams):
        engine = DmaEngine("rd", memory, window_bytes=1 << 30)
        engine.configure_window(0)
        done1 = engine.start(descriptor(rows=4), *rams, now_cycle=0)
        assert done1 == memory.transfer_cycles(4 * 4096)
        # A second transfer queues behind the first.
        done2 = engine.start(descriptor(rows=1, ram_row=8), *rams, now_cycle=0)
        assert done2 == done1 + memory.transfer_cycles(4096)

    def test_idle_engine_restarts_from_now(self, memory, rams):
        engine = DmaEngine("rd", memory, window_bytes=1 << 30)
        engine.configure_window(0)
        engine.start(descriptor(), *rams, now_cycle=0)
        first_done = engine.busy_until
        done = engine.start(descriptor(ram_row=1), *rams, now_cycle=first_done + 1000)
        assert done == first_done + 1000 + memory.transfer_cycles(4096)

    def test_l3_path_adds_latency(self, memory, rams):
        direct = DmaEngine("rd", memory, window_bytes=1 << 30)
        direct.configure_window(0)
        through = DmaEngine("rd", memory, window_bytes=1 << 30)
        through.configure_window(0)
        direct.start(descriptor(), *rams, now_cycle=0)
        through.start(descriptor(through_l3=True, ram_row=1), *rams, now_cycle=0)
        # "The extra hop through the L3 minimally increases the latency".
        assert through.busy_until == direct.busy_until + L3_EXTRA_LATENCY

    def test_statistics(self, memory, rams):
        engine = DmaEngine("rd", memory, window_bytes=1 << 30)
        engine.configure_window(0)
        engine.start(descriptor(rows=2), *rams, now_cycle=0)
        engine.start(descriptor(rows=1, ram_row=4), *rams, now_cycle=0)
        assert engine.transfers == 2
        assert engine.bytes_moved == 3 * 4096
