"""Tests for the assembled CHA SoC."""

import pytest

from repro.soc import ChaSoc
from repro.soc.cha import DIE_AREA_MM2, NCORE_AREA_MM2, NUM_CORES


@pytest.fixture(scope="module")
def soc():
    return ChaSoc()


class TestAssembly:
    def test_eight_cores(self, soc):
        assert len(soc.cores) == NUM_CORES == 8

    def test_ncore_shares_system_memory(self, soc):
        # Ncore's DMA engines and the DRAM controller are the same store.
        assert soc.ncore.memory is soc.dram

    def test_ncore_dma_read_reaches_l3(self, soc):
        assert soc.ncore.dma_read.l3 is soc.l3

    def test_ncore_area_fraction_is_17_percent(self, soc):
        # Section IV-B: 34.4 mm2 of 200 mm2.
        assert NCORE_AREA_MM2 / DIE_AREA_MM2 == pytest.approx(0.17, abs=0.003)

    def test_single_frequency_domain(self, soc):
        # "All CHA logic runs in a single frequency domain" (section IV-A).
        assert soc.ring.clock_hz == soc.ncore.config.clock_hz == soc.cores[0].clock_hz


class TestPciEnumeration:
    def test_ncore_enumerates_as_coprocessor(self, soc):
        functions = soc.enumerate_pci()
        assert len(functions) == 1
        assert functions[0].class_code >> 8 == 0x0B  # processor class

    def test_bars_assigned_after_enumeration(self, soc):
        soc.enumerate_pci()
        assert all(bar.address is not None for bar in soc.ncore_pci.bars)


class TestDataPaths:
    def test_ncore_dram_bandwidth_limited_by_dram(self, soc):
        # Ring direction gives 160 GB/s but DRAM peaks at 102 GB/s.
        assert soc.ncore_to_dram_bandwidth() == pytest.approx(102.4e9)

    def test_full_system_dma_compute_roundtrip(self):
        # End-to-end: x86 stages weights in DRAM, Ncore DMAs them in,
        # computes, DMAs results out — the normal throughput flow
        # (section IV-A).
        import numpy as np

        from repro.isa import assemble
        from repro.ncore import DmaDescriptor

        soc = ChaSoc()
        ncore = soc.ncore
        ncore.dma_read.configure_window(0)
        ncore.dma_write.configure_window(0)
        soc.dram.write(0, bytes(np.full(4096, 3, np.uint8)))
        ncore.write_data_ram(0, bytes(np.full(4096, 7, np.uint8)))
        ncore.set_dma_descriptor(
            0, DmaDescriptor(False, True, ram_row=0, rows=1, dram_addr=0)
        )
        ncore.set_dma_descriptor(
            1, DmaDescriptor(True, False, ram_row=16, rows=1, dram_addr=65536)
        )
        program = assemble(
            """
            dmastart 0
            dmawait 1
            mac dram[a0], wtram[a1]
            setaddr a6, 16
            requant.uint8
            store a6
            dmastart 1
            dmawait 2
            halt
            """
        )
        result = ncore.execute_program(program)
        assert result.halted
        out = np.frombuffer(soc.dram.read(65536, 4096), dtype=np.uint8)
        assert (out == 21).all()

    def test_coherent_l3_dma_read_sees_cpu_stores(self):
        # A CPU store sitting dirty in L3 must be visible to an Ncore DMA
        # read through the L3 (section IV-A), and invisible to a direct
        # DRAM read.
        import numpy as np

        from repro.isa import assemble
        from repro.ncore import DmaDescriptor

        soc = ChaSoc()
        ncore = soc.ncore
        ncore.dma_read.configure_window(0)
        soc.dram.write(0, b"\x01" * 4096)
        soc.l3.write_line(0, b"\x99" * 64)  # CPU store, not yet in DRAM
        ncore.set_dma_descriptor(
            0, DmaDescriptor(False, False, ram_row=0, rows=1, dram_addr=0, through_l3=True)
        )
        ncore.set_dma_descriptor(
            1, DmaDescriptor(False, False, ram_row=1, rows=1, dram_addr=0)
        )
        ncore.execute_program(assemble("dmastart 0\ndmastart 1\ndmawait 1\nhalt"))
        through_l3 = np.frombuffer(ncore.read_data_ram(0, 4096), np.uint8)
        direct = np.frombuffer(ncore.read_data_ram(4096, 4096), np.uint8)
        assert (through_l3[:64] == 0x99).all()
        assert (through_l3[64:] == 0x01).all()
        assert (direct == 0x01).all()
