"""Tests for the kernel driver model (section V-D)."""

import pytest

from repro.runtime import DriverError, NcoreKernelDriver
from repro.soc import ChaSoc


@pytest.fixture
def driver():
    return NcoreKernelDriver(ChaSoc())


class TestProbe:
    def test_probe_powers_up_and_configures_dma(self, driver):
        driver.probe()
        assert driver.powered_on
        assert driver.dma_window_base is not None
        # Both engines got their windows from the protected config fields.
        assert driver.soc.ncore.dma_read._window_base == driver.dma_window_base
        assert driver.soc.ncore_pci.dma_window_base == driver.dma_window_base

    def test_open_before_probe_rejected(self, driver):
        with pytest.raises(DriverError):
            driver.open("user")


class TestOwnership:
    def test_single_owner_enforced(self, driver):
        driver.probe()
        driver.open("user-a")
        with pytest.raises(DriverError, match="owned"):
            driver.open("user-b")

    def test_close_releases_ownership(self, driver):
        driver.probe()
        mapping = driver.open("user-a")
        driver.close(mapping)
        driver.open("user-b")  # now fine


class TestMemoryMapping:
    def test_mapping_reaches_ncore_srams(self, driver):
        driver.probe()
        mapping = driver.open("user")
        mapping.write_data_ram(0, b"\x42" * 16)
        assert mapping.read_data_ram(0, 16) == b"\x42" * 16

    def test_dma_address_translation(self, driver):
        driver.probe()
        assert driver.dma_address_for(4096) == driver.dma_window_base + 4096
