"""Tests for the power-on self-test (the ROM's self-test routines)."""

import pytest

from repro.ncore import Ncore
from repro.runtime import DriverError, NcoreKernelDriver, power_on_self_test
from repro.runtime.selftest import ROM_MAC_TEST, install_rom
from repro.soc import ChaSoc


@pytest.fixture
def probed_driver():
    driver = NcoreKernelDriver(ChaSoc())
    driver.probe()
    return driver


class TestPost:
    def test_healthy_device_passes(self, probed_driver):
        report = probed_driver.self_test()
        assert not report.failures
        assert report.ram_march_ok
        assert report.mac_datapath_ok
        assert report.dma_loopback_ok
        assert report.debug_fabric_ok

    def test_requires_probe(self):
        driver = NcoreKernelDriver(ChaSoc())
        with pytest.raises(DriverError, match="probe"):
            driver.self_test()

    def test_refused_while_owned(self, probed_driver):
        probed_driver.open("user")
        with pytest.raises(DriverError, match="owned"):
            probed_driver.self_test()

    def test_post_leaves_machine_reset(self, probed_driver):
        probed_driver.self_test()
        machine = probed_driver.soc.ncore
        assert machine.total_cycles == 0
        assert not machine.acc_int.any()

    def test_unconfigured_dma_detected(self):
        machine = Ncore()  # windows never configured
        report = power_on_self_test(machine)
        assert report.failures
        assert any("DMA" in f for f in report.failures)


class TestRomRoutine:
    def test_rom_fits_in_4kb(self):
        from repro.isa import assemble

        program = assemble(ROM_MAC_TEST)
        assert len(program) * 16 <= 4 * 1024

    def test_rom_entry_is_after_the_bank(self):
        machine = Ncore()
        entry = install_rom(machine)
        assert entry == machine.iram.bank_instructions
        # The routine is fetchable at its entry point.
        machine.iram.fetch(entry)

    def test_rom_routine_coexists_with_bank_programs(self):
        # Loading a normal program must not disturb the ROM (and vice
        # versa): "commonly executed code and self-test routines" persist.
        from repro.isa import assemble

        machine = Ncore()
        entry = install_rom(machine)
        machine.load_program(assemble("setaddr a0, 5\nhalt"))
        machine.run()
        assert machine.addr_regs[0] == 5
        machine.iram.fetch(entry)  # ROM still mapped
