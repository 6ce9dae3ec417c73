"""Seeded violations and clean runs for the shadow-SRAM sanitizer.

Each dynamic rule gets a minimal machine program that triggers it, plus
the matching corrected program that must run clean.  The acceptance
scenario — a deliberately reordered DMA schedule — is checked both
statically (``hazard.raw``) and at runtime (``san.race``) from the same
program text and descriptor table.
"""

import pytest

from repro.analyze import analyze_program_hazards
from repro.isa import assemble
from repro.ncore import Ncore
from repro.ncore.dma import DmaDescriptor
from repro.sanitize import (
    AGENT_COMPUTE,
    AGENT_HOST,
    Sanitizer,
    ShadowRam,
    check_determinism,
    oracle_compare,
    state_digest,
)

ROW = 4096

# The reordered schedule: an inbound fill of data row 0 that the first
# compute read consumes with no dmawait in between.
REORDERED = "setaddr a0, 0\ndmastart 0\nbypass n0, dram[a0]\nhalt"
ORDERED = "setaddr a0, 0\ndmastart 0\ndmawait 1\nbypass n0, dram[a0]\nhalt"
INBOUND = DmaDescriptor(False, False, 0, 1, 0, False)


def _staged_machine(descriptor=None):
    machine = Ncore(fastpath=False)
    machine.dma_read.configure_window(0)
    machine.dma_write.configure_window(0)
    machine.memory.write(0, bytes(range(256)) * (4 * ROW // 256))
    if descriptor is not None:
        machine.set_dma_descriptor(0, descriptor)
    return machine


def _run(machine, source):
    return machine.execute_program(assemble(source))


def _rules(sanitizer):
    return {d.rule for d in sanitizer.report}


class TestShadowRam:
    def test_mark_write_and_initialized(self):
        shadow = ShadowRam(4, 16, "data")
        assert not shadow.initialized(0, 16)
        shadow.mark_write(0, 16, AGENT_HOST)
        assert shadow.initialized(0, 16)
        assert not shadow.initialized(0, 17)
        assert shadow.last_writer[0, 0] == AGENT_HOST

    def test_mark_read_records_agent(self):
        shadow = ShadowRam(4, 16, "data")
        shadow.mark_read(16, 32, AGENT_COMPUTE)
        assert shadow.last_reader[1, 0] == AGENT_COMPUTE
        assert shadow.last_reader[0, 0] == 0


class TestUninitRead:
    def test_unstaged_read_is_flagged(self):
        machine = Ncore(fastpath=False)
        sanitizer = machine.arm_sanitizer(True)
        _run(machine, "setaddr a0, 5\nbypass n0, dram[a0]\nhalt")
        assert "san.uninit-read" in _rules(sanitizer)
        assert not sanitizer.ok

    def test_host_staged_read_is_clean(self):
        machine = Ncore(fastpath=False)
        sanitizer = machine.arm_sanitizer(True)
        machine.write_data_ram(5 * ROW, b"\x01" * ROW)
        _run(machine, "setaddr a0, 5\nbypass n0, dram[a0]\nhalt")
        assert sanitizer.ok

    def test_outbound_dma_of_unwritten_rows_is_flagged(self):
        machine = _staged_machine(DmaDescriptor(True, False, 3, 1, 0, False))
        sanitizer = machine.arm_sanitizer(True)
        _run(machine, "dmastart 0\ndmawait 2\nhalt")
        assert "san.uninit-read" in _rules(sanitizer)


class TestRace:
    def test_reordered_schedule_races_at_runtime(self):
        machine = _staged_machine(INBOUND)
        sanitizer = machine.arm_sanitizer(True)
        _run(machine, REORDERED)
        assert "san.race" in _rules(sanitizer)

    def test_dmawait_restores_order(self):
        machine = _staged_machine(INBOUND)
        sanitizer = machine.arm_sanitizer(True)
        _run(machine, ORDERED)
        assert sanitizer.ok
        assert sanitizer.stats["dma_transfers"] == 1

    def test_reordered_schedule_is_also_flagged_statically(self):
        # Acceptance: the same defect is caught by both layers.
        report = analyze_program_hazards(assemble(REORDERED), {0: INBOUND})
        assert "hazard.raw" in {d.rule for d in report}
        ordered = analyze_program_hazards(assemble(ORDERED), {0: INBOUND})
        assert ordered.ok

    def test_store_into_inflight_fill_races(self):
        machine = _staged_machine(INBOUND)
        sanitizer = machine.arm_sanitizer(True)
        _run(
            machine,
            "setaddr a0, 0\ndmastart 0\n"
            "bypass n0, zero\nstore a0\n"
            "dmawait 1\nsetaddr a1, 0\nbypass n1, dram[a1]\nhalt",
        )
        assert "san.race" in _rules(sanitizer)


class TestDmaOob:
    def test_descriptor_past_the_last_row(self):
        machine = _staged_machine(DmaDescriptor(False, False, 2047, 4, 0, False))
        sanitizer = machine.arm_sanitizer(True)
        with pytest.raises(IndexError):
            _run(machine, "dmastart 0\nhalt")
        assert "san.dma-oob" in _rules(sanitizer)


class TestZeroCostOff:
    def test_disarmed_run_is_bit_identical(self):
        source = ORDERED
        plain = _staged_machine(INBOUND)
        toggled = _staged_machine(INBOUND)
        toggled.arm_sanitizer(True)
        toggled.arm_sanitizer(False)
        assert toggled.sanitizer is None
        _run(plain, source)
        _run(toggled, source)
        assert state_digest(plain) == state_digest(toggled)

    def test_armed_run_does_not_perturb_state(self):
        source = ORDERED
        plain = _staged_machine(INBOUND)
        armed = _staged_machine(INBOUND)
        armed.arm_sanitizer(True)
        _run(plain, source)
        _run(armed, source)
        assert state_digest(plain) == state_digest(armed)

    def test_arming_forces_interpretation(self):
        machine = Ncore(fastpath=True)
        machine.arm_sanitizer(True)
        assert machine.fastpath is False

    def test_constructor_kwarg_arms(self):
        machine = Ncore(sanitize=True)
        assert isinstance(machine.sanitizer, Sanitizer)


FIG6 = (
    "setaddr a0, 0\nsetaddr a3, 0\nsetaddr a5, 0\n"
    "loop 64 {\n"
    "  bypass n0, dram[a0] | broadcast64 n1, wtram[a3], a5, inc | "
    "mac.uint8 n0, n1\n"
    "}\n"
    "setaddr a6, 64\nrequant.uint8 relu\nstore a6\nhalt"
)


def _stage_rams(machine):
    machine.write_data_ram(0, b"\x07" * ROW)
    machine.write_weight_ram(0, b"\x03" * ROW)


class TestDeterminism:
    def test_deterministic_program_is_clean(self):
        assert check_determinism(FIG6, setup=_stage_rams).ok

    def test_stateful_setup_is_flagged(self):
        calls = {"n": 0}

        def leaky_setup(machine):
            calls["n"] += 1
            machine.write_data_ram(0, bytes([calls["n"]]) * ROW)
            machine.write_weight_ram(0, b"\x03" * ROW)

        report = check_determinism(FIG6, setup=leaky_setup)
        assert {d.rule for d in report} == {"san.divergence"}


class TestOracle:
    def test_fastpath_matches_interpreter(self):
        assert oracle_compare(FIG6, setup=_stage_rams).ok

    def test_tier_dependent_state_is_flagged(self):
        def tier_dependent_setup(machine):
            fill = b"\x01" if machine.fastpath else b"\x02"
            machine.write_data_ram(0, fill * ROW)
            machine.write_weight_ram(0, b"\x03" * ROW)

        report = oracle_compare(FIG6, setup=tier_dependent_setup)
        assert {d.rule for d in report} == {"san.oracle-mismatch"}


class TestCliSanitize:
    def test_run_sanitize_on_zoo_model(self, capsys):
        from repro.cli import main

        assert main(["run", "mobilenet_v1", "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer:" in out
        assert "0 error(s)" in out

    def test_run_sanitize_verifies_the_microkernel_before_running_it(
        self, capsys, monkeypatch
    ):
        from repro import cli

        # Point the MAC loop's data address past the 2048-row data RAM: the
        # program verifier rejects the kernel, so nothing executes it.
        regions = [
            (name, region.replace("setaddr a0, 0", "setaddr a0, 3000"))
            for name, region in cli._MICROKERNEL
        ]
        monkeypatch.setattr(cli, "_MICROKERNEL", tuple(regions))
        assert cli.main(["run", "mobilenet_v1", "--sanitize"]) == 1
        out = capsys.readouterr().out
        assert "isa.sram-bounds" in out
        assert "sanitizer:" not in out
