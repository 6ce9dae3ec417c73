"""Tests for the row memories (with ECC) and the instruction RAM."""

import copy
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.isa import Instruction, SeqOp, SeqOpcode, assemble
from repro.ncore import EccError, InstructionRam, RowMemory


class TestRowMemory:
    def test_read_write_round_trip(self):
        ram = RowMemory(rows=8, row_bytes=64)
        row = np.arange(64, dtype=np.uint8)
        ram.write_row(3, row)
        np.testing.assert_array_equal(ram.read_row(3), row)

    def test_read_returns_copy(self):
        ram = RowMemory(rows=2, row_bytes=16)
        out = ram.read_row(0)
        out[:] = 99
        assert ram.read_row(0)[0] == 0

    def test_row_bounds_checked(self):
        ram = RowMemory(rows=4, row_bytes=16)
        with pytest.raises(IndexError):
            ram.read_row(4)
        with pytest.raises(IndexError):
            ram.read_row(-1)

    def test_wrong_row_size_rejected(self):
        ram = RowMemory(rows=4, row_bytes=16)
        with pytest.raises(ValueError):
            ram.write_row(0, np.zeros(8, dtype=np.uint8))

    def test_byte_access_spans_rows(self):
        ram = RowMemory(rows=4, row_bytes=16)
        ram.write_bytes(12, bytes(range(8)))  # crosses rows 0 and 1
        assert ram.read_bytes(12, 8) == bytes(range(8))
        assert ram.read_row(0)[12] == 0
        assert ram.read_row(1)[3] == 7

    def test_byte_access_bounds(self):
        ram = RowMemory(rows=2, row_bytes=16)
        with pytest.raises(IndexError):
            ram.read_bytes(30, 4)

    def test_access_counters(self):
        ram = RowMemory(rows=4, row_bytes=16)
        ram.write_row(0, np.zeros(16, dtype=np.uint8))
        ram.read_row(0)
        ram.read_row(1)
        assert ram.writes == 1
        assert ram.reads == 2


class TestEcc:
    """Section IV-C.2: 64-bit ECC corrects 1-bit, detects 2-bit errors."""

    def test_single_bit_error_corrected(self):
        ram = RowMemory(rows=4, row_bytes=64)
        original = np.arange(64, dtype=np.uint8)
        ram.write_row(0, original)
        ram.inject_bit_error(0, byte=5, bit=3)
        out = ram.read_row(0)
        np.testing.assert_array_equal(out, original)
        assert ram.corrected_errors == 1

    def test_double_bit_error_in_same_word_detected(self):
        ram = RowMemory(rows=4, row_bytes=64)
        ram.write_row(0, np.zeros(64, dtype=np.uint8))
        # Two flips within the same 64-bit ECC word.
        ram.inject_bit_error(0, byte=8, bit=0)
        ram.inject_bit_error(0, byte=9, bit=1)
        with pytest.raises(EccError):
            ram.read_row(0)

    def test_two_single_bit_errors_in_different_words_corrected(self):
        ram = RowMemory(rows=4, row_bytes=64)
        original = np.arange(64, dtype=np.uint8)
        ram.write_row(0, original)
        ram.inject_bit_error(0, byte=0, bit=0)   # word 0
        ram.inject_bit_error(0, byte=8, bit=0)   # word 1
        np.testing.assert_array_equal(ram.read_row(0), original)
        assert ram.corrected_errors == 2

    def test_rewrite_clears_injected_errors(self):
        ram = RowMemory(rows=4, row_bytes=64)
        ram.inject_bit_error(0, byte=0, bit=0)
        ram.inject_bit_error(0, byte=0, bit=1)
        ram.write_row(0, np.full(64, 7, dtype=np.uint8))
        out = ram.read_row(0)  # no EccError: the write re-encoded ECC
        assert out[0] == 7


class TestBackingStore:
    """The RAM image is a private anonymous mapping, not malloc memory."""

    def test_data_is_a_zeroed_writeable_row_matrix(self):
        ram = RowMemory(rows=8, row_bytes=64)
        assert ram.data.shape == (8, 64) and ram.data.dtype == np.uint8
        assert ram.data.flags.c_contiguous and ram.data.flags.writeable
        assert not ram.data.any()
        ram.data[3, 5] = 9
        assert ram.read_row(3)[5] == 9

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda ram: pickle.loads(pickle.dumps(ram))],
        ids=["deepcopy", "pickle"],
    )
    def test_copies_carry_rows_and_pending_ecc_flips(self, clone):
        ram = RowMemory(rows=4, row_bytes=64)
        ram.write_row(1, np.arange(64, dtype=np.uint8))
        ram.inject_bit_error(row=1, byte=2, bit=0)
        twin = clone(ram)
        ram.write_row(1, np.zeros(64, dtype=np.uint8))  # the copy is independent
        assert twin.data[1, 2] == 3  # the flip is stored ...
        np.testing.assert_array_equal(  # ... and still corrected on read
            twin.read_row(1), np.arange(64, dtype=np.uint8)
        )
        assert twin.corrected_errors == 1

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_a_new_machine_pins_no_memory_whatever_the_heap_history(self):
        # Freeing a 20 MB array raises glibc's mmap threshold past the 8 MB
        # RAM images; calloc'd images then land on the brk heap, where every
        # later Ncore() memsets and pins 16 MB (+15.7 MB here with np.zeros).
        # A subprocess, so that this suite's own heap history plays no part.
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.ncore import Ncore

            def rss_kb():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmRSS:"):
                            return int(line.split()[1])

            row_bytes = Ncore().config.row_bytes
            big = np.ones(20 << 20, np.uint8)
            del big
            before = rss_kb()
            for _ in range(3):
                m = Ncore()
                m.write_data_ram(0, b"\\x01" * row_bytes)
                del m
            m = Ncore()
            print(rss_kb() - before)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 4 * 1024


class TestInstructionRam:
    def _program(self, n):
        return [Instruction(seq=SeqOp(SeqOpcode.NOP)) for _ in range(n)]

    def test_load_and_fetch(self):
        iram = InstructionRam(bank_instructions=256, rom_instructions=256)
        program = assemble("setaddr a0, 1\nhalt")
        iram.load_bank(0, program)
        assert iram.fetch(0) == program[0]
        assert iram.fetch(1) == program[1]

    def test_capacity_enforced(self):
        iram = InstructionRam(bank_instructions=4, rom_instructions=4)
        with pytest.raises(ValueError):
            iram.load_bank(0, self._program(5))

    def test_double_buffering(self):
        iram = InstructionRam(256, 256)
        first = assemble("halt")
        second = assemble("nop\nhalt")
        iram.load_bank(0, first)
        iram.load_bank(1, second)
        assert iram.fetch(0) == first[0]
        iram.swap()
        assert iram.fetch(0) == second[0]

    def test_loading_active_bank_while_running_rejected(self):
        # Loading must target the inactive bank during execution
        # (section IV-C.1).
        iram = InstructionRam(256, 256)
        with pytest.raises(RuntimeError):
            iram.load_bank(0, self._program(1), running=True)
        iram.load_bank(1, self._program(1), running=True)  # inactive: fine

    def test_rom_mapped_after_bank(self):
        iram = InstructionRam(bank_instructions=4, rom_instructions=4)
        rom = assemble("event 1\nhalt")
        iram.load_rom(rom)
        assert iram.fetch(4) == rom[0]  # rom starts at bank capacity
        assert iram.fetch(5) == rom[1]

    def test_unmapped_fetch_rejected(self):
        iram = InstructionRam(4, 4)
        with pytest.raises(IndexError):
            iram.fetch(0)
