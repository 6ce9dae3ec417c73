"""Ncore SRAM models: the data/weight row memories and the instruction RAM.

Section IV-C: reads and writes take one clock for an entire 4096-byte row;
both RAMs can be read each clock but only one written per clock; bus-side
accesses are row-buffered so they do not interfere with execution; the RAMs
implement 64-bit ECC that corrects single-bit errors and detects (but does
not correct) double-bit errors.  The instruction RAM is double buffered and
augmented with a 4 KB ROM.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.isa import Instruction


class EccError(Exception):
    """An uncorrectable (2-bit) ECC error was detected on a RAM read."""

    def __init__(self, name: str, row: int) -> None:
        super().__init__(f"uncorrectable ECC error in {name} row {row}")
        self.row = row


class RowMemory:
    """A row-addressed SRAM bank (the data RAM or the weight RAM).

    The backing store is a (rows, row_bytes) uint8 array.  ECC is modelled
    at 64-bit granularity: :meth:`inject_bit_error` flips stored bits the
    way a particle strike would; on the next read of that row, single-bit
    flips within a 64-bit word are corrected (and counted) while double-bit
    flips raise :class:`EccError`, matching the correct-1/detect-2
    behaviour described in section IV-C.2.
    """

    ECC_WORD_BYTES = 8

    def __init__(self, rows: int, row_bytes: int, name: str = "ram") -> None:
        self.rows = rows
        self.row_bytes = row_bytes
        self.name = name
        # A private anonymous mapping, not np.zeros: glibc's dynamic mmap
        # threshold can move a calloc'd image onto the brk heap, where each
        # new machine memsets and pins it whether or not a row is touched.
        # (MAP_PRIVATE / MAP_ANONYMOUS are POSIX-only, as is the simulator.)
        self.data = np.frombuffer(
            mmap.mmap(
                -1, rows * row_bytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
            ),
            dtype=np.uint8,
        ).reshape(rows, row_bytes)
        # Map row -> {ecc word index -> set of flipped bit positions}.
        self._injected: dict[int, dict[int, set[int]]] = {}
        self.corrected_errors = 0
        self.reads = 0
        self.writes = 0

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise IndexError(f"{self.name} row {row} out of range (0..{self.rows - 1})")

    def read_row(self, row: int) -> np.ndarray:
        """Read one full row (a copy). One clock cycle in hardware."""
        self._check_row(row)
        self.reads += 1
        flips = self._injected.pop(row, None)
        if flips is not None:
            for word, bits in flips.items():
                if len(bits) >= 2:
                    self._injected[row] = flips  # leave state for inspection
                    raise EccError(self.name, row)
                # Single-bit error: correct it in the backing store.
                for bit in bits:
                    byte = word * self.ECC_WORD_BYTES + bit // 8
                    self.data[row, byte] ^= np.uint8(1 << (bit % 8))
                    self.corrected_errors += 1
        return self.data[row].copy()

    def write_row(self, row: int, values: np.ndarray) -> None:
        """Write one full row. One clock cycle in hardware."""
        self._check_row(row)
        if values.shape != (self.row_bytes,):
            raise ValueError(
                f"row writes must be exactly {self.row_bytes} bytes, got {values.shape}"
            )
        self.writes += 1
        self.data[row] = values.astype(np.uint8, copy=False)
        self._injected.pop(row, None)  # fresh write re-encodes the ECC

    def read_bytes(self, offset: int, length: int) -> bytes:
        """Bus-side (row-buffered) byte read, used by x86/DMA accesses."""
        if offset < 0 or offset + length > self.rows * self.row_bytes:
            raise IndexError(f"{self.name} byte range out of bounds")
        return self.data.reshape(-1)[offset : offset + length].tobytes()

    def write_bytes(self, offset: int, payload: bytes) -> None:
        """Bus-side (row-buffered) byte write, used by x86/DMA accesses."""
        if offset < 0 or offset + len(payload) > self.rows * self.row_bytes:
            raise IndexError(f"{self.name} byte range out of bounds")
        flat = self.data.reshape(-1)
        flat[offset : offset + len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        first_row = offset // self.row_bytes
        last_row = (offset + len(payload) - 1) // self.row_bytes
        for row in range(first_row, last_row + 1):
            self._injected.pop(row, None)

    def write_tiled(self, first_row: int, tiles: np.ndarray) -> None:
        """Bus-side write of the rows from ``first_row``, row i being
        ``tiles[i]`` repeated across it: one broadcast assignment."""
        count, width = tiles.shape
        if first_row < 0 or first_row + count > self.rows:
            raise IndexError(f"{self.name} row range out of bounds")
        self.data[first_row : first_row + count].reshape(count, -1, width)[...] = tiles[:, None]
        for row in range(first_row, first_row + count) if self._injected else ():
            self._injected.pop(row, None)

    def inject_bit_error(self, row: int, byte: int, bit: int) -> None:
        """Flip one stored bit (fault injection for ECC tests)."""
        self._check_row(row)
        if not 0 <= byte < self.row_bytes or not 0 <= bit < 8:
            raise ValueError("bit position out of range")
        self.data[row, byte] ^= np.uint8(1 << bit)
        word = byte // self.ECC_WORD_BYTES
        bitpos = (byte % self.ECC_WORD_BYTES) * 8 + bit
        self._injected.setdefault(row, {}).setdefault(word, set()).add(bitpos)


class InstructionRam:
    """The 8 KB double-buffered instruction RAM plus the 4 KB ROM.

    Each bank holds ``bank_instructions`` decoded instructions.  Any x86
    core can fill the *inactive* bank while Ncore executes from the active
    one (section IV-C.1), so instruction loading never stalls execution;
    writing the active bank while the machine is running is an error.
    """

    def __init__(self, bank_instructions: int, rom_instructions: int) -> None:
        self.bank_instructions = bank_instructions
        self.rom_instructions = rom_instructions
        self.banks: list[list[Instruction]] = [[], []]
        self.rom: list[Instruction] = []
        self.active_bank = 0

    def load_bank(self, bank: int, program: list[Instruction], running: bool = False) -> None:
        """Fill one bank with a program (decoded instructions)."""
        if bank not in (0, 1):
            raise ValueError("instruction RAM has two banks: 0 and 1")
        if running and bank == self.active_bank:
            raise RuntimeError(
                "cannot load the active instruction RAM bank while Ncore executes; "
                "load the inactive bank and swap"
            )
        if len(program) > self.bank_instructions:
            raise ValueError(
                f"program of {len(program)} instructions exceeds bank capacity "
                f"of {self.bank_instructions}"
            )
        self.banks[bank] = list(program)

    def load_rom(self, program: list[Instruction]) -> None:
        """Install ROM contents (self-test and common routines)."""
        if len(program) > self.rom_instructions:
            raise ValueError("program exceeds ROM capacity")
        self.rom = list(program)

    def swap(self) -> None:
        """Switch execution to the other bank (double-buffer flip)."""
        self.active_bank ^= 1

    def fetch(self, pc: int) -> Instruction:
        """Fetch from the active bank; ROM is mapped after the bank."""
        bank = self.banks[self.active_bank]
        if 0 <= pc < len(bank):
            return bank[pc]
        rom_pc = pc - self.bank_instructions
        if 0 <= rom_pc < len(self.rom):
            return self.rom[rom_pc]
        raise IndexError(f"instruction fetch from unmapped pc {pc}")
