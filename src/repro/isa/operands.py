"""Operand descriptors for Ncore instructions.

Section IV-D.3: NDU operations have nine possible input sources — the data
RAM, the weight RAM, instruction immediate data, the NDU's four output
registers, and the OUT unit's high / low byte output registers.  The NPU
additionally reads the latched data row (``d_last_latched`` in Fig. 6) and
its own accumulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OperandKind(enum.Enum):
    """Where an operand's 4096-byte row comes from (or goes to)."""

    DATA_RAM = "dram"       # data RAM row, addressed by an address register
    WEIGHT_RAM = "wtram"    # weight RAM row, addressed by an address register
    IMMEDIATE = "imm"       # instruction immediate, broadcast across the row
    NDU_REG = "n"           # one of the four NDU output registers
    OUT_LOW = "out_lo"      # OUT unit low-byte output register
    OUT_HIGH = "out_hi"     # OUT unit high-byte output register
    DLAST = "dlast"         # last data row latched into the execution pipe
    ACC = "acc"             # the NPU's 32-bit accumulators (OUT unit source)
    ZERO = "zero"           # all-zero row


# Kinds that address a RAM row through an address register.
RAM_KINDS = frozenset({OperandKind.DATA_RAM, OperandKind.WEIGHT_RAM})

# Architectural register-file sizes.
NUM_ADDR_REGS = 8      # addr[0..7], row/byte address registers
NUM_NDU_REGS = 4       # n0..n3, NDU output registers (section IV-D.3)
NUM_PRED_REGS = 8      # predication registers (section IV-D.4)
NUM_LOOP_COUNTERS = 4  # hardware loop counter stack depth
NUM_DMA_DESCRIPTORS = 8  # memory-mapped DMA descriptor slots

# Exclusive upper bound of ``Operand.index`` per kind: a register-file size,
# the immediate field's range, or 1 for the kinds that take no index.
INDEX_LIMITS = {
    OperandKind.DATA_RAM: NUM_ADDR_REGS,
    OperandKind.WEIGHT_RAM: NUM_ADDR_REGS,
    OperandKind.NDU_REG: NUM_NDU_REGS,
    OperandKind.IMMEDIATE: 64,
    OperandKind.OUT_LOW: 1,
    OperandKind.OUT_HIGH: 1,
    OperandKind.DLAST: 1,
    OperandKind.ACC: 1,
    OperandKind.ZERO: 1,
}


@dataclass(frozen=True)
class Operand:
    """One operand of a unit operation.

    ``index`` selects the register: for RAM kinds it is the *address
    register* whose value supplies the row number; for NDU_REG it is the NDU
    register number; for IMMEDIATE it is the immediate byte value (0..63,
    the field width the encoding affords).  ``increment`` requests a
    post-increment of the address register, the hardware feature that lets a
    whole convolution inner loop live in one instruction (Fig. 6).
    """

    kind: OperandKind
    index: int = 0
    increment: bool = False

    def __post_init__(self) -> None:
        limit = INDEX_LIMITS[self.kind]
        if not 0 <= self.index < limit:
            raise ValueError(
                f"operand index {self.index} out of range for {self.kind.name} "
                f"(limit {limit})"
            )
        if self.increment and self.kind not in RAM_KINDS:
            raise ValueError("post-increment only applies to RAM operands")

    def __str__(self) -> str:
        if self.kind in RAM_KINDS:
            suffix = "++" if self.increment else ""
            return f"{self.kind.value}[a{self.index}{suffix}]"
        if self.kind is OperandKind.NDU_REG:
            return f"n{self.index}"
        if self.kind is OperandKind.IMMEDIATE:
            return f"#{self.index}"
        return self.kind.value
