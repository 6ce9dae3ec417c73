"""The Ncore 128-bit VLIW-like instruction word.

One instruction can direct all three execution-pipeline units at once —
the NDU (neural data unit), NPU (neural processing unit) and OUT (output
unit) — plus the instruction sequencer, and carries a hardware repeat count
so that a whole convolution inner loop fits in a single instruction
executing one iteration per clock (section IV-D, Fig. 6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.dtypes import NcoreDType, dtype_info
from repro.isa.operands import (
    NUM_ADDR_REGS,
    NUM_DMA_DESCRIPTORS,
    NUM_NDU_REGS,
    NUM_PRED_REGS,
    RAM_KINDS,
    Operand,
    OperandKind,
)

# Maximum NDU micro-ops per instruction: "up to three (typically two) of
# these operations in parallel" (section IV-D.3).
MAX_NDU_OPS = 3

# Hardware repeat counts are held as (repeat - 1) in the instruction
# word's 11-bit field (repro.isa.encoding).
MAX_REPEAT = 1 << 11

# NDU rotation moves at most 64 bytes per clock (section IV-D.3).
MAX_ROTATE_PER_CLOCK = 64


class NDUOpcode(enum.Enum):
    """NDU operations (section IV-D.3)."""

    BYPASS = "bypass"            # copy a source row to an NDU register
    ROTATE = "rotate"            # rotate a row left/right, <=64 B per clock
    BROADCAST64 = "broadcast64"  # broadcast one byte across each 64-B group
    EXPAND = "expand"            # decompress a zero-compressed weight block
    MERGE = "merge"              # masked merge of input with output


class NPUOpcode(enum.Enum):
    """NPU operations (section IV-D.4)."""

    NOP = "nop"
    MAC = "mac"      # acc (+)= data * weight
    ADD = "add"      # acc (+)= data + weight
    SUB = "sub"      # acc (+)= data - weight
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    XOR = "xor"
    CMPGT = "cmpgt"  # set predication register from data > weight


class OutOpcode(enum.Enum):
    """OUT unit operations (section IV-D.5)."""

    NOP = "nop"
    REQUANT = "requant"    # requantize acc -> 8/16-bit, apply activation
    STORE = "store"        # store an OUT register row to data RAM
    STORE_ACC = "storeacc"  # spill raw 32-bit accumulators (4 rows)


class Activation(enum.Enum):
    """Activations applied by the OUT unit (section IV-D.5)."""

    NONE = "none"
    RELU = "relu"
    RELU6 = "relu6"
    TANH = "tanh"
    SIGMOID = "sigmoid"


class SeqOpcode(enum.Enum):
    """Instruction-sequencer operations (section IV-D.1)."""

    NOP = "nop"
    HALT = "halt"
    LOOP_BEGIN = "loop"     # push a hardware loop counter, arg = trip count
    LOOP_END = "endloop"    # decrement counter, branch back if nonzero
    SET_ADDR = "setaddr"    # load an address register with an immediate row
    ADD_ADDR = "addaddr"    # add a signed immediate to an address register
    DMA_START = "dmastart"  # kick a DMA descriptor (arg = descriptor index)
    DMA_WAIT = "dmawait"    # stall until DMA engine group is idle
    EVENT = "event"         # write a tag into the 1024-entry event log
    BREAK = "break"         # breakpoint (used by n-step debugging)


class RotateDirection(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class NDUOp:
    """One NDU micro-op.

    ``dst`` is the NDU output register written (0..3).  ``amount`` is the
    rotate distance in bytes (<=64 per clock; larger logical rotations are
    composed via the repeat field), or the group-index register for
    BROADCAST64 (the ``addr[5]`` role in Fig. 6's
    ``broadcast64(wtram[addr[3]], addr[5], increment)``).
    """

    opcode: NDUOpcode
    dst: int
    src: Operand
    src2: Operand | None = None  # merge mask / expand metadata source
    amount: int = 0
    direction: RotateDirection = RotateDirection.LEFT
    index_reg: int = 0           # byte-index address register (broadcast64)
    index_increment: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.dst < NUM_NDU_REGS:
            raise ValueError(f"NDU dst register {self.dst} out of range")
        if self.opcode is NDUOpcode.ROTATE and not 0 <= self.amount <= MAX_ROTATE_PER_CLOCK:
            raise ValueError(
                f"rotate amount {self.amount} exceeds {MAX_ROTATE_PER_CLOCK} B/clock"
            )
        if not 0 <= self.index_reg < NUM_ADDR_REGS:
            raise ValueError(f"index register {self.index_reg} out of range")
        if self.opcode is NDUOpcode.MERGE and self.src2 is None:
            raise ValueError("merge requires a mask source (src2)")


@dataclass(frozen=True)
class NPUOp:
    """One NPU operation across all 4096 byte lanes.

    ``data_shift`` is the small pre-shift applied to the data operand (the
    ``>> 1`` in Fig. 6).  ``zero_offset`` enables the unsigned-8-bit to
    signed-9-bit conversion by subtracting the configured zero offsets.
    ``from_neighbor`` takes the data input from the adjacent slice's NPU
    with wraparound — the full-width "slide" used by the convolution
    algorithms (section IV-D.4).
    """

    opcode: NPUOpcode
    data: Operand
    weight: Operand
    accumulate: bool = True
    data_shift: int = 0
    zero_offset: bool = False
    from_neighbor: bool = False
    predicate: int | None = None
    dtype: NcoreDType = NcoreDType.INT8

    def __post_init__(self) -> None:
        if not 0 <= self.data_shift <= 3:
            raise ValueError("data shift is a 2-bit field (0..3)")
        if self.predicate is not None and not 0 <= self.predicate < NUM_PRED_REGS:
            raise ValueError(f"predicate register {self.predicate} out of range")


@dataclass(frozen=True)
class OutOp:
    """One OUT-unit operation.

    REQUANT consumes the 32-bit accumulators and produces narrow results in
    the OUT low/high byte registers using the requantization configuration
    registers (multiplier / shift / offset), then applies ``activation``.
    STORE writes an OUT register row to the data RAM row addressed by
    ``addr[dst_addr_reg]``.
    """

    opcode: OutOpcode
    activation: Activation = Activation.NONE
    dst_addr_reg: int = 0
    dst_increment: bool = False
    source_high: bool = False  # STORE the high-byte register (16-bit types)
    dtype: NcoreDType = NcoreDType.INT8

    def __post_init__(self) -> None:
        if not 0 <= self.dst_addr_reg < NUM_ADDR_REGS:
            raise ValueError(f"store address register {self.dst_addr_reg} out of range")


@dataclass(frozen=True)
class SeqOp:
    """One sequencer operation; ``arg``/``arg2`` meaning depends on opcode.

    - LOOP_BEGIN: arg = trip count.
    - SET_ADDR / ADD_ADDR: arg = address register, arg2 = immediate value.
    - DMA_START / DMA_WAIT: arg = descriptor index / engine mask.
    - EVENT: arg = event tag.
    """

    opcode: SeqOpcode
    arg: int = 0
    arg2: int = 0

    #: DMA_WAIT engine group -> the DMA engines it waits on.
    DMA_WAIT_GROUPS = {
        0: ("dma_read", "dma_write"),
        1: ("dma_read",),
        2: ("dma_write",),
        3: ("dma_read", "dma_write"),
    }

    def __post_init__(self) -> None:
        if (self.opcode in (SeqOpcode.SET_ADDR, SeqOpcode.ADD_ADDR)
                and not 0 <= self.arg < NUM_ADDR_REGS):
            raise ValueError(f"address register {self.arg} out of range")
        if self.opcode is SeqOpcode.DMA_START and not 0 <= self.arg < NUM_DMA_DESCRIPTORS:
            raise ValueError(f"DMA descriptor {self.arg} out of range")
        if self.opcode is SeqOpcode.DMA_WAIT and self.arg not in self.DMA_WAIT_GROUPS:
            raise ValueError(
                f"DMA_WAIT engine group {self.arg} out of range (0..3); "
                "an unknown group would wait on no engine at all"
            )
        if self.opcode is SeqOpcode.LOOP_BEGIN and self.arg2 < 1:
            raise ValueError("loop trip count must be >= 1")


@dataclass(frozen=True)
class DMAOp:
    """A DMA descriptor (not an instruction field).

    Descriptors live in memory-mapped registers configured by the runtime;
    the DMA_START sequencer op references them by index.  ``dram_addr`` is
    an offset inside the driver-configured DMA window (section IV-C), and
    ``rows`` counts RAM rows (4096 bytes each at the shipped CHA point;
    the machine config sets the actual width).
    """

    write_to_dram: bool
    target_weight_ram: bool
    ram_row: int
    rows: int
    dram_addr: int
    through_l3: bool = False

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError("DMA transfer must move at least one row")
        if self.ram_row < 0 or self.dram_addr < 0:
            raise ValueError("DMA addresses must be non-negative")

    @property
    def num_bytes(self) -> int:
        return self.rows * 4096  # row-bytes-ok: isa/ cannot import ncore.config


class RowAccess(NamedTuple):
    """One RAM operand of one issue: ``rows`` consecutive rows starting at
    ``addr[reg]``, which the issue then advances by ``step``."""

    unit: str   # "ndu" | "npu" | "out"
    ram: str    # "data" | "weight"
    reg: int
    rows: int
    step: int
    write: bool


# Rows one OUT store writes: STORE_ACC spills the 32-bit accumulators as
# four byte planes (section IV-D.5).
_STORE_ROWS = {OutOpcode.STORE: 1, OutOpcode.STORE_ACC: 4}


def _row_read(unit: str, operand: Operand, rows: int = 1) -> RowAccess:
    ram = "data" if operand.kind is OperandKind.DATA_RAM else "weight"
    return RowAccess(
        unit, ram, operand.index, rows, rows if operand.increment else 0, False
    )


@dataclass(frozen=True)
class Instruction:
    """One 128-bit Ncore instruction.

    All unit fields issue in the same clock; ``repeat`` re-executes the
    whole instruction that many times under a hardware counter, which is
    how Fig. 6's three-statement inner loop runs one iteration per cycle.
    """

    ndu_ops: tuple[NDUOp, ...] = ()
    npu: NPUOp | None = None
    out: OutOp | None = None
    seq: SeqOp = field(default_factory=lambda: SeqOp(SeqOpcode.NOP))
    repeat: int = 1

    def __post_init__(self) -> None:
        if len(self.ndu_ops) > MAX_NDU_OPS:
            raise ValueError(
                f"at most {MAX_NDU_OPS} NDU ops per instruction, got {len(self.ndu_ops)}"
            )
        if not 1 <= self.repeat <= MAX_REPEAT:
            raise ValueError(f"repeat count {self.repeat} outside 1..{MAX_REPEAT}")
        dsts = [op.dst for op in self.ndu_ops]
        if len(dsts) != len(set(dsts)):
            raise ValueError("parallel NDU ops must write distinct registers")

    @property
    def is_halt(self) -> bool:
        return self.seq.opcode is SeqOpcode.HALT

    def row_accesses(self) -> tuple[RowAccess, ...]:
        """The RAM rows one issue touches, in pipeline order.

        The one statement of what the machine reads and writes: every NDU
        op its ``src`` (MERGE also its mask), a non-NOP NPU op its RAM
        operands — a 16-bit element spans two consecutive rows (section
        IV-C.2) — then the OUT store.  Computed from the fields, so forged
        and decoded instructions answer too.
        """
        accesses: list[RowAccess] = []
        for op in self.ndu_ops:
            sources = (op.src, op.src2) if op.opcode is NDUOpcode.MERGE else (op.src,)
            accesses += [
                _row_read("ndu", source)
                for source in sources
                if source is not None and source.kind in RAM_KINDS
            ]
        npu = self.npu
        if npu is not None and npu.opcode is not NPUOpcode.NOP:
            rows = dtype_info(npu.dtype).bytes_per_element
            accesses += [
                _row_read("npu", source, rows)
                for source in (npu.data, npu.weight)
                if source.kind in RAM_KINDS
            ]
        out = self.out
        if out is not None and out.opcode in _STORE_ROWS:
            rows = _STORE_ROWS[out.opcode]
            step = rows if out.dst_increment else 0
            accesses.append(RowAccess("out", "data", out.dst_addr_reg, rows, step, True))
        return tuple(accesses)

    def addr_steps(self, accesses: tuple[RowAccess, ...] | None = None) -> dict[int, int]:
        """Address register -> its total post-increment per issue.

        Row steps of :meth:`row_accesses` (``accesses``, when the caller
        has them) plus the byte-index register of a ``broadcast64 ...
        inc``; registers one issue leaves alone are absent.
        """
        steps: dict[int, int] = {}
        for access in self.row_accesses() if accesses is None else accesses:
            if access.step:
                steps[access.reg] = steps.get(access.reg, 0) + access.step
        for op in self.ndu_ops:
            if op.opcode is NDUOpcode.BROADCAST64 and op.index_increment:
                steps[op.index_reg] = steps.get(op.index_reg, 0) + 1
        return steps

    def issue_cycles(self) -> int:
        """Clock cycles for one issue of this instruction.

        8-bit NPU operations execute in one clock, bfloat16 in three and
        int16 in four (section IV-D.4); instructions without an NPU op take
        one clock.
        """
        if self.npu is None or self.npu.opcode is NPUOpcode.NOP:
            return 1
        return dtype_info(self.npu.dtype).npu_cycles

    def total_cycles(self) -> int:
        """Cycles for all hardware-repeated issues of this instruction."""
        return self.issue_cycles() * self.repeat
