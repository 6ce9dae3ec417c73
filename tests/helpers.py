"""Assertion and construction helpers shared by several test modules.

Nothing in ``src/`` needs these, so they live with the tests: operand
shorthands for hand-built instructions, the bfloat16 storage encoding the
OUT-unit tests decode machine rows with, the real range a set of affine
quantization parameters represents, an analyzer report's findings of one
rule, the shipped CHA weight-DMA rate, the Fig. 6 machine and the NKL
program catalog's kinds with the emitters they reach.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.analyze import AnalysisReport, Diagnostic
from repro.dtypes import QuantParams, dtype_info, to_bfloat16
from repro.isa import Instruction
from repro.isa.operands import Operand, OperandKind
from repro.ncore import Ncore
from repro.ncore.config import CHA_NCORE
from repro.ncore.out import lane_requantizer
from repro.nkl import catalog, programs
from repro.soc import CHA_SOC

#: Weight-DMA bytes per Ncore cycle on the shipped CHA point: 102.4 GB/s
#: at 2.5 GHz, the rate cycle estimates of a default-config compile use.
CHA_DMA_BYTES_PER_CYCLE = CHA_SOC.ncore_dma_bandwidth / CHA_NCORE.clock_hz


def requantize_lanes(acc: np.ndarray, multiplier: np.ndarray, shift: np.ndarray,
                     offset: np.ndarray, dtype) -> np.ndarray:
    """One OUT-unit requantization with freshly folded lane registers."""
    return lane_requantizer(multiplier, shift, offset, dtype)(acc)


def data_ram(addr_reg: int, increment: bool = False) -> Operand:
    """A data-RAM operand addressed by ``addr[addr_reg]``."""
    return Operand(OperandKind.DATA_RAM, addr_reg, increment)


def weight_ram(addr_reg: int, increment: bool = False) -> Operand:
    """A weight-RAM operand addressed by ``addr[addr_reg]``."""
    return Operand(OperandKind.WEIGHT_RAM, addr_reg, increment)


def ndu_reg(index: int) -> Operand:
    """NDU output register ``n<index>``."""
    return Operand(OperandKind.NDU_REG, index)


def immediate(value: int) -> Operand:
    """An immediate byte value broadcast across the row."""
    return Operand(OperandKind.IMMEDIATE, value)


def bf16_to_bits(x: np.ndarray | float) -> np.ndarray:
    """The 16-bit storage encoding of bfloat16 values (rounded first)."""
    rounded = to_bfloat16(x)
    bits = np.ascontiguousarray(rounded).reshape(-1).view(np.uint32)
    return (bits >> np.uint32(16)).astype(np.uint16).reshape(np.shape(rounded))


def bf16_from_bits(bits: np.ndarray) -> np.ndarray:
    """Expand 16-bit bfloat16 storage encodings into float32 values."""
    raw = np.asarray(bits, dtype=np.uint16)
    b = raw.reshape(-1).astype(np.uint32) << np.uint32(16)
    return b.view(np.float32).reshape(raw.shape)


def quant_range(qp: QuantParams) -> tuple[float, float]:
    """The real-valued range representable under ``qp``."""
    info = dtype_info(qp.dtype)
    return (qp.scale * (info.min_value - qp.zero_point),
            qp.scale * (info.max_value - qp.zero_point))


def by_rule(report: AnalysisReport, rule_id: str) -> list[Diagnostic]:
    """The findings of one rule, in report order."""
    return [d for d in report if d.rule == rule_id]


def fig6_machine(
    trips: int = catalog.FIG6_TRIPS, *, fastpath: bool
) -> tuple[Ncore, list[Instruction]]:
    """A machine with constant RAM contents (data 3, weights 2) plus the
    catalog's Fig. 6 program of ``trips`` trips."""
    machine = Ncore(fastpath=fastpath)
    row_bytes = machine.config.row_bytes
    machine.write_data_ram(0, bytes(np.full(row_bytes, 3, np.uint8)))
    machine.write_weight_ram(0, bytes(np.full(row_bytes, 2, np.uint8)))
    return machine, catalog.fig6_program(trips)


@functools.cache
def catalog_kinds() -> tuple[catalog.Kind, ...]:
    """The catalog's ten kinds at seed 1."""
    return tuple(catalog.build_kinds(np.random.default_rng(1)))


@functools.cache
def catalog_emitters() -> dict[str, catalog.Kind]:
    """Each ``emit_*`` of ``repro.nkl.programs`` that a catalog kind
    reaches -> the first such kind, found by emitting every kind with the
    module's emitters wrapped."""
    reached: dict[str, catalog.Kind] = {}
    originals = {n: getattr(programs, n) for n in dir(programs) if n.startswith("emit_")}

    def spy(name, emit):
        def call(*args, **kwargs):
            reached.setdefault(name, kind)
            return emit(*args, **kwargs)
        return call

    try:
        for name, emit in originals.items():
            setattr(programs, name, spy(name, emit))
        for kind in catalog_kinds():
            kind.emit(Ncore(fastpath=False))
    finally:
        for name, emit in originals.items():
            setattr(programs, name, emit)
    return reached
