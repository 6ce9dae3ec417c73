"""Coarse energy and area models for design-space ranking.

The paper reports silicon facts for the shipped point (TSMC 16FFC, Ncore at
2.5 GHz sharing the SoC clock) but no per-structure power/area breakdown,
so these coefficients are *literature figures for a 16 nm-class process*,
with the fixed-overhead term calibrated so the shipped CHA point lands on
``CALIBRATED_NCORE_MM2``.  They are meant for **relative ranking of design
points**, not sign-off:

- ``MAC_ENERGY_PJ`` — an 8-bit multiply-accumulate in the 0.2-0.3 pJ range
  at 16 nm (scaled from the 45 nm figures in Horowitz, "Computing's energy
  problem", ISSCC 2014).
- ``SRAM_PJ_PER_BYTE`` — wide-row scratchpad access; big single-ported
  arrays with one full-row access per clock amortize decode across 4096
  lanes, landing well below small-cache per-byte cost.
- ``DRAM_PJ_PER_BYTE`` — DDR4 interface+core energy, the usual
  ~15 pJ/byte planning number.
- ``RING_PJ_PER_BYTE_HOP`` — on-die interconnect at ~0.05-0.1 pJ/bit-mm;
  one CHA ring hop moves a 64-byte beat a few mm.
- ``LEAKAGE_W_PER_MM2`` — static power density for a 16FFC logic+SRAM mix.
- Area: per-MAC (datapath lane incl. its NDU/rotator share), per SRAM
  byte (dense single-port macro), per ring stop (scaled linearly with the
  ring width — wider links mean wider buffers and muxes), plus the
  calibrated fixed block (sequencer, DMA engines, decompression, debug).

Every scoring function returns a breakdown dataclass so reports can show
*where* the energy/area went, and the caveats above travel with the code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ncore.config import NcoreConfig
from repro.soc.config import SocConfig

MAC_ENERGY_PJ = 0.25
SRAM_PJ_PER_BYTE = 0.08
DRAM_PJ_PER_BYTE = 15.0
RING_PJ_PER_BYTE_HOP = 0.06
RING_HOPS = 3  # memory controller to Ncore on the ring
LEAKAGE_W_PER_MM2 = 0.015

AREA_PER_MAC_UM2 = 850.0
AREA_PER_SRAM_BYTE_UM2 = 1.1
AREA_PER_RING_STOP_MM2 = 0.30

#: The Ncore block's published footprint; the fixed term below makes the
#: model reproduce it exactly at the shipped configuration.
CALIBRATED_NCORE_MM2 = 34.4

#: Sequencer + DMA engines + NDU decompression + debug fabric: everything
#: that does not scale with slices, rows or ring stops.  Solved from
#: ``CALIBRATED_NCORE_MM2`` at the default configs (16 slices, 2048 rows,
#: 12 ring stops).
_DEFAULT_SCALING_MM2 = (
    NcoreConfig().lanes * AREA_PER_MAC_UM2 / 1e6
    + NcoreConfig().total_ram_bytes * AREA_PER_SRAM_BYTE_UM2 / 1e6
    + AREA_PER_RING_STOP_MM2
)
AREA_FIXED_MM2 = CALIBRATED_NCORE_MM2 - _DEFAULT_SCALING_MM2


@dataclass(frozen=True)
class AreaBreakdown:
    """Ncore silicon area in mm^2, by structure."""

    mac_mm2: float
    sram_mm2: float
    ring_mm2: float
    fixed_mm2: float

    @property
    def total_mm2(self) -> float:
        return self.mac_mm2 + self.sram_mm2 + self.ring_mm2 + self.fixed_mm2


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one inference in millijoules, by structure."""

    mac_mj: float
    sram_mj: float
    dram_mj: float
    ring_mj: float
    leakage_mj: float

    @property
    def total_mj(self) -> float:
        return self.mac_mj + self.sram_mj + self.dram_mj + self.ring_mj + self.leakage_mj

    def power_w(self, seconds: float) -> float:
        """Average power over one inference of the given latency."""
        if seconds <= 0:
            return 0.0
        return self.total_mj / 1e3 / seconds


def area_model(config: NcoreConfig, soc: SocConfig) -> AreaBreakdown:
    """Ncore block area for one design point.

    Only Ncore's own ring stop is charged here — the x86 cores, L3 and
    memory controller exist with or without the coprocessor.
    """
    width_scale = soc.ring_width_bytes / SocConfig().ring_width_bytes
    return AreaBreakdown(
        mac_mm2=config.lanes * AREA_PER_MAC_UM2 / 1e6,
        sram_mm2=config.total_ram_bytes * AREA_PER_SRAM_BYTE_UM2 / 1e6,
        ring_mm2=AREA_PER_RING_STOP_MM2 * width_scale,
        fixed_mm2=AREA_FIXED_MM2,
    )


def energy_model(
    config: NcoreConfig,
    soc: SocConfig,
    *,
    macs: int,
    cycles: int,
    dram_bytes: int,
) -> EnergyBreakdown:
    """Energy of one inference at one design point.

    ``macs`` and ``cycles`` come from the compiled model's kernel
    schedules; ``dram_bytes`` is the streamed-weight + activation DMA
    traffic.  SRAM energy assumes each active cycle touches one full row
    in each of the two RAMs — an upper bound that is tight for the fused
    inner loop (one broadcast read + one accumulate/store per clock).
    DRAM traffic crosses :data:`RING_HOPS` ring stops, the
    memory-controller-to-Ncore distance.
    """
    seconds = cycles / config.clock_hz if config.clock_hz > 0 else 0.0
    area = area_model(config, soc)
    sram_bytes = 2 * cycles * config.row_bytes
    return EnergyBreakdown(
        mac_mj=macs * MAC_ENERGY_PJ / 1e9,
        sram_mj=sram_bytes * SRAM_PJ_PER_BYTE / 1e9,
        dram_mj=dram_bytes * DRAM_PJ_PER_BYTE / 1e9,
        ring_mj=dram_bytes * RING_HOPS * RING_PJ_PER_BYTE_HOP / 1e9,
        leakage_mj=area.total_mm2 * LEAKAGE_W_PER_MM2 * seconds * 1e3,
    )
