"""The CHA SoC substrate: ring bus, memory system and x86 cores.

CHA (section III) consists of eight 64-bit x86 cores on Centaur's CNS
microarchitecture plus Ncore, joined by a 512-bit bidirectional ring bus
with one-cycle hops; a four-channel DDR4-3200 memory controller (102 GB/s);
and a 16 MB shared L3.  Everything runs in a single 2.5 GHz frequency
domain.
"""

from repro.soc.cache import L3Cache
from repro.soc.cha import ChaSoc
from repro.soc.config import CHA_SOC, SocConfig
from repro.soc.memory import DramController
from repro.soc.multisocket import MultiSocketSystem
from repro.soc.ring import RingBus
from repro.soc.x86 import (
    CNS,
    HASWELL,
    SKYLAKE_SERVER,
    MicroarchSpec,
    X86Core,
)

__all__ = [
    "CHA_SOC",
    "CNS",
    "ChaSoc",
    "DramController",
    "HASWELL",
    "L3Cache",
    "MultiSocketSystem",
    "MicroarchSpec",
    "RingBus",
    "SKYLAKE_SERVER",
    "SocConfig",
    "X86Core",
]
