"""The CNS x86 core model (and the Table III comparison points).

CHA's eight 64-bit x86 cores use Centaur's CNS microarchitecture.  For the
performance evaluation only two aspects of the cores matter:

- their peak arithmetic throughput (Table II: one CNS core at 2.5 GHz peaks
  at 106 GOPS for 8-bit, 80 GOPS for bfloat16 and FP32), and
- the cache/buffer geometry compared against Intel's Haswell and Skylake
  Server (Table III).

The :class:`X86Core` exposes a cost model over abstract work items (ops and
bytes moved), which the runtime uses to account for the x86 portion of each
workload (preprocessing, postprocessing, framework overhead — Table IX).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dtypes import NcoreDType


@dataclass(frozen=True)
class MicroarchSpec:
    """Table III: CNS vs Haswell vs Skylake Server."""

    name: str
    l1i_kb: int
    l1i_ways: int
    l1d_kb: int
    l1d_ways: int
    l2_kb: int
    l2_ways: int
    l3_per_core_mb: float
    load_buffer: int
    store_buffer: int
    rob_size: int
    scheduler_size: int


CNS = MicroarchSpec(
    name="CNS",
    l1i_kb=32, l1i_ways=8,
    l1d_kb=32, l1d_ways=8,
    l2_kb=256, l2_ways=16,
    l3_per_core_mb=2.0,
    load_buffer=72, store_buffer=44,
    rob_size=192, scheduler_size=64,
)

HASWELL = MicroarchSpec(
    name="Haswell",
    l1i_kb=32, l1i_ways=8,
    l1d_kb=32, l1d_ways=8,
    l2_kb=256, l2_ways=8,
    l3_per_core_mb=2.0,
    load_buffer=72, store_buffer=42,
    rob_size=192, scheduler_size=60,
)

SKYLAKE_SERVER = MicroarchSpec(
    name="Skylake Server",
    l1i_kb=32, l1i_ways=8,
    l1d_kb=32, l1d_ways=8,
    l2_kb=1024, l2_ways=16,
    l3_per_core_mb=1.375,
    load_buffer=72, store_buffer=56,
    rob_size=224, scheduler_size=97,
)

# Table II peak throughput for one CNS core at 2.5 GHz, in ops/second.
_PEAK_OPS = {
    NcoreDType.INT8: 106e9,
    NcoreDType.UINT8: 106e9,
    NcoreDType.INT16: 80e9,   # 16-bit throughput tracks the wider datapath
    NcoreDType.BF16: 80e9,
}
PEAK_FP32_OPS = 80e9
#: Memory bandwidth one core can draw (of the four DDR channels).
CORE_MEMORY_BANDWIDTH = 20e9


class X86Core:
    """One CNS core with a simple roofline-style cost model.

    Real code never reaches vector peak; ``efficiency`` captures sustained
    utilisation for the AVX-512 kernels TensorFlow-Lite uses on the
    non-delegated subgraphs (section V-A).  Memory-bound work is limited by
    :data:`CORE_MEMORY_BANDWIDTH` (a single core cannot saturate all four
    DDR channels).
    """

    def __init__(
        self,
        spec: MicroarchSpec = CNS,
        clock_hz: float = 2.5e9,
        efficiency: float = 0.35,
    ) -> None:
        self.spec = spec
        self.clock_hz = clock_hz
        self.efficiency = efficiency

    def peak_ops(self, dtype: NcoreDType | None = None) -> float:
        """Peak ops/second at this clock (Table II row '1x CNS x86')."""
        base = PEAK_FP32_OPS if dtype is None else _PEAK_OPS[dtype]
        return base * (self.clock_hz / 2.5e9)

    def task_seconds(
        self,
        ops: float = 0.0,
        bytes_moved: float = 0.0,
        fixed_seconds: float = 0.0,
    ) -> float:
        """Roofline estimate for one (fp32) work item on this core.

        Compute and memory phases are taken as non-overlapping (pre/post
        processing code is short, serial loops), plus any fixed software
        overhead (framework dispatch, benchmark harness).
        """
        compute = ops / (self.peak_ops() * self.efficiency) if ops else 0.0
        memory = bytes_moved / CORE_MEMORY_BANDWIDTH if bytes_moved else 0.0
        return fixed_seconds + compute + memory
