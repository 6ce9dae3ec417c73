"""The full-system benchmark model: one evaluated model on one CHA.

Reproduces the measurement pipeline of section VI: build the model with
synthetic weights, convert it (uint8 PTQ for the CNNs, bfloat16 for GNMT),
compile through the GCL/NKL, and combine the simulated Ncore portion with
the modelled x86 portion into SingleStream latency and Offline throughput.

GNMT ran through full TensorFlow "due to framework compatibility" with an
admittedly immature stack (section VI-B); that is modelled as per-offload
framework overhead (``GNMT_OFFLOAD_OVERHEAD_SECONDS``), calibrated against
the 12.28 IPS submission.  The ``mature_software`` flag removes it — the
projection the paper makes when it "anticipates GNMT throughput to
increase significantly as Ncore's software stack continues to mature".
"""

from __future__ import annotations

import functools

import numpy as np

from repro.compiler import compile_graph
from repro.graph.loadable import CompiledModel
from repro.models import PAPER_CHARACTERISTICS, ModelInfo
from repro.ncore.config import NcoreConfig
from repro.obs import NULL_OBSERVATION, Observation
from repro.perf.scaling import observed_throughput
from repro.perf.workloads import X86Portion, x86_portion_seconds
from repro.runtime.delegate import x86_graph_seconds
from repro.soc.config import SocConfig
from repro.soc.x86 import X86Core

# Per-offloaded-kernel TensorFlow overhead for the GNMT path (calibrated
# against the 12.28 IPS MLPerf submission at 2.3 GHz).
GNMT_OFFLOAD_OVERHEAD_SECONDS = 255e-6

# Table IV: Ncore ran GNMT at a reduced 2.3 GHz.
GNMT_CLOCK_HZ = 2.3e9
DEFAULT_CLOCK_HZ = 2.5e9
OFFLINE_BATCH = 64  # the Offline submission batch (section VI-C)


class BenchmarkSystem:
    """One benchmark model compiled and timed on the CHA model."""

    def __init__(self, model_key: str) -> None:
        self.model_key = model_key
        self.info: ModelInfo = PAPER_CHARACTERISTICS[model_key]
        clock = GNMT_CLOCK_HZ if model_key == "gnmt" else DEFAULT_CLOCK_HZ
        self.config = NcoreConfig(clock_hz=clock)
        self.soc_config = SocConfig()
        self.core = X86Core(clock_hz=DEFAULT_CLOCK_HZ)

        converted = self.info.convert(self.info.build(), seed=100)
        self.compiled: CompiledModel = compile_graph(
            converted, config=self.config, name=model_key
        ).model

    # ------------------------------------------------------------------
    # Ncore side (simulated)
    # ------------------------------------------------------------------

    @property
    def dma_bytes_per_cycle(self) -> float:
        # Ncore consumes the DMA stream at its own clock (which may
        # differ from the SoC's).
        return self.soc_config.ncore_dma_bandwidth / self.config.clock_hz

    def ncore_seconds(self) -> float:
        """Simulated Ncore portion of one single-batch inference."""
        cycles = self.compiled.ncore_cycles(self.dma_bytes_per_cycle)
        return cycles / self.config.clock_hz

    def ncore_seconds_batched(self, batch: int) -> float:
        """Per-item Ncore time with a batch amortizing the weight traffic."""
        cycles = self.compiled.ncore_cycles_batched(batch, self.dma_bytes_per_cycle)
        return cycles / self.config.clock_hz

    def offload_count(self) -> int:
        """Number of kernel offloads (per-op for the immature GNMT path).

        Reshapes inside an Ncore partition are tensor-metadata updates —
        the framework never dispatches a kernel for them, so they do not
        pay the per-offload overhead.
        """
        return sum(
            1
            for i in self.compiled.ncore_segments
            for kernel in self.compiled.loadables[i].kernels
            if kernel.op != "reshape"
        )

    # ------------------------------------------------------------------
    # x86 side (modelled)
    # ------------------------------------------------------------------

    def _input_bytes(self) -> int:
        total = 0
        for name in self.compiled.graph.inputs:
            shape = self.compiled.graph.tensor(name).shape
            total += int(np.prod(shape))
        return total

    def x86_portion(self, obs: Observation = NULL_OBSERVATION) -> X86Portion:
        """The modelled x86 work of one query (``obs`` counts its attribution)."""
        graph_seconds, nonbatchable = x86_graph_seconds(self.compiled, self.core, obs)
        return x86_portion_seconds(
            self.compiled,
            self.info.input_type,
            self._input_bytes(),
            graph_seconds,
            core=self.core,
            nonbatchable_graph_seconds=nonbatchable,
        )

    def gnmt_framework_seconds(self, mature_software: bool = False) -> float:
        """The per-offload TensorFlow overhead of the GNMT submission."""
        if self.model_key != "gnmt" or mature_software:
            return 0.0
        return self.offload_count() * GNMT_OFFLOAD_OVERHEAD_SECONDS

    # ------------------------------------------------------------------
    # Scenario results
    # ------------------------------------------------------------------

    def single_stream_latency_seconds(self, mature_software: bool = False) -> float:
        """SingleStream: one query at a time, Ncore + x86 in series."""
        return (
            self.ncore_seconds()
            + self.x86_portion().total_seconds
            + self.gnmt_framework_seconds(mature_software)
        )

    def offline_throughput_ips(self, cores: int = 8, mature_software: bool = False) -> float:
        """Offline: throughput at batch :data:`OFFLINE_BATCH` with x86 work
        hidden behind Ncore — batched for MobileNet/ResNet/GNMT,
        single-batch for SSD, as the paper submitted (section VI-C)."""
        if self.model_key == "ssd_mobilenet_v1":
            return 1.0 / self.single_stream_latency_seconds(mature_software)
        portion = self.x86_portion()
        x86 = portion.total_seconds
        nonbatchable = x86 * (1.0 - portion.batchable_fraction)
        ncore = self.ncore_seconds_batched(OFFLINE_BATCH) + self.gnmt_framework_seconds(
            mature_software
        )
        return observed_throughput(ncore, x86, cores, nonbatchable)

    def workload_split(self) -> dict[str, float]:
        """The Table IX decomposition, in seconds."""
        ncore = self.ncore_seconds()
        x86 = self.x86_portion().total_seconds + self.gnmt_framework_seconds(False)
        return {"ncore": ncore, "x86": x86, "total": ncore + x86}


@functools.lru_cache(maxsize=8)
def get_system(model_key: str) -> BenchmarkSystem:
    """Cached construction (calibration costs a full float inference)."""
    return BenchmarkSystem(model_key)
