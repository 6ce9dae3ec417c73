"""Multi-socket scale-out.

Section I / II: "The x86 SoC platform can further scale out performance via
multiple sockets, systems, or third-party PCIe accelerators", and the ring
includes multi-socket logic (section III).  Throughput workloads shard
queries across sockets; the model applies a cross-socket efficiency factor
for the shared work distribution (the same reason the 2x CLX 9282 and 2x
NNP-I submissions appear as per-system numbers).
"""

from __future__ import annotations

from dataclasses import dataclass

# Fraction of linear scaling retained per added socket (query dispatch,
# NUMA effects on the shared input stream).
CROSS_SOCKET_EFFICIENCY = 0.97
CORES_PER_SOCKET = 8  # CNS cores on one CHA die


@dataclass(frozen=True)
class MultiSocketSystem:
    """N CHA sockets serving one inference workload."""

    sockets: int = 2

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ValueError("a system needs at least one socket")

    def scaling_factor(self) -> float:
        """Effective throughput multiple over one socket."""
        if self.sockets == 1:
            return 1.0
        return self.sockets * CROSS_SOCKET_EFFICIENCY ** (self.sockets - 1)

    def offline_throughput_ips(self, single_socket_ips: float) -> float:
        """Offline throughput: queries shard across sockets."""
        return single_socket_ips * self.scaling_factor()

    def single_stream_latency_seconds(self, single_socket_latency: float) -> float:
        """SingleStream latency: one query at a time touches one socket —
        adding sockets does not reduce latency."""
        return single_socket_latency

    def total_x86_cores(self) -> int:
        return CORES_PER_SOCKET * self.sockets
