"""Throughput vs x86 core count: the Fig. 13 / Fig. 14 models.

Fig. 13 (expected): "Theoretically, all of the x86 portion of any network
could be hidden by Ncore's latency, given enough x86 cores executing
concurrently with Ncore."  One core drives Ncore; the remaining cores chew
through the batchable x86 work in parallel, so

    expected(n) = min( 1 / (t_ncore + t_nonbatchable),
                       (n - 1) / t_batchable )

with n = 1 fully serial.

Fig. 14 (observed): the measured curves "appear to become limited by other
x86 overhead not accounted in either the TensorFlow-Lite or MLPerf
frameworks", and MLPerf's run manager needed dedicated cores.  We model
that with an Amdahl-style serial share of the x86 work that no amount of
cores hides (calibrated once against the paper's 8-core measurements):

    observed(n) = 1 / (t_ncore + t_nonbatch + s*t_batch + (1-s)*t_batch/(n-1))
"""

from __future__ import annotations

# Share of the batchable x86 work that stays serial in practice
# (calibrated against Table VIII at 8 cores: ResNet lands on ~1218 IPS).
SERIAL_X86_SHARE = 0.20


def expected_throughput(
    ncore_seconds: float,
    x86_seconds: float,
    cores: int,
    nonbatchable_seconds: float = 0.0,
) -> float:
    """Fig. 13: ideal throughput with n x86 cores hiding the x86 work."""
    if cores < 1:
        raise ValueError("at least one x86 core is required")
    if cores == 1:
        return 1.0 / (ncore_seconds + x86_seconds)
    batchable = max(0.0, x86_seconds - nonbatchable_seconds)
    ncore_bound = 1.0 / (ncore_seconds + nonbatchable_seconds)
    if batchable == 0.0:
        return ncore_bound
    x86_bound = (cores - 1) / batchable
    return min(ncore_bound, x86_bound)


def observed_throughput(
    ncore_seconds: float,
    x86_seconds: float,
    cores: int,
    nonbatchable_seconds: float = 0.0,
    serial_share: float = SERIAL_X86_SHARE,
) -> float:
    """Fig. 14: throughput with the unhidden x86 overhead modelled."""
    if cores < 1:
        raise ValueError("at least one x86 core is required")
    batchable = max(0.0, x86_seconds - nonbatchable_seconds)
    if cores == 1:
        return 1.0 / (ncore_seconds + x86_seconds)
    hidden = (1.0 - serial_share) * batchable / (cores - 1)
    period = ncore_seconds + nonbatchable_seconds + serial_share * batchable + hidden
    return 1.0 / period


def cores_to_saturate(ncore_seconds: float, x86_seconds: float) -> int:
    """Smallest core count whose expected throughput hits the Ncore bound.

    The paper reads these off Fig. 13: ResNet-50 needs 2 cores, MobileNet
    4, SSD-MobileNet 5 (``published.PAPER_SATURATION_CORES``).  Every x86
    second counts as batchable here.
    """
    for cores in range(1, 64):
        if expected_throughput(ncore_seconds, x86_seconds, cores) >= (
            1.0 / ncore_seconds
        ) * (1 - 1e-9):
            return cores
    return 64
