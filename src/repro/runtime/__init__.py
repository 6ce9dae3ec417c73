"""The Ncore runtime: kernel driver model, delegate integration, execution.

Section V-C/D: the runtime provides a high-level abstraction of the
memory-mapped Ncore interface, integrates with the framework's Delegate
interface to run mixed Ncore/x86 graphs, and talks to a kernel-mode driver
that owns the protected settings (DMA windows, power).
"""

from repro.runtime.driver import DriverError, NcoreKernelDriver
from repro.runtime.executor import TIER_CHOICES, NcoreExecutor, TierPolicy
from repro.runtime.luts import build_activation_lut, sigmoid_lut, tanh_lut
from repro.runtime.profiler import EventLogOverflowError, Profiler
from repro.runtime.qkernels import execute_quantized
from repro.runtime.selftest import SelfTestReport, power_on_self_test

__all__ = [
    "DriverError",
    "EventLogOverflowError",
    "NcoreExecutor",
    "NcoreKernelDriver",
    "Profiler",
    "SelfTestReport",
    "TIER_CHOICES",
    "TierPolicy",
    "build_activation_lut",
    "execute_quantized",
    "power_on_self_test",
    "sigmoid_lut",
    "tanh_lut",
]
