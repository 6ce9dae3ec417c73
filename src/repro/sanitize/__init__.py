"""``repro.sanitize``: runtime verification for the Ncore machine model.

The dynamic counterpart of :mod:`repro.analyze` — a shadow-SRAM sanitizer
(:class:`Sanitizer`, armed via ``Ncore.arm_sanitizer``), a determinism
checker and a fastpath-vs-interpreter equivalence oracle, all reporting
through the shared Diagnostic model.  See ``docs/sanitizer.md``.
"""

from repro.sanitize.oracle import (
    SetupFn,
    check_determinism,
    oracle_compare,
    state_digest,
)
from repro.sanitize.sanitizer import (
    AGENT_COMPUTE,
    AGENT_DMA_READ,
    AGENT_DMA_WRITE,
    AGENT_HOST,
    AGENT_NONE,
    Sanitizer,
    ShadowRam,
)

__all__ = [
    "AGENT_COMPUTE",
    "AGENT_DMA_READ",
    "AGENT_DMA_WRITE",
    "AGENT_HOST",
    "AGENT_NONE",
    "Sanitizer",
    "SetupFn",
    "ShadowRam",
    "check_determinism",
    "oracle_compare",
    "state_digest",
]
