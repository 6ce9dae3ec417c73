"""Regression guard: Tier-3 codegen must stay well ahead of the per-node
interpreter walk on end-to-end zoo inference.

The measured steady-state advantage on MobileNet (the cheapest zoo CNN)
is ~5x on an idle machine; the guard asserts a conservative 3x so CI
noise never flakes it, while any change that quietly drops macro-kernel
coverage (an op falling out of the codegen vocabulary, the sidecar
artifact missing from the cache) still fails loudly.  The digest check
keeps the guard honest: the speed-up only counts if the bytes match.

GNMT guards the bf16 float region the same way: the measured
steady-state advantage is ~5x (chain fusion computes each encoder
layer's sequence projection once instead of once per step), guarded at
the same conservative 3x and only after the outputs digest-match the
interpreter bit for bit.
"""

import numpy as np
import pytest

from repro.perf.simbench import compile_zoo_model, measure_zoo_end_to_end
from repro.runtime import NcoreExecutor

GUARD_SPEEDUP = 3.0
MODELS = ("mobilenet_v1", "gnmt")


@pytest.mark.parametrize("model_key", MODELS)
def test_codegen_bit_exact_and_covered(model_key):
    model, feeds = compile_zoo_model(model_key)
    interp = NcoreExecutor(model, verify=False, policy="interpreter")
    tier3 = NcoreExecutor(model, verify=False, policy="codegen")
    try:
        want = interp.execute(feeds).outputs
        got = tier3.execute(feeds).outputs
        assert tier3.last_tier == "codegen"
        kset = tier3.macro_kernels
        assert kset is not None
        assert kset.coverage_fraction(len(model.segments)) > 0.8
        for name in want:
            assert np.asarray(got[name]).tobytes() == \
                np.asarray(want[name]).tobytes()
    finally:
        interp.close()
        tier3.close()


@pytest.mark.parametrize("model_key", MODELS)
def test_codegen_speedup_guard(model_key):
    tier3 = measure_zoo_end_to_end(model_key, queries=3, tier="codegen", warmup=1)
    interp = measure_zoo_end_to_end(model_key, queries=3, tier="interpreter", warmup=1)
    assert tier3.get("coverage", 0.0) > 0.8
    speedup = interp["seconds"] / tier3["seconds"]
    assert speedup >= GUARD_SPEEDUP, (
        f"Tier-3 codegen only {speedup:.1f}x over the interpreter walk "
        f"on {model_key} (guard {GUARD_SPEEDUP}x) — did macro-kernel "
        "coverage (or, for gnmt, LSTM chain fusion) regress?"
    )
