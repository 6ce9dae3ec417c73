"""TierPolicy: the graph mode of one executor (replay / codegen / oracle)."""

import numpy as np
import pytest

from repro.compiler import compile_graph
from repro.quantize import calibrate, quantize_graph
from repro.runtime import TIER_CHOICES, NcoreExecutor, TierPolicy

from tests.quantize.test_convert import calibration_batches, small_cnn


def quantized_model(name="tier-policy-cnn"):
    g = small_cnn()
    qg = quantize_graph(g, calibrate(g, calibration_batches()))
    return compile_graph(qg, name=name).model


def sample_feeds(seed=3):
    rng = np.random.default_rng(seed)
    return {"x": rng.uniform(-1, 1, size=(1, 8, 8, 3)).astype(np.float32)}


class TestForTier:
    def test_auto_is_the_default_policy(self):
        assert TierPolicy.for_tier("auto") == TierPolicy()

    def test_interpreter_disables_everything(self):
        policy = TierPolicy.for_tier("interpreter")
        assert not policy.replay and not policy.codegen

    def test_replay_disables_codegen(self):
        policy = TierPolicy.for_tier("replay")
        assert policy.replay and not policy.codegen

    def test_codegen_disables_replay(self):
        policy = TierPolicy.for_tier("codegen")
        assert policy.codegen and not policy.replay

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            TierPolicy.for_tier("jit")

    def test_every_choice_resolves(self):
        for tier in TIER_CHOICES:
            assert isinstance(TierPolicy.for_tier(tier), TierPolicy)

    def test_cli_choices_stay_in_sync(self):
        from repro.cli import _TIER_CHOICES

        assert _TIER_CHOICES == TIER_CHOICES

    def test_invalid_oracle_mode_rejected(self):
        with pytest.raises(ValueError, match="oracle"):
            TierPolicy(oracle="maybe")

    def test_invalid_replay_capacity_rejected(self):
        with pytest.raises(ValueError, match="replay_capacity"):
            TierPolicy(replay_capacity=0)


class TestTierSelection:
    def test_last_tier_reflects_the_ladder(self):
        model = quantized_model()
        feeds = sample_feeds()
        executor = NcoreExecutor(model, verify=False, policy="auto")
        try:
            # auto: replay wins ahead of codegen on a repeat query.
            executor.execute(feeds)
            first = executor.last_tier
            executor.execute(feeds)
            assert first == "codegen"
            assert executor.last_tier == "replay"
        finally:
            executor.close()

    def test_interpreter_tier_never_uses_codegen(self):
        model = quantized_model()
        executor = NcoreExecutor(model, verify=False, policy="interpreter")
        try:
            executor.execute(sample_feeds())
            assert executor.last_tier == "interpreter"
            assert executor.macro_kernels is None
        finally:
            executor.close()

    def test_codegen_tier_reports_codegen(self):
        model = quantized_model()
        executor = NcoreExecutor(model, verify=False, policy="codegen")
        try:
            executor.execute(sample_feeds())
            assert executor.last_tier == "codegen"
        finally:
            executor.close()

    def test_string_policy_equals_explicit_policy(self):
        model = quantized_model()
        a = NcoreExecutor(model, verify=False, policy="replay")
        b = NcoreExecutor(
            model, verify=False, policy=TierPolicy.for_tier("replay")
        )
        assert a.policy == b.policy
        a.close()
        b.close()
