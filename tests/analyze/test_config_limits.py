"""Analyzer limits scale with the target config (satellite of the
config-parametric refactor).

Every capacity rule reads its limit from the :class:`NcoreConfig` under
analysis — nothing is pinned to the shipped 2048x4096 point.  The same
compiled model must therefore pass against the machine it was compiled
for and be *rejected* against a smaller one.
"""

import pytest

from repro.analyze import AnalysisError, analyze_model, enforce
from repro.compiler import compile_graph
from repro.models import PAPER_CHARACTERISTICS
from repro.ncore.config import NcoreConfig


@pytest.fixture(scope="module")
def tall_model():
    """MobileNet compiled for a narrow, tall Ncore (8 slices, 4096 rows):
    its pinned weights span more rows than the shipped RAM has."""
    info = PAPER_CHARACTERISTICS["mobilenet_v1"]
    quantized = info.convert(info.build(), seed=100)
    config = NcoreConfig(slices=8, sram_rows=4096)
    return compile_graph(quantized, config=config, name="mnv1_tall", cache=None), config


class TestConfigScaledLimits:
    def test_model_is_clean_against_its_own_config(self, tall_model):
        result, config = tall_model
        report = analyze_model(result.model, config=config)
        assert [d.rule for d in report.diagnostics] == []

    def test_same_model_overflows_a_smaller_config(self, tall_model):
        result, config = tall_model
        plan = result.model.loadables[result.model.ncore_segments[0]].memory_plan
        assert plan.weight_rows_used > NcoreConfig().sram_rows  # the premise
        report = analyze_model(result.model)  # judged at the shipped point
        rules = {d.rule for d in report.diagnostics}
        assert "ldb.sram-overflow" in rules
        with pytest.raises(AnalysisError, match="sram-overflow"):
            enforce(report, context="mnv1_tall")
