"""End-to-end tests of the ``repro lint`` CLI command.

The clean-run requirement: every zoo model compiles through the benchmark
path (GCL pipeline + quantization) and lints clean, exit code 0.
"""

import json

import pytest

from repro.cli import main
from repro.dtypes import NcoreDType, QuantParams
from repro.graph.frontends.serialization import save_graph
from repro.graph.gir import Graph, Node, Tensor, TensorType
from repro.models import PAPER_CHARACTERISTICS


class TestZooCleanRun:
    @pytest.mark.parametrize("key", sorted(PAPER_CHARACTERISTICS))
    def test_zoo_model_lints_clean(self, key, capsys):
        assert main(["lint", key]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_json_output(self, capsys):
        assert main(["lint", "mobilenet_v1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["errors"] == 0


def _save_bad_graph(tmp_path):
    graph = Graph("bad")
    graph.add_input("x", TensorType((1, 8)))
    graph.add_tensor(Tensor("y", TensorType((1, 9))))  # shape lie
    graph.add_node(Node("r0", "relu", ["x"], ["y"]))
    graph.mark_output("y")
    path = tmp_path / "bad"
    save_graph(graph, path)
    return str(path)


class TestHazardFlags:
    @pytest.mark.parametrize("key", sorted(PAPER_CHARACTERISTICS))
    def test_zoo_model_hazard_lint_clean(self, key, capsys):
        assert main(["lint", key, "--hazards"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_dot_dump_writes_clustered_graphs(self, tmp_path, capsys):
        dot_path = tmp_path / "hb.dot"
        assert main(["lint", "mobilenet_v1", "--hazards", "--dot", str(dot_path)]) == 0
        out = capsys.readouterr().out
        assert "happens-before graph" in out
        dot = dot_path.read_text()
        assert dot.startswith("digraph")
        assert "subgraph cluster_0" in dot

    def test_graph_only_rejects_hazard_flags(self, capsys):
        assert main(["lint", "mobilenet_v1", "--graph-only", "--hazards"]) == 2
        assert "--graph-only" in capsys.readouterr().err


class TestExitCodes:
    """The documented contract: 0 clean, 1 findings, 2 usage/target error."""

    def test_clean_target_exits_0(self):
        assert main(["lint", "mobilenet_v1"]) == 0

    def test_findings_exit_1(self, tmp_path):
        path = _save_bad_graph(tmp_path)
        assert main(["lint", path, "--graph-only"]) == 1

    def test_bad_target_exits_2(self):
        assert main(["lint", "/no/such/model.gir"]) == 2


class TestJsonSchema:
    """Golden schema for ``lint --json``: keys downstream tooling parses."""

    def test_clean_report_schema(self, capsys):
        assert main(["lint", "mobilenet_v1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"ok", "errors", "warnings", "diagnostics"}
        assert data["ok"] is True
        assert data["errors"] == 0 and data["warnings"] == 0
        assert data["diagnostics"] == []

    def test_finding_schema(self, tmp_path, capsys):
        path = _save_bad_graph(tmp_path)
        assert main(["lint", path, "--graph-only", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["errors"] >= 1
        for entry in data["diagnostics"]:
            assert {"rule", "severity", "artifact", "element", "message"} <= set(entry)
            assert entry["severity"] in ("error", "warning")
            assert extra_keys_ok(entry)


def extra_keys_ok(entry):
    allowed = {"rule", "severity", "artifact", "element", "message", "index", "hint"}
    return set(entry) <= allowed


class TestLintTargets:
    def test_unknown_target_exits_2(self, capsys):
        assert main(["lint", "no_such_model"]) == 2
        assert "zoo keys" in capsys.readouterr().err

    def _save_bad_graph(self, tmp_path):
        return _save_bad_graph(tmp_path)

    def _save_clean_graph(self, tmp_path):
        qp = QuantParams(scale=0.05, zero_point=128)
        ttype = TensorType((1, 4, 4, 16), NcoreDType.UINT8)
        graph = Graph("clean")
        graph.add_input("x", ttype).quant = qp
        graph.add_tensor(Tensor("y", ttype, quant=qp))
        graph.add_node(Node("r0", "relu", ["x"], ["y"]))
        graph.mark_output("y")
        path = tmp_path / "clean"
        save_graph(graph, path)
        return str(path)

    def test_gir_file_with_seeded_error_exits_1(self, tmp_path, capsys):
        path = self._save_bad_graph(tmp_path)
        assert main(["lint", path, "--graph-only"]) == 1
        assert "gir.shape-mismatch" in capsys.readouterr().out

    def test_suppress_flag_drops_the_rule(self, tmp_path):
        path = self._save_bad_graph(tmp_path)
        assert main(
            ["lint", path, "--graph-only", "--suppress", "gir.shape-mismatch"]
        ) == 0

    def test_window_that_does_not_fit_exits_1(self, tmp_path, capsys):
        import numpy as np

        graph = Graph("big_window")
        graph.add_input("x", TensorType((1, 2, 2, 1)))
        graph.add_constant("w", np.ones((5, 5, 1, 1), np.float32))
        graph.add_tensor(Tensor("y", TensorType((1, 1, 1, 1))))
        graph.add_node(Node("c", "conv2d", ["x", "w"], ["y"]))
        graph.mark_output("y")
        save_graph(graph, tmp_path / "case")
        assert main(["lint", str(tmp_path / "case")]) == 1
        out = capsys.readouterr().out
        assert "gir.bad-op-signature" in out and "5x5 window" in out

    def test_file_target_beats_zoo_prefix(self, tmp_path, monkeypatch, capsys):
        # ``m`` is a prefix of mobilenet_v1, but m.json is the target.
        save_graph(Graph("m_file"), tmp_path / "m")  # empty: lints clean
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "m", "--graph-only"]) == 0
        assert capsys.readouterr().out.startswith("lint m: ")

    def test_clean_gir_file_full_stack(self, tmp_path, capsys):
        path = self._save_clean_graph(tmp_path)
        assert main(["lint", path]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_json_reports_findings(self, tmp_path, capsys):
        path = self._save_bad_graph(tmp_path)
        assert main(["lint", path, "--graph-only", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert any(
            d["rule"] == "gir.shape-mismatch" for d in data["diagnostics"]
        )
