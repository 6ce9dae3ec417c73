"""Unit tests of the ledger's own logic (percentiles, self time, schema,
compare rule, failure accounting).  They never run a zoo model:

    python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import json
import re
from pathlib import Path

import pytest

import metrics as names
import run
import stats
from spans import Recorder, self_times

ROOT = Path(__file__).resolve().parents[2]


class TestPercentile:
    def test_nearest_rank_returns_an_observed_sample(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert stats.percentile(values, 50) == 3.0
        assert stats.percentile(values, 90) == 5.0
        assert stats.percentile(values, 1) == 1.0

    def test_even_count_takes_the_lower_middle(self):
        assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_percentiles_of_a_weighted_mix_land_inside_one_class(self):
        # 8 fast : 3 slow ops per round, three rounds.
        latencies = [0.2] * 24 + [0.5, 0.51, 0.52] * 3
        assert stats.percentile(latencies, 50) == 0.2
        assert stats.percentile(latencies, 90) >= 0.5

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)


class TestSpread:
    def test_iqr_over_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        # statistics.quantiles(n=4) gives 11.75 and 17.25; the median is 14.5.
        assert stats.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)

    def test_constant_runs_have_no_spread(self):
        assert stats.spread([3.0] * 10) == 0.0


class TestSelfTime:
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},   # overlaps span 1
            {"id": 3, "parent": 0, "start": 9.0, "end": 12.0},  # leaks past the parent
            {"id": 4, "parent": 1, "start": 1.0, "end": 2.0},
        ]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - (5.0 + 1.0))
        assert selfs[1] == pytest.approx(2.0)
        assert selfs[4] == pytest.approx(1.0)

    def test_recorder_nests_and_tags_ops(self):
        recorder = Recorder(enabled=True)
        recorder.op = 7
        with recorder.span("outer", model="m") as outer:
            with recorder.span("inner"):
                pass
            recorder.add("stage", outer["start"], outer["start"] + 0.5, stage="lower")
        inner, stage = recorder.spans[1], recorder.spans[2]
        assert inner["parent"] == outer["id"] and stage["parent"] == outer["id"]
        assert {span["op"] for span in recorder.spans} == {7}
        assert recorder.durations("stage", stage="lower") == [pytest.approx(0.5)]
        assert recorder.median_s("missing") is None

    def test_disabled_recorder_records_nothing(self):
        recorder = Recorder(enabled=False)
        with recorder.span("anything") as span:
            assert span is None
        recorder.add("stage", 0.0, 1.0)
        assert recorder.spans == []


class TestSchema:
    """BENCHMARK.json against the driver's contract and the tables here."""

    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    @pytest.fixture(scope="class")
    def declared(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_file_is_generated_from_the_tables(self, declared):
        assert declared == names.benchmark_json()

    def test_contract_limits(self, declared):
        assert set(declared) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert declared["paths"] == ["benchmarks/ledger"]
        assert 1 <= declared["run_seconds"] <= 60
        assert 2 <= len(declared["workloads"]) <= 8
        assert 1 <= len(declared["end_to_end"]) <= 16
        assert 1 <= len(declared["per_layer"]) <= 128
        used = []
        for workload in declared["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
            used.append(workload["name"])
        for metric in declared["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
            used.append(metric["name"])
        for metric in declared["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
            used.append(metric["name"])
        assert len(used) == len(set(used)), "a name is used twice"
        assert all(self.NAME.match(name) for name in used)
        for metric in declared["end_to_end"] + declared["per_layer"]:
            assert self.UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
        setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])

    def test_every_per_layer_metric_has_an_owner(self):
        for layer in names.PER_LAYER:
            assert layer.workloads, layer.name
            assert set(layer.workloads) <= set(names.WORKLOADS)

    def test_fill_zeroes_other_workloads_metrics_and_rejects_gaps(self):
        owned = {
            layer.name: 1.5 for layer in names.PER_LAYER
            if names.MACHINE_NKL in layer.workloads
        }
        filled = names.fill_per_layer(names.MACHINE_NKL, owned)
        assert list(filled) == [layer.name for layer in names.PER_LAYER]
        assert filled["ncore.machine.cycles_total"] == 1.5
        assert filled["models.build_s.gnmt"] == 0.0
        missing = dict(owned)
        del missing["isa.assemble_instr_per_s"]
        with pytest.raises(KeyError, match="missing"):
            names.fill_per_layer(names.MACHINE_NKL, missing)
        with pytest.raises(KeyError, match="not owned"):
            names.fill_per_layer(names.MACHINE_NKL, {**owned, "models.build_s.gnmt": 1.0})


class TestCompare:
    DECLARED = [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    ]

    @staticmethod
    def runs(workload, **series):
        count = len(next(iter(series.values())))
        return [
            {"workload": workload,
             "metrics": {name: {"value": values[i], "unit": "?"}
                         for name, values in series.items()}}
            for i in range(count)
        ]

    def test_ok_worse_and_unresolved(self):
        steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
        side_a = self.runs("w", ops_per_s=steady, op_p50_ms=steady)
        slower = [value * 0.8 for value in steady]          # -20 % throughput
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        side_b = self.runs("w", ops_per_s=slower, op_p50_ms=noisy)
        rows = {row["metric"]: row for row in stats.compare_rows(side_a, side_b, self.DECLARED)}
        assert rows["ops_per_s"]["verdict"] == "worse"
        assert rows["ops_per_s"]["ratio_b_over_a"] == pytest.approx(0.8)
        assert rows["op_p50_ms"]["verdict"] == "unresolved"
        same = {row["metric"]: row["verdict"]
                for row in stats.compare_rows(side_a, side_a, self.DECLARED)}
        assert same == {"ops_per_s": "ok", "op_p50_ms": "ok"}

    def test_wide_spread_is_still_ok_when_every_run_is_better(self):
        base = [100.0, 140.0, 80.0, 120.0, 60.0]
        better = [10.0, 30.0, 20.0, 50.0, 40.0]
        assert stats.verdict(base, better, "lower", 0.10) == "ok"
        assert stats.verdict(better, base, "lower", 0.10) == "unresolved"

    def test_table_names_base_and_bound(self):
        rows = stats.compare_rows(
            self.runs("w", ops_per_s=[1.0, 1.0]), self.runs("w", ops_per_s=[1.0, 1.0]),
            self.DECLARED,
        )
        table = stats.format_rows(rows)
        assert "B/A (base A)" in table and "| w | ops_per_s | 1/s |" in table


class TestFailureAccounting:
    """A check that fails is counted, excluded from the percentiles, and
    fails the command -- shown by corrupting one expected value and by one
    failing set-up check; the result line is printed all the same."""

    def test_failed_checks_fail_the_command(self, monkeypatch, tmp_path, capsys):
        import workloads

        class Corrupted(workloads.MachineNkl):
            setup_repeats = 1

            def setup(self):
                super().setup()
                self.check(False, "set-up: deliberately failed check")
                kind = next(k for k in self.kinds if k.name == "eltwise_add")
                kind.expected = kind.expected.copy()
                kind.expected[0] ^= 0xFF  # the deliberate corruption

        monkeypatch.setitem(workloads.WORKLOADS, names.MACHINE_NKL, Corrupted)
        monkeypatch.setattr(run, "OUT_DIR", tmp_path)
        monkeypatch.setattr(run, "import_seconds", lambda: 0.25)  # no child interpreters
        code = run.main(
            ["--workload", names.MACHINE_NKL, "--seed", "1", "--seconds", "1", "--trace", "0"]
        )
        captured = capsys.readouterr()
        result = json.loads(captured.out.strip().splitlines()[-1])
        detail = json.loads((tmp_path / "run-machine_nkl-trace0.json").read_text())
        assert code == 1
        assert result["correct"] is False
        # One eltwise_add per round, plus the set-up check.
        assert result["failed"] == detail["rounds"] + 1
        passed_setup_checks = 2 * len(names.NKL_KINDS)  # halted + output, per kind
        assert detail["samples"] == (
            result["attempted"] - result["failed"] - passed_setup_checks
        )
        assert "eltwise_add: output differs" in captured.err
        assert "deliberately failed check" in captured.err
        assert set(result["metrics"]) == {metric[0] for metric in names.END_TO_END}
