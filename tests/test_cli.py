"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import main


class TestInfo:
    def test_prints_configuration(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "20.48 TOPS" in out
        assert "160 GB/s" in out
        assert "16 MB" in out


class TestSelftest:
    def test_post_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "POST passed" in out


class TestModels:
    def test_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for key in ("mobilenet_v1", "resnet50_v15", "ssd_mobilenet_v1", "gnmt"):
            assert key in out


class TestBench:
    def test_benchmarks_a_model(self, capsys):
        assert main(["bench", "mobilenet_v1"]) == 0
        out = capsys.readouterr().out
        assert "SingleStream latency" in out
        assert "Offline throughput" in out

    def test_unknown_model_errors(self, capsys):
        assert main(["bench", "alexnet"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_no_fastpath_does_not_leak_machine_mode(self, capsys):
        # --no-fastpath picks the machine mode of the Fig. 6 line only; a
        # later Ncore() still fuses.
        from repro.ncore import Ncore

        assert main(["bench", "mobilenet_v1", "--no-fastpath"]) == 0
        assert "(interpreter)" in capsys.readouterr().out
        assert Ncore().fastpath is True


class TestTierFlag:
    @pytest.mark.parametrize("command", ["run", "serve", "bench"])
    def test_fastpath_is_not_a_graph_mode(self, command, capsys):
        # Trace fusion is a machine mode (``Ncore(fastpath=)``); as a zoo
        # ``--tier`` it only ever changed a label, so the spelling is gone.
        with pytest.raises(SystemExit) as exc_info:
            main([command, "mobilenet_v1", "--tier", "fastpath"])
        assert exc_info.value.code == 2
        # ``serve`` only reads the timing model, so it takes no ``--tier``.
        expected = ("unrecognized arguments: --tier" if command == "serve"
                    else "invalid choice: 'fastpath'")
        assert expected in capsys.readouterr().err


class TestServe:
    def test_runs_the_server_scenario(self, capsys):
        assert main(["serve", "mobilenet_v1", "--queries", "128"]) == 0
        out = capsys.readouterr().out
        assert "Server scenario" in out
        assert "sustained" in out
        assert "latency p99" in out
        assert "mean batch size" in out

    def test_accepts_qps_and_sockets(self, capsys):
        assert main([
            "serve", "resnet", "--queries", "64", "--qps", "500", "--sockets", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 sockets" in out
        assert "500.0 QPS" in out

    def test_is_seed_deterministic(self, capsys):
        args = ["serve", "mobilenet_v1", "--queries", "64", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_unknown_model_errors(self, capsys):
        assert main(["serve", "alexnet"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_bad_parameters_exit_2(self, capsys):
        assert main(["serve", "gnmt", "--queries", "0"]) == 2
        assert "--queries" in capsys.readouterr().err
        assert main(["serve", "gnmt", "--qps", "0"]) == 2
        assert "--qps" in capsys.readouterr().err


class TestCompileAndRun:
    @pytest.fixture
    def saved_graph(self, tmp_path):
        from repro.graph.frontends import save_graph
        from tests.quantize.test_convert import small_cnn

        save_graph(small_cnn(), tmp_path / "model")
        return str(tmp_path / "model")

    def test_compile_reports_summary(self, saved_graph, capsys):
        assert main(["compile", saved_graph]) == 0
        out = capsys.readouterr().out
        assert "segments" in out
        assert "Ncore portion" in out

    def test_compile_prints_stage_stats(self, saved_graph, capsys):
        assert main(["compile", saved_graph]) == 0
        out = capsys.readouterr().out
        for stage in ("optimize:", "partition:", "verify:", "plan:",
                      "lower:", "finalize:"):
            assert stage in out

    def test_compile_dump_ir_all(self, saved_graph, capsys):
        assert main(["compile", saved_graph, "--dump-ir", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "=== IR: input ===" in out
        assert "=== IR after partition ===" in out
        assert "compiler spans recorded" in out

    def test_compile_dump_ir_single_stage(self, saved_graph, capsys):
        assert main(["compile", saved_graph, "--dump-ir=lower"]) == 0
        out = capsys.readouterr().out
        assert "=== IR after lower ===" in out
        assert "loadables:" in out

    def test_compile_dump_ir_unknown_stage_errors(self, saved_graph, capsys):
        assert main(["compile", saved_graph, "--dump-ir=bogus"]) == 2
        assert "no IR snapshot" in capsys.readouterr().err

    def test_compile_opt_level_o0_skips_optimize(self, saved_graph, capsys):
        assert main(["compile", saved_graph, "-O", "O0"]) == 0
        out = capsys.readouterr().out
        assert "optimize:" not in out
        assert "partition:" in out

    def test_compile_cache_dir_serves_second_compile(self, saved_graph,
                                                     tmp_path, capsys):
        cache_dir = str(tmp_path / "cc")
        assert main(["compile", saved_graph, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["compile", saved_graph, "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache hit" in out
        assert "Ncore portion" in out

    def test_compile_zoo_key_runs_quantized_pipeline(self, capsys):
        assert main(["compile", "mobilenet_v1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "quantize:" in out
        assert "mode=uint8" in out
        assert "Ncore portion" in out

    def test_compile_unknown_target_errors(self, capsys):
        assert main(["compile", "/nonexistent/graph"]) == 2
        assert "unknown model or graph path" in capsys.readouterr().err

    def test_run_executes(self, saved_graph, capsys):
        assert main(["run", saved_graph, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "output" in out
        assert "latency" in out

    def test_run_is_seed_deterministic(self, saved_graph, capsys):
        main(["run", saved_graph, "--seed", "3"])
        first = capsys.readouterr().out
        main(["run", saved_graph, "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


class TestTrace:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "mn.trace.json"
        csv_path = tmp_path / "mn.metrics.csv"
        assert main([
            "trace", "mobilenet", "-o", str(out_path),
            "--queries", "8", "--metrics-csv", str(csv_path), "--render",
        ]) == 0
        out = capsys.readouterr().out
        assert "spans on" in out
        assert "p90 SingleStream latency" in out
        doc = json.loads(out_path.read_text())
        tracks = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # Spans from at least four distinct layers of the stack.
        assert {"delegate", "driver", "dma", "ncore", "mlperf"} <= tracks
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        csv = csv_path.read_text().splitlines()
        assert csv[0].startswith("name,kind,unit")
        assert any(line.startswith("dma.bytes_moved,") for line in csv)
        assert "[ncore]" in out  # --render output

    def test_unknown_model_errors(self, capsys):
        assert main(["trace", "alexnet"]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_ambiguous_prefix_errors(self, capsys):
        # "mobilenet_v1" and "ssd_mobilenet_v1" both contain "net".
        assert main(["trace", "net"]) == 2
        assert "unknown model" in capsys.readouterr().err


class TestReproduce:
    def test_full_report_renders(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        for heading in (
            "Table II", "Table V", "Table VII", "Table VIII", "Table IX",
            "Fig. 13", "Fig. 14",
        ):
            assert heading in out
        assert "Ncore (simulated)" in out
        assert "NVIDIA AGX Xavier" in out
        assert "Server scenario" in out
        # EXPERIMENTS.md embeds every section verbatim: regenerate it by
        # pasting `python -m repro reproduce` output when a number moves.
        experiments = (Path(__file__).resolve().parent.parent / "EXPERIMENTS.md").read_text()
        sections = out.strip().split("\n\n")[1:]
        stale = [s.splitlines()[0] for s in sections if s not in experiments]
        assert not stale, f"EXPERIMENTS.md is missing or has stale sections: {stale}"


class TestServeTelemetry:
    def test_slo_flag_prints_status(self, capsys):
        assert main(["serve", "mobilenet_v1", "--queries", "64",
                     "--slo-ms", "1000"]) == 0
        out = capsys.readouterr().out
        assert "SLO" in out
        assert "OK" in out

    def test_artifact_flags_write_files(self, capsys, tmp_path):
        trace = tmp_path / "serve.trace.json"
        frames = tmp_path / "frames.jsonl"
        prom = tmp_path / "metrics.prom"
        harvest = tmp_path / "harvest.jsonl"
        flame = tmp_path / "flame.txt"
        assert main([
            "serve", "mobilenet_v1", "--queries", "32",
            "--trace", str(trace), "--telemetry", str(frames),
            "--prometheus", str(prom), "--harvest", str(harvest),
            "--flamegraph", str(flame),
        ]) == 0
        capsys.readouterr()
        import json
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("ph") == "s" for e in events)
        assert frames.read_text().strip()
        assert "server_latency_seconds" in prom.read_text()
        first = json.loads(harvest.read_text().splitlines()[0])
        assert first["tier"] == "timing-model"
        assert flame.read_text().strip()


class TestTop:
    def test_live_run_renders_frames(self, capsys):
        assert main(["top", "mobilenet_v1", "--queries", "64",
                     "--no-ansi"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "p99" in out
        assert "sockets" in out

    def test_replay_round_trip(self, capsys, tmp_path):
        frames = tmp_path / "frames.jsonl"
        assert main(["serve", "mobilenet_v1", "--queries", "32",
                     "--telemetry", str(frames)]) == 0
        capsys.readouterr()
        assert main(["top", "--replay", str(frames), "--no-ansi"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "mobilenet_v1" in out

    def test_replay_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["top", "--replay", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such" in capsys.readouterr().err.lower()

    def test_no_model_and_no_replay_exits_2(self, capsys):
        assert main(["top"]) == 2
        assert "model" in capsys.readouterr().err
