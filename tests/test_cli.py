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


class TestTierFlag:
    @pytest.mark.parametrize("command", ["run", "serve"])
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
        assert main(["serve", "gnmt", "--slo-ms", "0"]) == 2
        assert "--slo-ms" in capsys.readouterr().err


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

    def test_run_no_optimize_skips_the_optimize_stage(self, tmp_path, capsys):
        # As for ``compile --no-optimize``: the zoo graph reaches PTQ and the
        # backend unoptimized (a cache hit records the pipeline instead).
        import json

        out_path = tmp_path / "o0.trace.json"
        assert main(["run", "mobilenet_v1", "--no-optimize", "--trace", str(out_path)]) == 0
        assert "latency" in capsys.readouterr().out
        events = json.loads(out_path.read_text())["traceEvents"]
        records = [e for e in events
                   if e["ph"] in ("X", "i") and e["name"].startswith("compiler.")]
        assert "compiler.optimize" not in {e["name"] for e in records}
        assert {e["args"].get("pipeline") for e in records} >= {"zoo-O0-s0"}


class TestTrace:
    def test_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "mn.trace.json"
        assert main(["run", "mobilenet_v1", "--trace", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "latency:" in out
        doc = json.loads(out_path.read_text())
        threads = {
            (e["pid"], e["args"]["name"]) for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"compiler", "delegate", "driver", "delegate.schedule",
                "ncore.kernels", "dma", "ncore"} <= {name for _, name in threads}
        # Wall-clock layers in pid 1, simulated time in pid 2.
        assert {(1, "delegate"), (1, "driver"), (2, "delegate.schedule"),
                (2, "dma"), (2, "ncore")} <= threads
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        # The Fig. 10 text of the profiled microkernel.
        assert "[ncore]" in out
        assert "stage_weights" in out

    def test_unknown_model_errors(self, tmp_path, capsys):
        assert main(["run", "alexnet", "--trace", str(tmp_path / "t.json")]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_ambiguous_prefix_errors(self, tmp_path, capsys):
        # "mobilenet_v1" and "ssd_mobilenet_v1" both contain "net".
        assert main(["run", "net", "--trace", str(tmp_path / "t.json")]) == 2
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

    def test_gnmt_harvest_cycles_match_the_timing_model(self, capsys, tmp_path):
        # GNMT is timed at 2.3 GHz, where the DMA stream delivers more bytes
        # per Ncore cycle than at the default 2.5 GHz: the harvest must
        # label its cycles at the system's own rate.
        import json

        from repro.perf.system import get_system

        harvest = tmp_path / "gnmt.jsonl"
        assert main(["serve", "gnmt", "--queries", "8", "--harvest", str(harvest)]) == 0
        capsys.readouterr()
        records = [json.loads(line) for line in harvest.read_text().splitlines()]
        system = get_system("gnmt")
        expected = system.compiled.ncore_cycles(system.dma_bytes_per_cycle)
        assert sum(r["total_cycles"] for r in records) == expected
        assert expected == round(system.ncore_seconds() * system.config.clock_hz)

    def test_prometheus_families_are_a_function_of_the_arguments(self, capsys, tmp_path):
        # The cached system build is setup, not part of the observed run:
        # a cold cache must not add compiler families to the first file.
        from repro.perf.system import get_system

        get_system.cache_clear()
        families = []
        for run in ("cold", "warm"):
            prom = tmp_path / f"{run}.prom"
            assert main(["serve", "mobilenet_v1", "--queries", "32",
                         "--prometheus", str(prom)]) == 0
            families.append({line.split()[2] for line in prom.read_text().splitlines()
                             if line.startswith("# TYPE")})
        capsys.readouterr()
        assert families[0] == families[1] == {
            "delegate_transitions_total",
            "engine_batch_queue_batch_size",
            "engine_batch_queue_batches_total",
            "engine_batch_queue_depth",
            "server_latency_seconds",
            "server_queries_total",
            "server_sustained_qps",
            "x86_fallback_seconds_total",
            "x86_fallback_softmax_cycles_total",
        }


class TestTop:
    def test_replay_round_trip(self, capsys, tmp_path):
        frames = tmp_path / "frames.jsonl"
        assert main(["serve", "mobilenet_v1", "--queries", "32",
                     "--telemetry", str(frames)]) == 0
        assert f"repro top {frames}" in capsys.readouterr().out
        assert main(["top", str(frames), "--no-ansi"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "mobilenet_v1" in out
        assert "sockets" in out

    def test_replay_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["top", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such" in capsys.readouterr().err.lower()

    def test_no_model_and_no_replay_exits_2(self, capsys):
        # The frame file is the only input: there is no live mode.
        with pytest.raises(SystemExit) as exc_info:
            main(["top"])
        assert exc_info.value.code == 2
        assert "frames" in capsys.readouterr().err


def _truncated(text: str) -> str:
    return text[: len(text) // 2]


def _missing_key(text: str) -> str:
    import json

    document = json.loads(text)
    del document["nodes"]
    return json.dumps(document)


def _bad_version(text: str) -> str:
    import json

    return json.dumps({**json.loads(text), "format_version": 99})


class TestMalformedGraphFile:
    """A broken .json/.npz pair is a usage error: exit 2 and a message
    that names the file, never a traceback."""

    @pytest.mark.parametrize("command", ["run", "compile", "lint"])
    @pytest.mark.parametrize("corrupt, says", [
        (_truncated, "not valid JSON"),
        (_missing_key, "missing key 'nodes'"),
        (_bad_version, "format version 99"),
    ], ids=["truncated-json", "missing-key", "bad-version"])
    def test_exits_2_naming_the_file(self, command, corrupt, says, tmp_path, capsys):
        from repro.graph.frontends import save_graph
        from tests.quantize.test_convert import small_cnn

        json_path, _ = save_graph(small_cnn(), tmp_path / "bad")
        json_path.write_text(corrupt(json_path.read_text()))
        assert main([command, str(tmp_path / "bad")]) == 2
        err = capsys.readouterr().err
        assert str(json_path) in err and says in err
