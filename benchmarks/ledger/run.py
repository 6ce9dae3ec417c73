"""The layered performance ledger: one command for every wall-clock number.

Driver form (one workload, one pass, one JSON object on the last line)::

    python3 benchmarks/ledger/run.py --workload cnn_steady --seed 1 \\
        --seconds 10 --trace 0

Without ``--workload`` every workload runs in a fresh child interpreter,
untraced for the end-to-end metrics and (for the first seed) once more
traced for the per-layer metrics; results go to ``--out``::

    python3 benchmarks/ledger/run.py --seeds 1-10 --out benchmarks/ledger/out/a.json
    python3 benchmarks/ledger/run.py compare a.json b.json

See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import metrics as names
import stats
from spans import Recorder

# Single-threaded BLAS, decided before numpy loads: the box has two cores
# and BLAS fan-out would measure the scheduler, not the simulator.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))


def fingerprint() -> dict[str, object]:
    """The host facts a wall-clock number is meaningless without."""
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ----------------------------------------------------------------------
# One workload, one pass (the driver form)
# ----------------------------------------------------------------------


def import_seconds() -> float:
    """Median wall time of three fresh interpreters importing numpy, ``repro``
    and the workloads: the part of set-up this process can only do once."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import run, workloads"], cwd=HERE,
            check=True, capture_output=True,
        )
        samples.append(time.perf_counter() - start)
    return median(samples)


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (contract result, detail record)."""
    import workloads  # numpy and repro load here, after the thread pinning

    recorder = Recorder(enabled=trace)
    workload = workloads.WORKLOADS[name](seed, recorder, OUT_DIR)
    try:
        setup_runs = []
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            with recorder.span("setup"):
                workload.setup()
            setup_runs.append(time.perf_counter() - start)
        setup_s = import_seconds() + median(setup_runs)

        completed: list[tuple[str, float]] = []  # (label, seconds)
        round_medians: list[float] = []
        failures: list[str] = []
        attempted = 0
        wall = 0.0
        # Closed loop, one client: whole rounds of the fixed op list until
        # the measured wall time reaches --seconds.
        while wall < seconds:
            ops = workload.next_round()
            completed_before = len(completed)
            round_start = time.perf_counter()
            for label, op in ops:
                recorder.op = attempted
                attempted += 1
                start = time.perf_counter()
                try:
                    with recorder.span("op", label=label):
                        op()
                except Exception as exc:  # an op that raises is a failed op
                    failures.append(f"op {attempted - 1} ({label}): {exc!r}")
                    continue
                completed.append((label, time.perf_counter() - start))
            wall += time.perf_counter() - round_start
            in_round = [taken for _, taken in completed[completed_before:]]
            if in_round:
                round_medians.append(stats.percentile(in_round, 50))
        recorder.op = None
        if not completed:
            raise RuntimeError(f"{name}: no timed op completed: {failures[:3]}")
        # Read before finish(): the reference interpreter that checks the
        # outputs is the harness's cost, not the program's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        with recorder.span("finish"):
            workload.finish()
        failures += workload.failures
        attempted += workload.checks_attempted
        exact = workload.exact()
        declared_exact = {
            layer.name for layer in names.PER_LAYER
            if layer.exact and name in layer.workloads
        }
        if set(exact) != declared_exact:
            raise KeyError(
                f"{name}: exact metrics {sorted(set(exact) ^ declared_exact)} are "
                "measured but not declared exact, or declared but not measured"
            )

        latencies = [seconds for _, seconds in completed]
        end_to_end = {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / wall,
            # The mean over rounds of each round's median: a median pooled
            # over the run flips between the host's fast and slow state
            # when the slow share of the run crosses one half.
            "op_p50_ms": mean(round_medians) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        if trace:
            values = names.fill_per_layer(name, {**workload.layers(), **exact})
            units = {layer.name: layer.unit for layer in names.PER_LAYER}
            recorder.dump(OUT_DIR / f"trace-{name}.json", workload=name, seed=seed)
        else:
            values = end_to_end
            units = {metric[0]: metric[1] for metric in names.END_TO_END}
    finally:
        workload.close()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in values.items()
        },
    }
    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "samples": len(latencies), "rounds": workload.rounds, "timed_wall_s": wall,
        "failures": failures, "exact": exact, "end_to_end": end_to_end,
        "ops": [[label, round(seconds * 1e3, 3)] for label, seconds in completed],
        "fingerprint": fingerprint(), **result,
    }
    return result, detail


def run_one(args: argparse.Namespace) -> int:
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"run-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail))
    for failure in detail["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{detail['samples']} timed ops in {detail['rounds']} rounds, "
          f"{detail['timed_wall_s']:.2f} s; {result['failed']} of "
          f"{result['attempted']} ops failed")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Every workload, several seeds (the ledger form)
# ----------------------------------------------------------------------


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One pass in a fresh interpreter; returns its detail record."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    if not done.stdout.strip():
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {done.returncode})")
    json.loads(done.stdout.strip().splitlines()[-1])  # the contract line parses
    detail = json.loads((OUT_DIR / f"run-{workload}-trace{trace}.json").read_text())
    detail["exit_code"] = done.returncode
    return detail


def run_ledger(args: argparse.Namespace) -> int:
    sys.stdout.reconfigure(line_buffering=True)
    seeds = parse_seeds(args.seeds)
    runs: list[dict] = []
    problems: list[str] = []
    overhead_pct: dict[str, float] = {}
    for workload in names.WORKLOADS:
        untraced = [child(workload, seed, args.seconds, 0) for seed in seeds]
        traced = child(workload, seeds[0], args.seconds, 1)
        runs += [*untraced, traced]
        for run in [*untraced, traced]:
            if run["exit_code"] or run["failed"]:
                problems.append(
                    f"{workload} seed {run['seed']} trace {run['trace']}: "
                    f"{run['failed']} failed ops, exit {run['exit_code']}"
                )
        # Simulated values and counts may not depend on tracing.
        for key, value in traced["exact"].items():
            if untraced[0]["exact"].get(key) != value:
                problems.append(
                    f"{workload}: exact metric {key} differs between passes: "
                    f"{untraced[0]['exact'].get(key)!r} untraced vs {value!r} traced"
                )
        print(f"\n== {workload}: {len(seeds)} untraced run(s), seeds {args.seeds}")
        for metric, unit, _, bound in names.END_TO_END:
            values = [run["end_to_end"][metric] for run in untraced]
            print(f"  {metric:<14} {median(values):>12.4f} {unit:<4} "
                  f"spread {stats.spread(values):.3f} (bound {bound})")
        print(f"  ops attempted {sum(r['attempted'] for r in untraced)}, "
              f"failed {sum(r['failed'] for r in untraced)}, "
              f"timed samples per run {untraced[0]['samples']}")
        # Tracing overhead: the traced pass's throughput against the untraced
        # runs'.  Only a figure beyond their run-to-run spread means anything.
        throughput = [run["end_to_end"]["ops_per_s"] for run in untraced]
        overhead_pct[workload] = 100.0 * (
            1.0 - traced["end_to_end"]["ops_per_s"] / median(throughput)
        )
        print(f"  trace.overhead_pct.{workload} {overhead_pct[workload]:.2f} % "
              f"(untraced ops_per_s spread {100.0 * stats.spread(throughput):.1f} %)")
        print(f"  -- per layer (traced, seed {seeds[0]})")
        for layer in names.PER_LAYER:
            if workload in layer.workloads:
                cell = traced["metrics"][layer.name]
                print(f"  {layer.name:<46} {cell['value']:>14.6g} {cell['unit']}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"fingerprint": fingerprint(), "trace_overhead_pct": overhead_pct, "runs": runs},
        indent=1,
    ))
    print(f"\nwrote {out}")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    return 1 if problems else 0


def run_compare(path_a: str, path_b: str) -> int:
    side_a = json.loads(Path(path_a).read_text())["runs"]
    side_b = json.loads(Path(path_b).read_text())["runs"]

    def untraced(runs: list[dict]) -> list[dict]:
        return [run for run in runs if not run["trace"]]

    declared = names.benchmark_json()["end_to_end"]
    rows = stats.compare_rows(untraced(side_a), untraced(side_b), declared)
    print(stats.format_rows(rows))
    exact_a = {(r["workload"], k): v for r in side_a if r["trace"] for k, v in r["exact"].items()}
    exact_b = {(r["workload"], k): v for r in side_b if r["trace"] for k, v in r["exact"].items()}
    moved = sorted(key for key in exact_a.keys() & exact_b.keys() if exact_a[key] != exact_b[key])
    print(f"\nexact metrics compared: {len(exact_a.keys() & exact_b.keys())}, differing: "
          f"{len(moved)}")
    for workload, key in moved:
        print(f"  {workload} {key}: {exact_a[(workload, key)]!r} -> {exact_b[(workload, key)]!r}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    return 1 if worse or moved else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare a.json b.json", file=sys.stderr)
            return 2
        return run_compare(argv[1], argv[2])
    if argv and argv[0] == "declare":
        (ROOT / "BENCHMARK.json").write_text(json.dumps(names.benchmark_json(), indent=2) + "\n")
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(names.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=names.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", help="ledger form: e.g. 1-10 or 3,5 (default: --seed)")
    parser.add_argument("--out", default=str(OUT_DIR / "ledger.json"))
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    args.seeds = args.seeds or str(args.seed)
    return run_ledger(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except ImportError as exc:
        # e.g. a directory holding only the benchmark, without src/repro.
        print(f"ledger: cannot import the program under test: {exc}", file=sys.stderr)
        sys.exit(2)
