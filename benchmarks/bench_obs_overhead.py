"""Guard for the observability zero-cost contract.

Section IV-F claims the debug fabric "poses no performance penalty on
Ncore"; the software mirrors that with null-object defaults — an object
built without a live ``repro.obs.Observation`` holds the null one, and
every instrumentation site reduces to one attribute read plus an
``enabled`` check, placed at per-run (not per-cycle) granularity.

Two assertions keep that true as instrumentation spreads:

- the workload from ``bench_simulator.py`` must run within 2% of its speed
  on a machine built with a *live* observation (catches anyone adding
  per-instruction spans to the hot loop), and
- the null-path guard itself must cost <2% of one workload run even if
  every site fired hundreds of times (catches unguarded work ahead of the
  ``enabled`` check).

Run:  python -m pytest benchmarks/bench_obs_overhead.py -q
"""

import time

from bench_simulator import build_machine

from repro import obs
from repro.obs.context import mint_trace

REPEATS = 30
OVERHEAD_BUDGET = 0.02
# Workload executions per timed sample: a single run is ~2 ms, too small
# to resolve a 2% budget against scheduler/timer jitter in CI containers.
RUNS_PER_SAMPLE = 5


def _min_seconds(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed_pair():
    """Interleaved min-of-repeats: null path vs live-observation path.

    Two machines run the same program, one unobserved and one built with
    a live observation that persists across repeats, so the live side
    measures steady-state instrumentation (the serving case: one registry
    per run, warm metric objects), not first-touch metric creation.
    """
    null_machine, program = build_machine()
    live_machine, _ = build_machine(obs=obs.observe())

    def run(machine):
        machine.reset()
        machine.execute_program(program)

    run(null_machine)  # warm up caches / JIT-free but allocator-warm
    run(live_machine)  # warm the live path too (creates the bound metrics)
    # Keep null/live samples of one repeat adjacent and compare them as a
    # pair: CPU frequency and cache state drift slowly in CI containers,
    # so the paired ratio is far more stable than a global min/min.
    best_ratio = float("inf")
    null_best = live_best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(RUNS_PER_SAMPLE):
            run(null_machine)
        null_sample = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(RUNS_PER_SAMPLE):
            run(live_machine)
        live_sample = time.perf_counter() - start
        best_ratio = min(best_ratio, live_sample / null_sample)
        null_best = min(null_best, null_sample)
        live_best = min(live_best, live_sample)
    return null_best, null_best * best_ratio


def test_live_tracer_overhead_under_budget():
    null_best, live_best = _timed_pair()
    overhead = live_best / null_best - 1.0
    assert overhead < OVERHEAD_BUDGET, (
        f"live tracer costs {overhead:.1%} on the simulator workload "
        f"(null {null_best * 1e3:.3f} ms, live {live_best * 1e3:.3f} ms); "
        f"instrumentation crept into the hot loop"
    )


def test_labelled_metrics_and_trace_propagation_under_budget():
    # Serving-grade telemetry per run: a minted trace context with a
    # child span, plus labelled counter/histogram updates — the
    # executor's per-query bookkeeping, at per-run granularity.  Timed
    # directly (the end-to-end delta is below CI noise at a ~2 ms
    # workload) and bounded against one workload run, like the null
    # guard below.
    machine, program = build_machine()

    def run():
        machine.reset()
        machine.execute_program(program)

    run()
    # One registry/tracer for the whole serving run (as run_server does);
    # the per-run cost under test is the updates, not metric creation.
    tracer, registry = obs.observe()
    sequence = 0

    def bookkeeping(n=200):
        nonlocal sequence
        for _ in range(n):
            context = mint_trace("bench", sequence)
            sequence += 1
            registry.counter("bench.runs", labels={"model": "bench"}).inc()
            registry.histogram(
                "bench.latency", unit="s", labels={"model": "bench"},
            ).observe(1e-3)
            tracer.add_span("bench.run", "bench", start_us=0.0,
                            duration_us=1.0, context=context.child("ncore"))

    bookkeeping(1)  # warm: creates the labelled metric objects
    per_run = _min_seconds(bookkeeping) / 200
    workload = _min_seconds(run, repeats=10)
    assert per_run < OVERHEAD_BUDGET * workload, (
        f"labelled metrics + trace propagation cost {per_run * 1e6:.1f} us "
        f"per run against a {workload * 1e3:.3f} ms workload "
        f"({per_run / workload:.1%} > {OVERHEAD_BUDGET:.0%})"
    )


def test_null_guard_cost_negligible():
    # The full per-site null cost: the instrumented object's observation
    # read + enabled check, for the tracer and the metrics registry.
    machine, program = build_machine()

    def guards(n=10_000):
        for _ in range(n):
            if machine.obs.tracer.enabled:
                raise AssertionError("tracer unexpectedly live")
            if machine.obs.metrics.enabled:
                raise AssertionError("metrics unexpectedly live")

    def run():
        machine.reset()
        machine.execute_program(program)

    run()
    # Each loop iteration exercises two sites (one per null object).
    guard_cost = _min_seconds(guards) / 20_000
    workload = _min_seconds(run, repeats=10)
    # Even if every run touched 500 instrumentation sites, the null path
    # must stay under the budget.
    assert guard_cost * 500 < OVERHEAD_BUDGET * workload, (
        f"null guard costs {guard_cost * 1e9:.0f} ns/site against a "
        f"{workload * 1e3:.3f} ms workload"
    )


if __name__ == "__main__":
    null_best, live_best = _timed_pair()
    print(f"workload (null tracer): {null_best * 1e3:8.3f} ms")
    print(f"workload (live tracer): {live_best * 1e3:8.3f} ms "
          f"({live_best / null_best - 1.0:+.2%})")
