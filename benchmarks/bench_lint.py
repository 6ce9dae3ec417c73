"""Wall-time guard for the static-analysis gate.

The ``repro.analyze`` pass stack runs strict on every ``compile_graph``
call, so it must stay cheap relative to compilation
itself.  This benchmark holds the *full* analyzer stack — GIR rules plus
every segment's loadable and instruction-program rules — for the largest
zoo CNN (ResNet-50-v1.5, quantized through the benchmark path) under a
fixed wall-time budget, and re-asserts that the stack lints clean.

Run:  python -m pytest benchmarks/bench_lint.py -q
"""

import time

from repro.analyze import analyze_model
from repro.compiler import compile_graph
from repro.graph.passes import default_pipeline
from repro.models import PAPER_CHARACTERISTICS

MODEL_KEY = "resnet50_v15"
ANALYSIS_BUDGET_SECONDS = 5.0
HAZARD_BUDGET_SECONDS = 1.0
REPEATS = 3


def _compiled_resnet():
    info = PAPER_CHARACTERISTICS[MODEL_KEY]
    graph = info.build()
    default_pipeline().run(graph)
    quantized = info.convert(graph, seed=0)
    start = time.perf_counter()
    compiled = compile_graph(
        quantized, pipeline="O0", name=MODEL_KEY, verify=False
    ).model
    return compiled, time.perf_counter() - start


def _min_analysis_seconds(compiled):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = analyze_model(compiled)
        best = min(best, time.perf_counter() - start)
    return best, report


def _min_hazard_seconds(compiled):
    from repro.analyze import analyze_loadable_hazards

    best = float("inf")
    findings = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        findings = [
            finding
            for _, loadable in sorted(compiled.loadables.items())
            for finding in analyze_loadable_hazards(compiled.graph, loadable)
        ]
        best = min(best, time.perf_counter() - start)
    return best, findings


def test_resnet50_hazard_pass_under_budget():
    # The happens-before pass alone, over every lowered segment: it runs
    # inside the strict compile gate, so it must stay a small fraction of
    # the full analyzer budget.
    compiled, _ = _compiled_resnet()
    seconds, findings = _min_hazard_seconds(compiled)
    assert not findings, "\n".join(d.render() for d in findings)
    assert seconds < HAZARD_BUDGET_SECONDS, (
        f"hazard analysis of {MODEL_KEY} takes {seconds:.2f} s "
        f"(budget {HAZARD_BUDGET_SECONDS:.1f} s); the interval sweep has "
        f"become super-linear in the prefetch schedule"
    )


def test_resnet50_full_stack_under_budget():
    compiled, _ = _compiled_resnet()
    seconds, report = _min_analysis_seconds(compiled)
    assert report.ok, "\n".join(d.render() for d in report)
    assert seconds < ANALYSIS_BUDGET_SECONDS, (
        f"full-stack analysis of {MODEL_KEY} takes {seconds:.2f} s "
        f"(budget {ANALYSIS_BUDGET_SECONDS:.1f} s); an analyzer pass "
        f"has become super-linear in the model"
    )


if __name__ == "__main__":
    compiled, compile_seconds = _compiled_resnet()
    seconds, report = _min_analysis_seconds(compiled)
    hazard_seconds, findings = _min_hazard_seconds(compiled)
    print(f"compile (unverified):  {compile_seconds:8.3f} s")
    print(f"full-stack analysis:   {seconds:8.3f} s "
          f"({len(report)} finding(s), ok={report.ok})")
    print(f"hazard pass alone:     {hazard_seconds:8.3f} s "
          f"({len(findings)} finding(s))")
