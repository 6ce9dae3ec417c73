"""Compile-cache effectiveness guard.

The content-addressed compile cache exists so that serving, MLPerf and
multisocket runs pay for ResNet-50's optimize/partition/verify/lower
exactly once.  This benchmark compiles the quantized benchmark graph
cold, recompiles it against a warm :class:`repro.compiler.CompileCache`,
and asserts the cached path is at least ``MIN_SPEEDUP``x faster — if a
lookup ever starts re-running stages (or fingerprinting grows a
super-linear step), this fails.

Run:  python -m pytest benchmarks/bench_compile.py -q
"""

import time

from repro.compiler import CompileCache, compile_graph
from repro.models import PAPER_CHARACTERISTICS

MODEL_KEY = "resnet50_v15"
MIN_SPEEDUP = 10.0
REPEATS = 3


def _quantized_resnet():
    info = PAPER_CHARACTERISTICS[MODEL_KEY]
    return info.convert(info.build(), seed=0)


def _cold_and_cached_seconds(graph):
    cache = CompileCache()
    start = time.perf_counter()
    cold_result = compile_graph(graph, pipeline="O0", name=MODEL_KEY, cache=cache)
    cold = time.perf_counter() - start
    assert not cold_result.cache_hit

    cached = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        hit = compile_graph(graph, pipeline="O0", name=MODEL_KEY, cache=cache)
        cached = min(cached, time.perf_counter() - start)
        assert hit.cache_hit
        assert hit.model is cold_result.model
    return cold, cached


def test_resnet50_cached_compile_is_10x_faster():
    cold, cached = _cold_and_cached_seconds(_quantized_resnet())
    assert cached * MIN_SPEEDUP <= cold, (
        f"cached compile of {MODEL_KEY} takes {cached * 1e3:.2f} ms vs "
        f"{cold * 1e3:.2f} ms cold ({cold / cached:.1f}x); the cache lookup "
        f"must stay >= {MIN_SPEEDUP:.0f}x cheaper than a full compile"
    )


if __name__ == "__main__":
    graph = _quantized_resnet()
    cold, cached = _cold_and_cached_seconds(graph)
    print(f"cold compile:    {cold * 1e3:8.2f} ms")
    print(f"cached compile:  {cached * 1e3:8.2f} ms  ({cold / cached:,.0f}x)")
