"""Floor for the engine's raw event dispatch.

Every serving schedule (``repro.perf.serving.ServerScenario`` and the
MLPerf SingleStream / Offline loops) is a stream of engine events: heap
pushes, generator resumes, timeout callbacks.  This guard keeps the
dispatch rate of that kernel above a generous floor, with no model
attached, so a regression in ``repro.engine.core`` shows up here before
it shows up as a slow ``repro serve``.

Run:  python -m pytest benchmarks/bench_engine_overhead.py -q
"""

import time

from repro.engine import Engine


def test_engine_event_throughput():
    """A floor on raw event dispatch: pure timeouts, no model attached."""
    engine = Engine()

    def ticker():
        for _ in range(10_000):
            yield engine.timeout(1e-6)

    engine.process(ticker())
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    rate = engine.events_dispatched / elapsed
    # Generous floor: even CI containers do millions of heap ops a second.
    assert rate > 50_000, f"engine dispatched only {rate:,.0f} events/s"
