"""Performance models and the MLPerf-style evaluation harness.

- :mod:`repro.perf.published`  -- the competitor results the paper compares
  against (Tables VII/VIII, MLPerf Inference v0.5 closed division).
- :mod:`repro.perf.workloads`  -- the x86 portion of each benchmark
  (preprocess, postprocess, framework overhead; Table IX).
- :mod:`repro.perf.system`     -- the full-system latency/throughput model.
- :mod:`repro.perf.scaling`    -- throughput vs x86 core count (Figs 13/14).
- :mod:`repro.perf.mlperf`     -- SingleStream scenario harness (Offline is
  the closed form ``BenchmarkSystem.offline_throughput_ips``).
- :mod:`repro.perf.serving`    -- engine-driven Server scenario (Poisson
  arrivals, dynamic batching, multisocket sharding).
"""

from repro.perf.mlperf import SingleStreamResult, run_single_stream
from repro.perf.report import generate_report
from repro.perf.serving import (
    ServerResult,
    ServingTimingModel,
    default_server_qps,
    run_server,
)
from repro.perf.published import (
    PUBLISHED_LATENCY_MS,
    PUBLISHED_THROUGHPUT_IPS,
    SUBMITTER_TYPES,
)
from repro.perf.scaling import expected_throughput, observed_throughput
from repro.perf.system import BenchmarkSystem
from repro.perf.workloads import x86_portion_seconds

__all__ = [
    "BenchmarkSystem",
    "PUBLISHED_LATENCY_MS",
    "PUBLISHED_THROUGHPUT_IPS",
    "SUBMITTER_TYPES",
    "ServerResult",
    "ServingTimingModel",
    "SingleStreamResult",
    "default_server_qps",
    "expected_throughput",
    "generate_report",
    "observed_throughput",
    "run_server",
    "run_single_stream",
    "x86_portion_seconds",
]
