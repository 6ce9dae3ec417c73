"""``repro.engine``: the discrete-event execution engine.

One simulated clock hosts every serving schedule in the repo that queues
— the MLPerf SingleStream loop (``repro.perf.mlperf``) and the Server
scenario (``repro.perf.serving.ServerScenario``); Offline is the closed
form ``BenchmarkSystem.offline_throughput_ips``:

- :mod:`repro.engine.core`       -- event queue, simulated time, tasks;
- :mod:`repro.engine.resources`  -- capacity-limited resources (worker
  pools, driver cores) with FIFO grants;
- :mod:`repro.engine.batching`   -- the dynamic-batching queue
  (max batch / max wait) in front of the Ncore executor.

Simulated time only — no wall clock — so every schedule is deterministic
and seed-reproducible.  See ``docs/execution-engine.md``.
"""

from repro.engine.batching import Batch, BatchQueue, BatchQueueStats
from repro.engine.core import Engine, EngineError, Event, Task, Timeout
from repro.engine.resources import Resource, WorkerPool

__all__ = [
    "Batch",
    "BatchQueue",
    "BatchQueueStats",
    "Engine",
    "EngineError",
    "Event",
    "Resource",
    "Task",
    "Timeout",
    "WorkerPool",
]
