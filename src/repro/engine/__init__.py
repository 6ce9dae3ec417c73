"""``repro.engine``: the resumable discrete-event execution engine.

Everything that used to be a private blocking loop — ``Ncore.run()``, one
blocking executor per query, analytic MLPerf scenarios — runs as
cooperative tasks on one simulated clock:

- :mod:`repro.engine.core`       -- event queue, simulated time, tasks;
- :mod:`repro.engine.resources`  -- capacity-limited resources (worker
  pools, Ncore executors) with FIFO grants;
- :mod:`repro.engine.batching`   -- the dynamic-batching queue
  (max batch / max wait) in front of the Ncore executor;
- :mod:`repro.engine.machine`    -- cooperative tasks driving the
  instruction-level Ncore simulator through its resumable ``step`` API.

Simulated time only — no wall clock — so every schedule is deterministic
and seed-reproducible.  See ``docs/execution-engine.md``.
"""

from repro.engine.batching import Batch, BatchQueue, BatchQueueStats
from repro.engine.core import Engine, EngineError, Event, Task, Timeout, every
from repro.engine.machine import DEFAULT_BUDGET_CYCLES, MachineRun, MachineTask
from repro.engine.resources import Resource, WorkerPool

__all__ = [
    "Batch",
    "BatchQueue",
    "BatchQueueStats",
    "DEFAULT_BUDGET_CYCLES",
    "Engine",
    "EngineError",
    "Event",
    "MachineRun",
    "MachineTask",
    "Resource",
    "Task",
    "Timeout",
    "WorkerPool",
    "every",
]
