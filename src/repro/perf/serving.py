"""The engine-driven MLPerf Server scenario.

The MLPerf scenarios differ only in their *schedule* (the LoadGen insight
the paper's submissions ran under):

- **SingleStream** -- one outstanding query never queues, so it is the
  closed form
  :meth:`~repro.perf.system.BenchmarkSystem.single_stream_latency_seconds`;
- **Offline**      -- every query available at time zero, batched; with
  nothing to queue it is the closed form
  :meth:`~repro.perf.system.BenchmarkSystem.offline_throughput_ips`;
- **Server**       -- seeded Poisson arrivals at a target QPS with a
  latency-bounded dynamic-batching queue (the scenario the paper's
  MLPerf v0.5 submission pre-dated, added here because Fig. 12-14's
  interesting behaviour — x86 work hidden behind Ncore compute — is
  precisely what server-mode batching exercises).  This module.

The Server schedule runs on :class:`repro.engine.Engine`: simulated time
only, deterministic event order, per-stage tracer spans (queue wait vs
batch assembly vs Ncore vs x86).  The :class:`ServingTimingModel` adapter
maps a :class:`~repro.perf.system.BenchmarkSystem` onto stage service
times using the same calibrated constants as the analytic models: the
stages of one query sum to its SingleStream latency
(``tests/perf/test_serving.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.engine import BatchQueue, Engine, Resource, WorkerPool
from repro.obs.context import TraceContext, mint_trace
from repro.obs import NULL_OBSERVATION, Histogram, Observation
from repro.perf.scaling import SERIAL_X86_SHARE
from repro.soc.multisocket import CROSS_SOCKET_EFFICIENCY

JITTER_SIGMA = 0.015  # ~1.5% batch-to-batch latency noise (scheduler, DRAM refresh)
#: MLPerf Server's latency constraint: 99% of queries under the bound.
SLO_ERROR_BUDGET = 0.01


@dataclass(frozen=True)
class ServingTimingModel:
    """Stage service times for one model, derived once per system.

    The x86 portion is decomposed with the Fig. 14 calibration: the
    non-batchable share plus :data:`SERIAL_X86_SHARE` of the batchable
    work stays serial (one driver core), the rest spreads over the
    remaining cores.  ``serial + pre_parallel + post_parallel`` equals
    the full x86 portion, and the Ncore terms include the GNMT
    framework-offload overhead, so the degenerate schedules reproduce
    the analytic SingleStream/Offline numbers.
    """

    model_key: str
    ncore_unbatched: float                    # per query, incl. framework overhead
    ncore_batched: Callable[[int], float]     # batch size -> per-item seconds
    serial: float                             # per query, driver core
    pre_parallel: float                       # per query, worker pool, pre-Ncore
    post_parallel: float                      # per query, worker pool, post-Ncore
    offline_batching: bool                    # paper submission: SSD unbatched

    @classmethod
    def from_system(
        cls, system, obs: Observation = NULL_OBSERVATION
    ) -> "ServingTimingModel":
        """Derive stage times from a :class:`~repro.perf.system.BenchmarkSystem`
        (``obs`` counts the x86 attribution of the derivation)."""
        portion = system.x86_portion(obs)
        x86_total = portion.total_seconds
        nonbatchable = x86_total * (1.0 - portion.batchable_fraction)
        batchable = x86_total - nonbatchable
        serial = nonbatchable + SERIAL_X86_SHARE * batchable
        parallel = (1.0 - SERIAL_X86_SHARE) * batchable
        # Split the parallel work around the Ncore stage in proportion to
        # the preprocess share (input prep precedes the delegate call).
        pre_fraction = portion.preprocess_seconds / x86_total if x86_total else 0.0
        framework = system.gnmt_framework_seconds()
        return cls(
            model_key=system.model_key,
            ncore_unbatched=system.ncore_seconds() + framework,
            ncore_batched=lambda batch: system.ncore_seconds_batched(batch) + framework,
            serial=serial,
            pre_parallel=parallel * pre_fraction,
            post_parallel=parallel * (1.0 - pre_fraction),
            offline_batching=system.model_key != "ssd_mobilenet_v1",
        )

    # ------------------------------------------------------------------

    @property
    def single_stream_seconds(self) -> float:
        """One query end-to-end on one core: fully serial."""
        return self.ncore_unbatched + self.serial + self.pre_parallel + self.post_parallel

    def per_item_offline_seconds(self, batch: int, cores: int) -> float:
        """Steady-state per-item period of the Offline pipeline."""
        if not self.offline_batching:
            return self.single_stream_seconds
        parallel = self.pre_parallel + self.post_parallel
        if cores > 1:
            parallel = parallel / (cores - 1)
        return self.ncore_batched(batch) + self.serial + parallel


@dataclass
class ServerResult:
    """Outcome of one Server-scenario run (engine time throughout)."""

    model_key: str
    queries: int
    offered_qps: float
    sustained_qps: float
    mean_latency_seconds: float
    p50_latency_seconds: float
    p90_latency_seconds: float
    p99_latency_seconds: float
    mean_batch_size: float
    max_batch: int
    max_wait_seconds: float
    cores: int
    sockets: int
    seed: int
    latencies_seconds: np.ndarray = field(repr=False, compare=False, default=None)
    #: SLO figures (attainment / burn rate / budget) when a target was set.
    slo: dict | None = field(repr=False, compare=False, default=None)
    #: Telemetry frames sampled during the run (what ``repro top`` renders).
    frames: list = field(repr=False, compare=False, default_factory=list)

    @property
    def p99_latency_ms(self) -> float:
        return self.p99_latency_seconds * 1e3

    @property
    def p50_latency_ms(self) -> float:
        return self.p50_latency_seconds * 1e3


@dataclass
class _Query:
    index: int
    arrival: float
    enqueued_at: float | None = None
    batch_started_at: float | None = None
    ncore_done_at: float | None = None
    completed_at: float | None = None
    batch_size: int = 0
    socket: int = -1
    trace: TraceContext | None = None

    @property
    def last_stage(self) -> str:
        """The furthest pipeline stage this query entered."""
        if self.ncore_done_at is not None:
            return "x86.post"
        if self.batch_started_at is not None:
            return "ncore"
        if self.enqueued_at is not None:
            return "queue.wait"
        return "pre"


class ServerScenario:
    """The engine wiring of one server run: arrivals through completion.

    ``sockets`` engine-managed Ncore executors pull from one shared
    batching queue (the multisocket sharding path); ``cores`` x86 cores
    per socket split into one driver core (the serial share) and a
    worker pool for the batchable pre/post work.  ``obs`` is the run's
    observation: the engine, its queue and the scenario record into it.
    """

    def __init__(
        self,
        timing: ServingTimingModel,
        qps: float,
        queries: int,
        seed: int = 0,
        max_batch: int = 8,
        max_wait: float = 200e-6,
        cores: int = 8,
        sockets: int = 1,
        socket_efficiency: float = 1.0,
        slo_latency_seconds: float | None = None,
        telemetry_interval: float | None = None,
        obs: Observation = NULL_OBSERVATION,
    ) -> None:
        if queries < 1:
            raise ValueError("at least one query required")
        if slo_latency_seconds is not None and slo_latency_seconds <= 0:
            raise ValueError("the SLO latency target must be positive")
        if qps <= 0:
            raise ValueError("offered QPS must be positive")
        if sockets < 1:
            raise ValueError("at least one socket required")
        if cores < 1:
            raise ValueError("at least one x86 core per socket required")
        self.timing = timing
        self.qps = qps
        self.queries = queries
        self.seed = seed
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.cores = cores
        self.sockets = sockets
        # Per-socket slowdown of the shared work distribution
        # (repro.soc.multisocket's cross-socket efficiency).
        self.ncore_scale = (
            1.0 / socket_efficiency ** (sockets - 1) if sockets > 1 else 1.0
        )
        self.obs = obs
        self.engine = Engine(obs)
        self.queue = BatchQueue(
            self.engine, max_batch=max_batch, max_wait=max_wait,
            name=f"{timing.model_key}.server-queue",
        )
        workers = max(1, (cores - 1) * sockets)
        self.pool = WorkerPool(self.engine, workers=workers)
        self.driver_cores = Resource(self.engine, capacity=sockets, name="driver-core")
        self._records: list[_Query] = []
        self._done = 0
        self._last_completed_at = 0.0
        # The one record of completions: every query is observed here at
        # completion time, and the frames, the SLO figures and the
        # headline percentiles all read these same observations — the
        # summary and the exported metrics can never disagree.
        # max_observations covers the full run, so percentile() is
        # exactly np.percentile and count_above() is exact.
        self._latency_hist = Histogram(
            "server.latency_seconds", unit="s",
            labels={"model": timing.model_key},
            description="end-to-end server latency, observed at completion",
            max_observations=max(65536, queries),
        )
        self._batches = 0           # dispatched batches that finished on Ncore
        self._batched_queries = 0   # the queries those batches carried
        self.slo_latency_seconds = slo_latency_seconds
        self.telemetry_interval = telemetry_interval
        self.frames: list[dict] = []
        self._socket_busy = [0.0] * sockets
        self._prev_busy = [0.0] * sockets
        self._prev_frame_ts = 0.0

    # ------------------------------------------------------------------

    def run(self) -> ServerResult:
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.register(self._latency_hist)
        rng = np.random.default_rng(self.seed)
        interarrival = rng.exponential(1.0 / self.qps, size=self.queries)
        arrivals = np.cumsum(interarrival)
        # One jitter factor per dispatched batch, drawn up front so the
        # rng call sequence is a pure function of the seed.
        self._batch_jitter = rng.lognormal(
            mean=0.0, sigma=JITTER_SIGMA, size=self.queries
        )
        tracing = self.obs.tracer.enabled
        for index in range(self.queries):
            record = _Query(index=index, arrival=float(arrivals[index]))
            if tracing:
                # Deterministic ids (model, sequence): a seeded run
                # exports byte-identical trace files.
                record.trace = mint_trace(self.timing.model_key, index)
            self._records.append(record)
            self.engine.call_at(record.arrival, self._admit, record)
        for socket in range(self.sockets):
            self.engine.process(self._ncore_loop(socket), name=f"ncore[{socket}]")
        if self.telemetry_interval is not None:
            self.engine.call_after(self.telemetry_interval, self._tick)
        self.engine.run()
        if self._done < self.queries:
            # Tail flush: arrivals stopped but a batch stayed open.
            self.queue.flush()
            self.engine.run()
        if self.telemetry_interval is not None:
            # The final frame, stamped at the last completion (a pending
            # tick may have moved the engine clock past it).
            last = self._last_completed_at
            self._sample_frame(last, last - self._prev_frame_ts)
        return self._result()

    # -- per-query admission -------------------------------------------

    def _admit(self, record: _Query) -> None:
        self.engine.process(self._query_body(record), name=f"query[{record.index}]")

    def _query_body(self, record: _Query) -> Iterator:
        if self.timing.pre_parallel > 0:
            yield self.pool.submit(self.timing.pre_parallel)
        record.enqueued_at = self.engine.now
        self.queue.put(record)
        return None

    # -- per-socket batch execution ------------------------------------

    def _ncore_loop(self, socket: int) -> Iterator:
        engine = self.engine
        timing = self.timing
        while self._done < self.queries:
            batch = yield self.queue.get()
            records: list[_Query] = batch.items
            started = engine.now
            jitter = float(self._batch_jitter[batch.sequence % self.queries])
            service = (
                timing.ncore_batched(batch.size) * batch.size
                * self.ncore_scale * jitter
            )
            for record in records:
                record.batch_started_at = started
                record.batch_size = batch.size
                record.socket = socket
            self._socket_busy[socket] += service
            yield engine.timeout(service)
            done = engine.now
            self._batches += 1
            self._batched_queries += batch.size
            engine.trace_span(
                f"batch[{batch.sequence}]", f"server.ncore[{socket}]",
                started, done,
                args={"size": batch.size, "reason": batch.reason,
                      "assembly_us": batch.assembly_seconds * 1e6,
                      "socket": socket,
                      "trace_ids": [
                          r.trace.trace_id for r in records
                          if r.trace is not None
                      ]},
            )
            for record in records:
                record.ncore_done_at = done
                engine.process(self._complete(record), name=f"post[{record.index}]")
        return None

    def _complete(self, record: _Query) -> Iterator:
        timing = self.timing
        if timing.serial > 0:
            yield self.driver_cores.request()
            yield self.engine.timeout(timing.serial)
            self.driver_cores.release()
        if timing.post_parallel > 0:
            yield self.pool.submit(timing.post_parallel)
        record.completed_at = self.engine.now
        self._done += 1
        self._last_completed_at = record.completed_at
        self._latency_hist.observe(record.completed_at - record.arrival)
        self._trace_query(record)
        return None

    def _trace_query(self, record: _Query) -> None:
        if not self.obs.tracer.enabled:
            return
        context = record.trace
        if context is not None and record.completed_at is not None:
            # Root span of the query's causal tree: arrival -> completion.
            self.engine.trace_span(
                f"query[{record.index}]", "server.queries",
                record.arrival, record.completed_at,
                args={"batch_size": record.batch_size,
                      "socket": record.socket,
                      "model": self.timing.model_key},
                context=context,
            )
        stages = [
            ("pre", record.arrival, record.enqueued_at),
            ("queue.wait", record.enqueued_at, record.batch_started_at),
            ("ncore", record.batch_started_at, record.ncore_done_at),
            ("x86.post", record.ncore_done_at, record.completed_at),
        ]
        for stage, start, end in stages:
            if start is None or end is None:
                continue
            self.engine.trace_span(
                f"query[{record.index}].{stage}", "server.queries", start, end,
                args={"batch_size": record.batch_size, "stage": stage,
                      "socket": record.socket},
                context=context.child(stage) if context is not None else None,
            )

    # -- telemetry frames (the ``repro top`` feed) ----------------------

    def _tick(self) -> None:
        """One periodic frame; reschedules while queries are outstanding.

        A tick that finds the run drained emits nothing: the final frame
        (stamped at the last completion) closes the series.
        """
        if self._done == self.queries:
            return
        self._sample_frame(self.engine.now, self.telemetry_interval)
        self.engine.call_after(self.telemetry_interval, self._tick)

    def _sample_frame(self, now: float, span: float) -> None:
        """Append one telemetry frame at engine time ``now``.

        ``socket_util`` is the Ncore busy time over the ``span`` seconds
        the frame covers.
        """
        busy = list(self._socket_busy)
        utilization = [
            min(1.0, max(0.0, (total - previous) / span))
            for total, previous in zip(busy, self._prev_busy, strict=False)
        ]
        self._prev_busy = busy
        self._prev_frame_ts = now
        hist = self._latency_hist
        frame: dict = {
            "ts": now,
            "model": self.timing.model_key,
            "completed": self._done,
            "queries": self.queries,
            "qps": self._done / now,
            "p50_ms": hist.percentile(50) * 1e3,
            "p90_ms": hist.percentile(90) * 1e3,
            "p99_ms": hist.percentile(99) * 1e3,
            "queue_depth": self.queue.depth,
            "batch_occupancy": (
                self._batched_queries / self._batches if self._batches else 0.0
            ),
            "socket_util": utilization,
        }
        slo = self._slo()
        if slo is not None:
            frame["slo_attainment"] = slo["attainment"]
            frame["slo_burn_rate"] = slo["burn_rate"]
        self.frames.append(frame)

    def _slo(self) -> dict | None:
        """The SLO figures over the completions so far (None: no target).

        MLPerf Server's fixed 1% error budget: the burn rate is the
        violation share over the budgeted share (1.0 spends the budget
        exactly), and the budget remaining is what that leaves.
        """
        if self.slo_latency_seconds is None:
            return None
        hist = self._latency_hist
        violated = (
            hist.count_above(self.slo_latency_seconds) / hist.count
            if hist.count else 0.0
        )
        burn = violated / SLO_ERROR_BUDGET
        return {
            "target_seconds": self.slo_latency_seconds,
            "attainment": 1.0 - violated,
            "burn_rate": burn,
            "budget_remaining": 1.0 - burn,
        }

    # -- results --------------------------------------------------------

    def _result(self) -> ServerResult:
        incomplete = [r for r in self._records if r.completed_at is None]
        if incomplete:
            first = incomplete[0]
            raise RuntimeError(
                f"{len(incomplete)} queries never completed; engine drained "
                f"with a wedged schedule (first: query[{first.index}], "
                f"last stage reached: {first.last_stage})"
            )
        latencies = np.array(
            [r.completed_at - r.arrival for r in self._records], dtype=np.float64
        )
        makespan = max(r.completed_at for r in self._records)
        stats = self.queue.stats
        # Summary percentiles come from the scenario-owned histogram —
        # the very observations routed to the metrics registry at
        # completion time, so report and exposition share one source of
        # truth.  Histogram.percentile matches np.percentile exactly
        # (linear interpolation, full retention).
        hist = self._latency_hist
        result = ServerResult(
            model_key=self.timing.model_key,
            queries=self.queries,
            offered_qps=self.qps,
            sustained_qps=self.queries / makespan,
            mean_latency_seconds=float(latencies.mean()),
            p50_latency_seconds=hist.percentile(50),
            p90_latency_seconds=hist.percentile(90),
            p99_latency_seconds=hist.percentile(99),
            mean_batch_size=stats.mean_batch_size,
            max_batch=self.max_batch,
            max_wait_seconds=self.max_wait,
            cores=self.cores,
            sockets=self.sockets,
            seed=self.seed,
            latencies_seconds=latencies,
            slo=self._slo(),
            frames=self.frames,
        )
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("server.queries").inc(self.queries)
            metrics.gauge("server.sustained_qps", unit="QPS").set(result.sustained_qps)
        if metrics.enabled and result.slo is not None:
            for figure in ("attainment", "burn_rate", "budget_remaining"):
                metrics.gauge(
                    f"server.slo_{figure}", labels={"model": self.timing.model_key},
                    description="server latency objective (MLPerf-style p99 bound)",
                ).set(result.slo[figure])
        return result


def default_server_qps(system, cores: int = 8, sockets: int = 1) -> float:
    """A sustainable offered load: 70% of the Offline capacity."""
    timing = ServingTimingModel.from_system(system)
    period = timing.per_item_offline_seconds(batch=8, cores=cores)
    return 0.7 * sockets / period


def run_server(
    system,
    qps: float | None = None,
    queries: int = 512,
    seed: int = 0,
    max_batch: int = 8,
    max_wait: float = 200e-6,
    cores: int = 8,
    sockets: int = 1,
    slo_latency_seconds: float | None = None,
    telemetry_interval: float | None = None,
    obs: Observation = NULL_OBSERVATION,
) -> ServerResult:
    """MLPerf-style Server scenario on the discrete-event engine.

    Seeded Poisson arrivals at ``qps`` (default: 70% of the model's
    Offline capacity) flow through the dynamic-batching queue into
    ``sockets`` engine-managed Ncore executors; p50/p90/p99 latency and
    the sustained QPS come from the engine clock, so two runs with the
    same seed are bit-identical.

    ``slo_latency_seconds`` sets a latency target, reported as
    ``result.slo`` (MLPerf Server's "99% of queries under the bound"
    shape: a fixed 1% error budget); ``telemetry_interval`` samples
    frames for ``repro top``; ``obs`` receives the run's spans and
    metrics.
    """
    timing = ServingTimingModel.from_system(system, obs)
    if qps is None:
        qps = default_server_qps(system, cores=cores, sockets=sockets)
    with obs.tracer.span(
        "mlperf.server", track="mlperf",
        model=timing.model_key, queries=queries, qps=qps,
        max_batch=max_batch, sockets=sockets,
    ) as span:
        scenario = ServerScenario(
            timing, qps=qps, queries=queries, seed=seed,
            max_batch=max_batch, max_wait=max_wait,
            cores=cores, sockets=sockets, socket_efficiency=CROSS_SOCKET_EFFICIENCY,
            slo_latency_seconds=slo_latency_seconds,
            telemetry_interval=telemetry_interval, obs=obs,
        )
        result = scenario.run()
        span.set(
            sustained_qps=result.sustained_qps,
            p99_latency_ms=result.p99_latency_ms,
            mean_batch_size=result.mean_batch_size,
        )
        if result.slo is not None:
            span.set(slo_attainment=result.slo["attainment"])
    return result
