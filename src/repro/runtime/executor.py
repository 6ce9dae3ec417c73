"""Engine-owned execution: device executor, async sessions, batching.

The pieces a serving system needs:

- :class:`NcoreExecutor` owns the device (driver probe/open, the memory
  mapping, the timing model) and executes one query (``execute``) or one
  batch (``execute_batch``) at a time.  It refuses to load a model whose
  Loadables fail the ``repro.analyze`` static verifiers unless
  constructed with ``verify=False`` — the same gate the compiler
  applies, re-checked at load time because a Loadable can reach the
  runtime without passing through ``compile_graph``.
- :class:`EngineExecutor` mounts an executor on a discrete-event engine:
  a dynamic-batching queue (max batch / max wait) feeds the Ncore
  executor while modelled x86 workers handle per-query pre/post work.
- :class:`SessionHandle` is the lightweight client object: ``submit()``
  enqueues a query and returns a ticket, ``poll()`` reports completion.
  Many handles can share one executor.

Simulated time throughout: latencies come from the engine clock, never
the wall clock, so every schedule is deterministic.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.engine import BatchQueue, Engine, WorkerPool
from repro.engine.core import Event
from repro.engine.resources import Resource
from repro.graph.loadable import CompiledModel
from repro.graph.partitioner import Segment
from repro.ncore.codegen import (
    ORACLE_MODES,
    KernelDispatcher,
    MacroKernel,
    MacroKernelSet,
)
from repro.obs.attrib import TIER_CODEGEN, TIER_INTERPRETER, TIER_REPLAY, get_attrib
from repro.obs.context import TraceContext, mint_trace
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.runtime.delegate import (
    DELEGATE_TRANSITION_SECONDS,
    RunResult,
    RunTiming,
    _x86_node_cost,
    x86_graph_seconds,
)
from repro.runtime.driver import NcoreKernelDriver
from repro.runtime.qkernels import run_nodes, seed_values
from repro.soc.cha import ChaSoc

#: ``--tier`` spellings accepted by :meth:`TierPolicy.for_tier` and the CLI.
TIER_CHOICES = ("auto", "interpreter", "replay", "codegen")


@dataclass(frozen=True)
class TierPolicy:
    """The graph mode of one executor: how it walks a model's segments.

    (The *machine* mode — interpreter vs trace-fused instruction
    execution — is a property of :class:`repro.ncore.Ncore`, not of this
    policy; no zoo query runs the instruction machine.)

    - ``replay``: byte-identical feeds replay cached outputs, ahead of
      any execution; ``replay_capacity`` bounds that LRU.
    - ``codegen``: segments the model carries an AOT macro-kernel for
      (``CompiledModel.macro_kernels``, :mod:`repro.ncore.codegen`) go
      through the dispatcher; segments without one run the per-node
      walk.  Off, every segment does.
    - ``oracle``: differential check of each macro-kernel against the
      per-node walk — ``"first"`` verifies each (segment, shape) once on
      its first dispatch (the default), ``"always"`` on every dispatch,
      ``"off"`` never.
    """

    replay: bool = True
    replay_capacity: int = 128
    codegen: bool = True
    oracle: str = "first"

    def __post_init__(self) -> None:
        if self.oracle not in ORACLE_MODES:
            raise ValueError(
                f"oracle must be one of {ORACLE_MODES}, got {self.oracle!r}"
            )
        if self.replay_capacity < 1:
            raise ValueError("replay_capacity must be at least 1")

    @classmethod
    def for_tier(cls, tier: str) -> "TierPolicy":
        """The policy that forces one named graph mode (the ``--tier`` flag)."""
        if tier == "auto":
            return cls()
        if tier == "interpreter":
            return cls(replay=False, codegen=False)
        if tier == "replay":
            return cls(replay=True, codegen=False)
        if tier == "codegen":
            return cls(replay=False, codegen=True)
        raise ValueError(
            f"unknown tier {tier!r}; choose from {TIER_CHOICES}"
        )


class NcoreExecutor:
    """Owns one socket's Ncore through the kernel driver; runs batches.

    The load-time verification gate: unless ``verify=False``, the model's
    graph and every lowered Loadable are re-checked with the
    ``repro.analyze`` stack and an error-severity finding raises
    :class:`~repro.analyze.AnalysisError` before the device is opened.
    """

    def __init__(
        self,
        model: CompiledModel,
        soc: ChaSoc | None = None,
        owner: str = "ncore-executor",
        verify: bool = True,
        policy: TierPolicy | str | None = None,
    ) -> None:
        self.model = model
        self.soc = soc or ChaSoc()
        if isinstance(policy, str):
            policy = TierPolicy.for_tier(policy)
        self.policy = policy if policy is not None else TierPolicy()
        if verify:
            from repro.analyze import analyze_model, enforce

            with get_tracer().span("executor.verify", track="delegate", model=model.name):
                enforce(
                    analyze_model(model, config=self.soc.ncore.config),
                    context=model.name,
                )
        self.driver = NcoreKernelDriver(self.soc)
        self.driver.probe()
        self.mapping = self.driver.open(owner)
        self._clock = self.soc.ncore.config.clock_hz
        self._dma_bpc = self.soc.ncore_to_dram_bandwidth() / self._clock
        # Tier 2: repeated queries with identical feeds replay cached
        # output tensors instead of re-running the quantized kernels.
        # Keys bind the segment to the loadable fingerprint (graph +
        # device config), so a different model or config never aliases;
        # timing is recomputed per call (it depends on batch size, not
        # on the cached functional outputs).
        self._replay_cache: OrderedDict[str, dict[str, np.ndarray]] = OrderedDict()
        self._replay_prefix: str | None = None
        self.replay_stats = {"hits": 0, "misses": 0}
        # Tier 3: the AOT macro-kernels the model carries.  The
        # dispatcher runs each kernel's one program; ``policy.oracle``
        # controls its per-node differential check.  Without them (policy
        # or pipeline) the same segment walk runs every segment per node.
        self.macro_kernels: MacroKernelSet | None = (
            model.macro_kernels if self.policy.codegen else None
        )
        self._walk_tier = (
            TIER_INTERPRETER if self.macro_kernels is None else TIER_CODEGEN
        )
        self.dispatcher = KernelDispatcher(oracle=self.policy.oracle)
        #: Graph mode that served the most recent query (attribution label).
        self.last_tier: str | None = None

    def close(self) -> None:
        self.driver.close(self.mapping)

    # ------------------------------------------------------------------
    # Tier-2 segment replay cache
    # ------------------------------------------------------------------

    def _replay_key(self, feeds: dict[str, np.ndarray]) -> str:
        if self._replay_prefix is None:
            from repro.compiler.fingerprint import fingerprint_config, fingerprint_graph

            self._replay_prefix = (
                fingerprint_graph(self.model.graph)
                + ":"
                + fingerprint_config(self.soc.ncore.config)
            )
        digest = hashlib.sha256(self._replay_prefix.encode())
        for name in sorted(feeds):
            array = np.ascontiguousarray(feeds[name])
            digest.update(name.encode())
            digest.update(str(array.dtype).encode())
            digest.update(str(array.shape).encode())
            digest.update(array.tobytes())
        return digest.hexdigest()

    def _replay_lookup(self, key: str) -> dict[str, np.ndarray] | None:
        cached = self._replay_cache.get(key)
        metrics = get_metrics()
        if cached is None:
            self.replay_stats["misses"] += 1
            if metrics.enabled:
                metrics.counter("ncore.replay.misses").inc()
            return None
        self._replay_cache.move_to_end(key)
        self.replay_stats["hits"] += 1
        if metrics.enabled:
            metrics.counter("ncore.replay.hits").inc()
        return {name: value.copy() for name, value in cached.items()}

    def _replay_store(self, key: str, outputs: dict[str, np.ndarray]) -> None:
        self._replay_cache[key] = {name: value.copy() for name, value in outputs.items()}
        self._replay_cache.move_to_end(key)
        while len(self._replay_cache) > self.policy.replay_capacity:
            self._replay_cache.popitem(last=False)

    # ------------------------------------------------------------------
    # The segment walk (per-node, or Tier-3 macro-kernels where compiled)
    # ------------------------------------------------------------------

    def _segment_oracle(self, segment: Segment, kernel: MacroKernel):
        """A closure computing the segment's outputs with the per-node
        walk from a read-only environment (the Tier-3 oracle)."""
        graph = self.model.graph

        def oracle(env: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
            scratch = dict(env)
            run_nodes(graph, segment.nodes, scratch)
            return {name: scratch[name] for name in kernel.outputs}

        return oracle

    def _walk_segments(self, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One query, segment by segment in execution order.

        Segments are maximal contiguous runs covering every node, so this
        is the walk ``execute_quantized`` does, chunked.  A segment with a
        macro-kernel goes through the dispatcher; one without runs per
        node — every segment when the policy disables codegen — keeping
        the whole graph bit-exact regardless of coverage.
        """
        graph = self.model.graph
        kset = self.macro_kernels
        values = seed_values(graph, feeds)
        for index, segment in enumerate(self.model.segments):
            kernel = kset.get(index) if kset is not None else None
            if kernel is None:
                run_nodes(graph, segment.nodes, values)
                continue
            self.dispatcher.dispatch(
                kernel, values, self._segment_oracle(segment, kernel)
            )
        return {name: values[name] for name in graph.outputs}

    # ------------------------------------------------------------------
    # Graph mode: replay ahead of the segment walk
    # ------------------------------------------------------------------

    def _run_quantized(
        self, feeds: dict[str, np.ndarray]
    ) -> tuple[dict[str, np.ndarray], str]:
        """Run one query; returns (outputs, graph mode that served it).

        A replay hit short-circuits execution; otherwise the segment walk
        runs and is labelled by whether this executor holds macro-kernels.
        """
        key: str | None = None
        if self.policy.replay:
            key = self._replay_key(feeds)
            cached = self._replay_lookup(key)
            if cached is not None:
                self.last_tier = TIER_REPLAY
                return cached, TIER_REPLAY
        outputs = self._walk_segments(feeds)
        if key is not None:
            self._replay_store(key, outputs)
        self.last_tier = self._walk_tier
        return outputs, self._walk_tier

    def _attribute(self, tiers: dict[str, int], batch: int) -> None:
        """Feed the cycle-attribution collector, tier-labelled.

        ``tiers`` maps the tier that served each query to its count —
        executed queries land on the tier that ran them (codegen or
        interpreter); replay hits are labelled ``replay`` so
        a harvest shows the cycles *avoided*.
        """
        attrib = get_attrib()
        if not attrib.enabled:
            return
        for tier, count in tiers.items():
            if count:
                attrib.record_model_run(
                    self.model, tier, batch=batch, count=count,
                    dma_bytes_per_cycle=self._dma_bpc,
                )

    # ------------------------------------------------------------------
    # Timing model (the NKL cycle schedules + the core cost model)
    # ------------------------------------------------------------------

    def ncore_seconds(self) -> float:
        """Ncore portion of one single-batch inference."""
        return self.model.ncore_cycles(self._dma_bpc) / self._clock

    def ncore_seconds_batched(self, batch: int) -> float:
        """Per-item Ncore time with a batch amortizing streamed weights."""
        return self.model.ncore_cycles_batched(batch, self._dma_bpc) / self._clock

    def x86_graph_seconds(self) -> float:
        """x86 portion attributable to non-delegated graph segments."""
        return x86_graph_seconds(self.model, self.soc.cores[0])[0]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, feeds: dict[str, np.ndarray]) -> RunResult:
        """Run one query: functional outputs plus the timing split.

        Under an installed tracer / metrics registry this is also the
        ``delegate.run`` span, the ``delegate.schedule`` timeline and the
        ``delegate.inferences`` / ``delegate.latency_seconds`` metrics.
        """
        tracer = get_tracer()
        with tracer.span("delegate.run", track="delegate", model=self.model.name) as span:
            outputs, tier = self._run_quantized(feeds)
            self._attribute({tier: 1}, batch=1)
            timing = RunTiming(
                ncore_seconds=self.ncore_seconds(),
                x86_seconds=self.x86_graph_seconds(),
            )
            span.set(
                ncore_seconds=timing.ncore_seconds,
                x86_seconds=timing.x86_seconds,
                ncore_fraction=timing.ncore_fraction,
            )
        if tracer.enabled:
            self.trace_schedule(tracer)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("delegate.inferences").inc()
            metrics.histogram(
                "delegate.latency_seconds", unit="s"
            ).observe(timing.total_seconds)
        return RunResult(outputs=outputs, timing=timing)

    def execute_batch(self, batch_feeds: list[dict[str, np.ndarray]]) -> list[RunResult]:
        """Run a batch: per-query outputs, batched Ncore amortization."""
        size = len(batch_feeds)
        per_item_ncore = self.ncore_seconds_batched(size)
        x86 = self.x86_graph_seconds()
        results = []
        tiers: dict[str, int] = {}
        for feeds in batch_feeds:
            outputs, tier = self._run_quantized(feeds)
            tiers[tier] = tiers.get(tier, 0) + 1
            results.append(RunResult(
                outputs=outputs,
                timing=RunTiming(ncore_seconds=per_item_ncore, x86_seconds=x86),
            ))
        self._attribute(tiers, batch=size)
        return results

    def trace_schedule(self, tracer) -> None:
        """Emit the modelled execution timeline as simulated-time spans.

        One span per segment in execution order — the Fig. 8/9 view of the
        delegate's Ncore/x86 interleaving, with per-kernel child spans for
        the Ncore segments (the NKL cycle schedule).
        """
        clock = self._clock
        core = self.soc.cores[0]
        cursor = 0.0  # modelled seconds since inference start
        for index, segment in enumerate(self.model.segments):
            if segment.target == "ncore" and index in self.model.loadables:
                loadable = self.model.loadables[index]
                seconds = loadable.total_cycles(self._dma_bpc) / clock
                tracer.add_span(
                    f"ncore.segment[{index}]", "delegate.schedule",
                    start_us=cursor * 1e6, duration_us=seconds * 1e6,
                    args={"nodes": len(segment.nodes),
                          "cycles": loadable.total_cycles(self._dma_bpc),
                          "weights": "pinned" if loadable.memory_plan.weights_pinned
                          else "streamed"},
                )
                kernel_cursor = cursor
                for kernel in loadable.kernels:
                    kernel_seconds = kernel.cycles / clock
                    tracer.add_span(
                        kernel.kernel, "ncore.kernels",
                        start_us=kernel_cursor * 1e6,
                        duration_us=kernel_seconds * 1e6,
                        args={"node": kernel.node_name, "op": kernel.op,
                              "cycles": kernel.cycles, "macs": kernel.macs},
                    )
                    kernel_cursor += kernel_seconds
                cursor += seconds
            else:
                seconds = DELEGATE_TRANSITION_SECONDS
                for node in segment.nodes:
                    seconds += core.task_seconds(**_x86_node_cost(self.model.graph, node))
                tracer.add_span(
                    f"x86.segment[{index}]", "delegate.schedule",
                    start_us=cursor * 1e6, duration_us=seconds * 1e6,
                    args={"nodes": len(segment.nodes),
                          "ops": sorted({n.op for n in segment.nodes})},
                )
                cursor += seconds


@dataclass
class QueryTicket:
    """One submitted query's lifecycle, stamped in engine time."""

    index: int
    owner: str
    submitted_at: float
    feeds: dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    enqueued_at: float | None = None     # entered the batch queue
    batch_started_at: float | None = None
    ncore_done_at: float | None = None
    completed_at: float | None = None
    batch_size: int = 0
    result: object | None = None         # delegate.RunResult once done
    done_event: Event | None = field(repr=False, default=None)
    trace: TraceContext | None = field(repr=False, default=None)

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def latency_seconds(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def queue_wait_seconds(self) -> float | None:
        if self.batch_started_at is None or self.enqueued_at is None:
            return None
        return self.batch_started_at - self.enqueued_at


class SessionHandle:
    """A lightweight client of one :class:`EngineExecutor`.

    Holding a handle grants nothing exclusive — submission order across
    all handles decides batching.
    """

    def __init__(self, executor: "EngineExecutor", owner: str) -> None:
        self.executor = executor
        self.owner = owner
        self.tickets: list[QueryTicket] = []

    def submit(self, feeds: dict[str, np.ndarray]) -> QueryTicket:
        ticket = self.executor.submit(feeds, owner=self.owner)
        self.tickets.append(ticket)
        return ticket

    def poll(self, ticket: QueryTicket):
        """The query's result, or None while it is still in flight."""
        return ticket.result if ticket.done else None


class EngineExecutor:
    """An :class:`NcoreExecutor` mounted on a discrete-event engine.

    Queries flow submit -> x86 pre work (worker pool) -> dynamic batch
    queue -> Ncore executor (one batch in flight) -> x86 post work
    (worker pool) -> completion.  Every stage is stamped on the ticket
    and emitted as tracer spans, so a Perfetto trace decomposes latency
    into queue wait vs batch assembly vs Ncore vs x86 time.
    """

    def __init__(
        self,
        engine: Engine,
        executor: NcoreExecutor,
        max_batch: int = 8,
        max_wait: float = 200e-6,
        workers: int = 7,
        pre_seconds: float | None = None,
    ) -> None:
        self.engine = engine
        self.executor = executor
        self.queue = BatchQueue(engine, max_batch=max_batch, max_wait=max_wait,
                                name=f"{executor.model.name}.batch-queue")
        self.pool = WorkerPool(engine, workers=workers)
        self.ncore = Resource(engine, capacity=1, name="ncore-executor")
        # Submit-side framework/buffer-handoff cost, on a worker.
        self.pre_seconds = (
            DELEGATE_TRANSITION_SECONDS if pre_seconds is None else pre_seconds
        )
        self.tickets: list[QueryTicket] = []
        self._dispatcher = engine.process(self._dispatch_loop(), name="ncore-dispatch")

    def session(self, owner: str = "session") -> SessionHandle:
        return SessionHandle(self, owner)

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------

    def submit(self, feeds: dict[str, np.ndarray], owner: str = "anonymous") -> QueryTicket:
        index = len(self.tickets)
        ticket = QueryTicket(
            index=index, owner=owner,
            submitted_at=self.engine.now, feeds=feeds,
            done_event=self.engine.event(),
            # Trace ids are minted from (model, sequence) — deterministic,
            # so a seeded run exports byte-identical trace files.
            trace=(
                mint_trace(self.executor.model.name, index)
                if get_tracer().enabled else None
            ),
        )
        self.tickets.append(ticket)
        self.engine.process(self._query_body(ticket), name=f"query[{ticket.index}]")
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter("engine.queries_submitted").inc()
        return ticket

    def poll(self, ticket: QueryTicket):
        return ticket.result if ticket.done else None

    def _query_body(self, ticket: QueryTicket):
        # x86 pre work on the worker pool (framework callback, handoff).
        if self.pre_seconds > 0:
            yield self.pool.submit(self.pre_seconds)
        ticket.enqueued_at = self.engine.now
        self.queue.put(ticket)
        yield ticket.done_event
        return ticket.result

    # ------------------------------------------------------------------
    # Dispatch path (one batch in flight on the Ncore executor)
    # ------------------------------------------------------------------

    def _dispatch_loop(self):
        engine = self.engine
        while True:
            batch = yield self.queue.get()
            tickets: list[QueryTicket] = batch.items
            yield self.ncore.request()
            started = engine.now
            for ticket in tickets:
                ticket.batch_started_at = started
                ticket.batch_size = batch.size
            # Functional execution is eager; timing advances the clock.
            results = self.executor.execute_batch([t.feeds for t in tickets])
            ncore_seconds = (
                self.executor.ncore_seconds_batched(batch.size) * batch.size
            )
            yield engine.timeout(ncore_seconds)
            self.ncore.release()
            ncore_done = engine.now
            engine.trace_span(
                f"batch[{batch.sequence}]", "engine.ncore", started, ncore_done,
                args={"size": batch.size, "reason": batch.reason,
                      "assembly_us": batch.assembly_seconds * 1e6,
                      "trace_ids": [
                          t.trace.trace_id for t in tickets if t.trace is not None
                      ]},
            )
            for ticket, result in zip(tickets, results, strict=True):
                ticket.ncore_done_at = ncore_done
                engine.process(
                    self._postprocess(ticket, result),
                    name=f"post[{ticket.index}]",
                )

    def _postprocess(self, ticket: QueryTicket, result):
        # Per-query x86 post work (non-delegated segments) on the pool.
        x86_seconds = result.timing.x86_seconds
        if x86_seconds > 0:
            yield self.pool.submit(x86_seconds)
        ticket.completed_at = self.engine.now
        ticket.result = result
        self._trace_ticket(ticket)
        metrics = get_metrics()
        if metrics.enabled:
            model = self.executor.model.name
            metrics.counter("engine.queries_completed").inc()
            metrics.histogram("engine.latency_seconds", unit="s").observe(
                ticket.latency_seconds
            )
            # Labelled, windowed view of the same signal: rolling
            # percentiles per model, in engine (simulated) time.
            metrics.windowed_histogram(
                "engine.latency_seconds", unit="s", labels={"model": model}
            ).observe(ticket.latency_seconds, ts=self.engine.now)
        ticket.done_event.succeed(result)

    def _trace_ticket(self, ticket: QueryTicket) -> None:
        tracer = get_tracer()
        if not tracer.enabled:
            return
        context = ticket.trace
        if context is not None and ticket.completed_at is not None:
            # Root span of the query's causal tree: submit -> completion.
            self.engine.trace_span(
                f"query[{ticket.index}]", "engine.queries",
                ticket.submitted_at, ticket.completed_at,
                args={"owner": ticket.owner, "batch_size": ticket.batch_size,
                      "model": self.executor.model.name},
                context=context,
            )
        spans = [
            ("pre", ticket.submitted_at, ticket.enqueued_at),
            ("queue.wait", ticket.enqueued_at, ticket.batch_started_at),
            ("ncore", ticket.batch_started_at, ticket.ncore_done_at),
            ("x86.post", ticket.ncore_done_at, ticket.completed_at),
        ]
        for stage, start, end in spans:
            if start is None or end is None:
                continue
            self.engine.trace_span(
                f"query[{ticket.index}].{stage}", "engine.queries", start, end,
                args={"owner": ticket.owner, "batch_size": ticket.batch_size,
                      "stage": stage},
                context=context.child(stage) if context is not None else None,
            )

    # ------------------------------------------------------------------

    def drain(self, max_events: int = 50_000_000) -> None:
        """Flush the open batch and run the engine until all queries finish."""
        self.queue.flush()
        self.engine.run(max_events=max_events)
        while any(not t.done for t in self.tickets):
            self.queue.flush()
            self.engine.run(max_events=max_events)

    def close(self) -> None:
        self.executor.close()
