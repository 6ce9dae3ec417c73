"""The device executor: one query at a time on one socket's Ncore.

:class:`NcoreExecutor` owns the device (driver probe/open, the memory
mapping, the timing model) and executes one query (``execute``): the
functional outputs from the graph mode its :class:`TierPolicy` selects,
plus the modelled Ncore / x86 timing split.  It refuses to load a model
whose Loadables fail the ``repro.analyze`` static verifiers unless
constructed with ``verify=False`` — the same gate the compiler applies,
re-checked at load time because a Loadable can reach the runtime without
passing through ``compile_graph``.

Timing is modelled, never the wall clock.  Serving schedules (batching,
x86 overlap, sockets) live in ``repro.perf.serving`` on the
discrete-event engine, which reads the same compiled-model clock.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.graph.loadable import CompiledModel
from repro.graph.partitioner import Segment
from repro.ncore.codegen import (
    ORACLE_MODES,
    KernelDispatcher,
    MacroKernel,
    MacroKernelSet,
)
from repro.obs.attrib import TIER_CODEGEN, TIER_INTERPRETER, TIER_REPLAY, get_attrib
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
    """Owns one socket's Ncore through the kernel driver; runs queries.

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
        # timing is recomputed per call (it is modelled, not cached).
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

    def _attribute(self, tier: str) -> None:
        """Feed the cycle-attribution collector one tier-labelled query.

        An executed query lands on the tier that ran it (codegen or
        interpreter); a replay hit is labelled ``replay`` so a harvest
        shows the cycles *avoided*.
        """
        attrib = get_attrib()
        if attrib.enabled:
            attrib.record_model_run(
                self.model, tier, dma_bytes_per_cycle=self._dma_bpc
            )

    # ------------------------------------------------------------------
    # Timing model (the NKL cycle schedules + the core cost model)
    # ------------------------------------------------------------------

    def ncore_seconds(self) -> float:
        """Ncore portion of one single-batch inference."""
        return self.model.ncore_cycles(self._dma_bpc) / self._clock

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
            self._attribute(tier)
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
