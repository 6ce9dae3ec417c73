"""The four workloads of the performance ledger.

Each workload drives only public ``repro`` entry points (see README.md,
"Rules for the harness") and exposes the same small surface to ``run.py``:

``setup()``       everything the workload does not time as an op;
``next_round()``  untimed preparation of one round, returning its ops — a
                  *round* is a fixed list of ops in seeded order, and the
                  harness pools whole rounds so the op mix never changes;
``finish()``      checks that run after the timed section;
``exact()``       simulated values and counts that must repeat exactly;
``layers()``      per-layer metrics derived from the recorded spans.

An op is a zero-argument callable that raises :class:`CheckFailed` (or
anything else) when it fails.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable

import numpy as np

from repro.compiler import CompileCache, compile_graph, install_cache
from repro.dtypes import (
    NcoreDType,
    QuantParams,
    quantize_multiplier,
    requantize,
    to_bfloat16,
)
from repro.isa import assemble
from repro.models import PAPER_CHARACTERISTICS
from repro.ncore import Ncore
from repro.ncore.codegen import RequantSpec
from repro.nkl import programs as nkl
from repro.perf.published import PAPER_WORKLOAD_SPLIT_MS
from repro.quantize import calibrate, convert_to_bf16, quantize_graph
from repro.runtime import qkernels
from repro.runtime.executor import NcoreExecutor

import metrics as names
from spans import Recorder

Op = tuple[str, Callable[[], None]]


class CheckFailed(Exception):
    """A correctness check inside or after an op did not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def same_bytes(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(
        a[key].dtype == b[key].dtype
        and a[key].shape == b[key].shape
        and np.asarray(a[key]).tobytes() == np.asarray(b[key]).tobytes()
        for key in a
    )


class Workload:
    """Shared bookkeeping: seed, recorder, and post-run check accounting."""

    name = ""
    setup_repeats = 1

    def __init__(self, seed: int, recorder: Recorder, out_dir: Path) -> None:
        self.seed = seed
        self.rec = recorder
        self.out_dir = out_dir
        self.rng = np.random.default_rng(seed)
        self.rounds = 0
        #: Checks made outside timed ops: they count as attempted ops too.
        self.checks_attempted = 0
        self.failures: list[str] = []

    def feed_seed(self, index: int) -> int:
        """Seed of the ``index``-th generated input of this run."""
        return self.seed * 1_000_003 + index

    def check(self, condition: bool, message: str) -> None:
        self.checks_attempted += 1
        if not condition:
            self.failures.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def next_round(self) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def exact(self) -> dict[str, float]:
        return {}

    def layers(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Zoo journeys shared by the steady and the cold workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    key: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    @property
    def int8(self) -> bool:
        return self.key != "gnmt"


_GNMT_REDUCED = {"hidden": 512, "layers": 2, "vocab": 4096}


@dataclass
class Prepared:
    spec: ModelSpec
    graph: Any
    feeds: dict[str, np.ndarray]
    result: Any  # repro.compiler.CompileResult
    executor: NcoreExecutor

    def sample(self, seed: int) -> dict[str, np.ndarray]:
        return PAPER_CHARACTERISTICS[self.spec.key].sample_input(self.graph, seed=seed)


def prepare(
    spec: ModelSpec, feed_seed: int, rec: Recorder, cache: CompileCache
) -> Prepared:
    """build -> calibrate/quantize (or bf16) -> compile (O2) -> open."""
    key = spec.key
    info = PAPER_CHARACTERISTICS[key]
    with rec.span("models.build", model=key):
        graph = info.build(**spec.kwargs)
    feeds = info.sample_input(graph, seed=feed_seed)
    if spec.int8:
        with rec.span("quantize.calibrate", model=key):
            ranges = calibrate(graph, [feeds])
        with rec.span("quantize.convert", model=key):
            converted = quantize_graph(graph, ranges)
    else:
        with rec.span("quantize.convert", model=key):
            converted = convert_to_bf16(graph)
    with rec.span("compiler.compile", model=key) as span:
        result = compile_graph(converted, pipeline="O2", name=key, cache=cache)
        if span is not None:
            span["attrs"]["cache_hit"] = result.cache_hit
            cursor = span["start"]
            for stage in result.stats:
                rec.add(
                    "compiler.stage", cursor, cursor + stage.seconds,
                    model=key, stage=stage.stage, synthetic=True,
                )
                cursor += stage.seconds
    # The executor recovers the codegen sidecar from the process-wide cache.
    with install_cache(cache), rec.span("runtime.open", model=key):
        executor = NcoreExecutor(result.model)
    return Prepared(spec, graph, feeds, result, executor)


def add_counts(totals: dict[str, int], stats: dict[str, int]) -> None:
    """Accumulate one executor's ``dispatcher.stats`` into ``totals``."""
    for key, value in stats.items():
        totals[key] = totals.get(key, 0) + value


def zoo_layers(rec: Recorder, keys: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics every zoo workload derives the same way."""
    out: dict[str, float] = {}

    def put(name: str, value: float | None) -> None:
        if value is not None:
            out[name] = value

    for key in keys:
        put(f"models.build_s.{key}", rec.median_s("models.build", model=key))
        put(f"quantize.calibrate_s.{key}", rec.median_s("quantize.calibrate", model=key))
        put(f"quantize.convert_s.{key}", rec.median_s("quantize.convert", model=key))
        put(f"compiler.fresh_s.{key}",
            rec.median_s("compiler.compile", model=key, cache_hit=False))
        put(f"runtime.open_s.{key}", rec.median_s("runtime.open", model=key))
        put(f"runtime.first_query_s.{key}",
            rec.median_s("runtime.first_query", model=key, restored=False))
        if key in names.STAGE_MODELS:
            for stage in names.STAGES:
                put(f"compiler.stage_s.{stage}.{key}",
                    rec.median_s("compiler.stage", model=key, stage=stage))
    return out


def per_elem_ns(fn: Callable[[], Any], elements: int, repeats: int = 7) -> float:
    """Median nanoseconds per element of ``fn`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples) * 1e9 / elements


# ----------------------------------------------------------------------
# cnn_steady / gnmt_steady
# ----------------------------------------------------------------------


class Steady(Workload):
    """Warm executors, distinct feeds: the replay tier always misses."""

    #: (spec, queries per round); a weight of 0 compiles and opens the
    #: model for its simulated metrics but never queries it.
    models: tuple[tuple[ModelSpec, int], ...] = ()
    oracle_feeds = 2
    replay_repeats = 10
    timing_calls = 50

    def __init__(self, seed: int, recorder: Recorder, out_dir: Path) -> None:
        super().__init__(seed, recorder, out_dir)
        self.prepared: dict[str, Prepared] = {}
        self.feed_counter = 0
        self.after_setup: dict[str, Any] = {}
        self.timed: dict[str, int] = {}
        self.replay_hit_s: list[float] = []

    def _next_feed_seed(self) -> int:
        self.feed_counter += 1
        return self.feed_seed(self.feed_counter)

    @property
    def queried(self) -> list[Prepared]:
        return [self.prepared[spec.key] for spec, weight in self.models if weight]

    def _replay_totals(self) -> dict[str, int]:
        totals = {"hits": 0, "misses": 0}
        for prepared in self.prepared.values():
            for key in totals:
                totals[key] += prepared.executor.replay_stats[key]
        return totals

    def setup(self) -> None:
        cache = CompileCache()
        for spec, weight in self.models:
            prepared = prepare(spec, self._next_feed_seed(), self.rec, cache)
            self.prepared[spec.key] = prepared
            if not weight:
                continue
            with self.rec.span("runtime.first_query", model=spec.key, restored=False):
                prepared.executor.execute(prepared.feeds)
            # The default oracle="first" must really have run.
            self.check(
                prepared.executor.dispatcher.stats.get("oracle_checks", 0) > 0,
                f"{spec.key}: no oracle check on the warm-up query",
            )
        # A model's first query after *another* model was built costs about
        # 2x a steady one (seen on every run): warm-up, so paid here, not in
        # a timed op.
        for prepared in self.queried:
            prepared.executor.execute(prepared.sample(self._next_feed_seed()))
        dispatch: dict[str, int] = {}
        for prepared in self.prepared.values():
            add_counts(dispatch, prepared.executor.dispatcher.stats)
        self.after_setup = {"dispatch": dispatch, "replay": self._replay_totals()}

    def next_round(self) -> list[Op]:
        self.rounds += 1
        order = [
            self.prepared[spec.key] for spec, weight in self.models for _ in range(weight)
        ]
        self.rng.shuffle(order)
        return [
            (p.spec.key, self._query_op(p, p.sample(self._next_feed_seed())))
            for p in order
        ]

    def _query_op(self, prepared: Prepared, feeds: dict[str, np.ndarray]):
        def op() -> None:
            with self.rec.span("runtime.query", model=prepared.spec.key):
                prepared.executor.execute(feeds)

        return op

    def finish(self) -> None:
        replay = self._replay_totals()
        self.timed = {
            key: replay[key] - self.after_setup["replay"][key] for key in replay
        }
        # A timed query served from the replay cache would read as a speed-up.
        self.check(
            self.timed["hits"] == 0,
            f"{self.timed['hits']} timed queries hit the replay tier; every feed is distinct",
        )
        for prepared in self.queried:
            key = prepared.spec.key
            executor = prepared.executor
            for _ in range(self.oracle_feeds):
                feeds = prepared.sample(self._next_feed_seed())
                outputs = executor.execute(feeds).outputs
                with self.rec.span("runtime.interp_query", model=key):
                    reference = qkernels.execute_quantized(prepared.result.model.graph, feeds)
                self.check(
                    same_bytes(outputs, reference),
                    f"{key}: default-policy output differs from execute_quantized",
                )
            # Tier 2: the last feed again must be served from the replay cache.
            hits_before = executor.replay_stats["hits"]
            for _ in range(self.replay_repeats):
                start = time.perf_counter()
                again = executor.execute(feeds).outputs
                self.replay_hit_s.append(time.perf_counter() - start)
                self.check(same_bytes(again, outputs), f"{key}: replayed output differs")
            self.check(
                executor.replay_stats["hits"] - hits_before == self.replay_repeats,
                f"{key}: repeated feed was not served by the replay tier",
            )
        if self.rec.enabled:
            for prepared in self.prepared.values():
                with self.rec.span("soc.timing_model", model=prepared.spec.key):
                    for _ in range(self.timing_calls):
                        prepared.executor.ncore_seconds()
                        prepared.executor.x86_graph_seconds()

    def exact(self) -> dict[str, float]:
        timed_ops = self.timed["hits"] + self.timed["misses"]
        out = {
            "runtime.replay.hits": self.timed["hits"] / timed_ops,
            "runtime.replay.misses": self.timed["misses"] / timed_ops,
            "codegen.benchmarks": self.after_setup["dispatch"].get("benchmarks", 0),
            "codegen.oracle_checks": self.after_setup["dispatch"].get("oracle_checks", 0),
        }
        for key, prepared in self.prepared.items():
            kernels = prepared.executor.macro_kernels
            out[f"codegen.coverage.{key}"] = (
                kernels.coverage_fraction(len(prepared.result.model.segments))
                if kernels is not None else 0.0
            )
        return out

    def layers(self) -> dict[str, float]:
        rec = self.rec
        out = zoo_layers(rec, tuple(self.prepared))
        for prepared in self.queried:
            key = prepared.spec.key
            out[f"runtime.query_p50_ms.{key}"] = rec.median_s("runtime.query", model=key) * 1e3
        for key in self.prepared:
            out[f"soc.timing_model_ms.{key}"] = (
                rec.median_s("soc.timing_model", model=key) * 1e3 / self.timing_calls
            )
        out["runtime.replay_hit_ms"] = median(self.replay_hit_s) * 1e3
        for strategy in names.STRATEGIES:
            out[f"codegen.wins.{strategy}"] = self.after_setup["dispatch"].get(
                f"wins.{strategy}", 0
            )
        return out

    def close(self) -> None:
        for prepared in self.prepared.values():
            prepared.executor.close()
        self.prepared = {}


class CnnSteady(Steady):
    name = names.CNN_STEADY
    # The issue's 64 : 24 MobileNet : SSD mix, so op_p50_ms is a
    # MobileNet-224 query.  ResNet-50 is compiled and opened only: its 20 s
    # first dispatch and 12 s interpreter check do not fit the run-time cap
    # (README, "What the driver's contract changed").
    models = (
        (ModelSpec("mobilenet_v1"), 8),
        (ModelSpec("ssd_mobilenet_v1"), 3),
        (ModelSpec("resnet50_v15"), 0),
    )

    def exact(self) -> dict[str, float]:
        out = super().exact()
        errors = []
        for key, prepared in self.prepared.items():
            ncore_ms = prepared.executor.ncore_seconds() * 1e3
            out[f"soc.ncore_ms.{key}"] = ncore_ms
            out[f"soc.x86_ms.{key}"] = prepared.executor.x86_graph_seconds() * 1e3
            paper = PAPER_WORKLOAD_SPLIT_MS[key]["ncore"]
            errors.append(abs(ncore_ms - paper) / paper)
        out["paper_ncore_err_pct"] = 100.0 * sum(errors) / len(errors)
        return out

    def layers(self) -> dict[str, float]:
        out = super().layers()
        rng = np.random.default_rng(self.seed)
        # A ResNet-50 stage-2 sized accumulator (56 x 56 x 64).
        acc = rng.integers(-(1 << 20), 1 << 20, size=(1, 56, 56, 64))
        mult, shift = quantize_multiplier(0.02 * 0.01 / 0.3)
        out_qp = QuantParams(scale=0.3, zero_point=5, dtype=NcoreDType.UINT8)
        w_qp = QuantParams(scale=0.01, zero_point=120, dtype=NcoreDType.UINT8)
        spec = RequantSpec.build(0.02, w_qp, out_qp)
        acc32 = acc.astype(np.int32)
        out["codegen.requant_apply_ns_per_elem"] = per_elem_ns(
            lambda: spec.apply(acc), acc.size
        )
        out["dtypes.requantize_ns_per_elem"] = per_elem_ns(
            lambda: requantize(acc32, mult, shift, 5, NcoreDType.UINT8), acc.size
        )
        out["runtime.interp_query_ms.mobilenet_v1"] = (
            self.rec.median_s("runtime.interp_query", model="mobilenet_v1") * 1e3
        )
        return out


class GnmtSteady(Steady):
    name = names.GNMT_STEADY
    models = ((ModelSpec("gnmt", {"seq_len": 144, **_GNMT_REDUCED}), 10),)

    def layers(self) -> dict[str, float]:
        out = super().layers()
        rng = np.random.default_rng(self.seed)
        values = rng.standard_normal((144, 2048)).astype(np.float32)
        out["dtypes.to_bfloat16_ns_per_elem"] = per_elem_ns(
            lambda: to_bfloat16(values), values.size
        )
        out["runtime.interp_query_ms.gnmt"] = (
            self.rec.median_s("runtime.interp_query", model="gnmt") * 1e3
        )
        return out


# ----------------------------------------------------------------------
# cold_start
# ----------------------------------------------------------------------


@dataclass
class _Slot:
    """What a model's restored journeys inherit from its fresh journey."""

    directory: Path
    feed_seed: int
    outputs: dict[str, np.ndarray] | None = None


class ColdStart(Workload):
    """First result with the disk cache written, then read back.

    One round is, per model in seeded order: one *fresh* journey into an
    empty cache directory, then one *restored* journey through a new
    ``CompileCache`` on that directory (memory tier empty, as in a new
    process).
    """

    name = names.COLD_START
    models = (
        ModelSpec("mobilenet_v1", {"resolution": 128}),
        ModelSpec("gnmt", {"seq_len": 72, **_GNMT_REDUCED}),
    )

    def __init__(self, seed: int, recorder: Recorder, out_dir: Path) -> None:
        super().__init__(seed, recorder, out_dir)
        self.root: Path | None = None
        self.slots: dict[str, _Slot] = {}
        self.cache_totals = {"disk_hits": 0, "misses": 0, "stores": 0}
        self.dispatch_totals: dict[str, int] = {}
        self.disk_bytes: dict[str, int] = {}
        self.coverage: dict[str, float] = {}

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="cold-cache-", dir=self.out_dir))

    def next_round(self) -> list[Op]:
        assert self.root is not None
        self.rounds += 1
        ops: list[Op] = []
        for index in self.rng.permutation(len(self.models)):
            spec = self.models[index]
            directory = self.root / spec.key
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir()
            self.slots[spec.key] = _Slot(directory, self.feed_seed(self.rounds))
            ops.append((f"{spec.key}.fresh", self._journey_op(spec, restored=False)))
            ops.append((f"{spec.key}.restored", self._journey_op(spec, restored=True)))
        return ops

    def _journey_op(self, spec: ModelSpec, restored: bool):
        def op() -> None:
            key = spec.key
            slot = self.slots[key]
            cache = CompileCache(directory=slot.directory)
            prepared = prepare(spec, slot.feed_seed, self.rec, cache)
            try:
                with self.rec.span("runtime.first_query", model=key, restored=restored):
                    outputs = prepared.executor.execute(prepared.feeds).outputs
            finally:
                prepared.executor.close()
            for counter in self.cache_totals:
                self.cache_totals[counter] += getattr(cache.stats, counter)
            add_counts(self.dispatch_totals, prepared.executor.dispatcher.stats)
            kernels = prepared.result.macro_kernels
            if restored:
                require(prepared.result.cache_hit, f"{key}: restored compile missed the cache")
                require(cache.stats.disk_hits >= 1, f"{key}: restored compile never read disk")
                require(kernels is not None, f"{key}: restored compile lost the codegen sidecar")
                require(
                    slot.outputs is not None and same_bytes(outputs, slot.outputs),
                    f"{key}: restored first query differs from the fresh one",
                )
            else:
                require(not prepared.result.cache_hit, f"{key}: fresh compile hit a cache")
                require(kernels is not None, f"{key}: fresh compile produced no codegen sidecar")
                slot.outputs = outputs
                self.disk_bytes[key] = sum(
                    path.stat().st_size for path in slot.directory.iterdir()
                )
            self.coverage[key] = kernels.coverage_fraction(
                len(prepared.result.model.segments)
            )

        return op

    def exact(self) -> dict[str, float]:
        out = {
            f"compiler.cache.{counter}": total / self.rounds
            for counter, total in self.cache_totals.items()
        }
        out["codegen.benchmarks"] = self.dispatch_totals.get("benchmarks", 0) / self.rounds
        out["codegen.oracle_checks"] = self.dispatch_totals.get("oracle_checks", 0) / self.rounds
        for key, value in self.coverage.items():
            out[f"codegen.coverage.{key}"] = value
        return out

    def layers(self) -> dict[str, float]:
        rec = self.rec
        keys = tuple(spec.key for spec in self.models)
        out = zoo_layers(rec, keys)
        for key in keys:
            out[f"compiler.restored_s.{key}"] = rec.median_s(
                "compiler.compile", model=key, cache_hit=True
            )
            out[f"runtime.restored_first_query_s.{key}"] = rec.median_s(
                "runtime.first_query", model=key, restored=True
            )
            out[f"compiler.cache.disk_bytes.{key}"] = self.disk_bytes[key]
        for strategy in names.STRATEGIES:
            out[f"codegen.wins.{strategy}"] = (
                self.dispatch_totals.get(f"wins.{strategy}", 0) / self.rounds
            )
        return out

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None


# ----------------------------------------------------------------------
# machine_nkl
# ----------------------------------------------------------------------


def _qp(scale: float, zero_point: int) -> QuantParams:
    return QuantParams(scale=scale, zero_point=zero_point, dtype=NcoreDType.UINT8)


@dataclass
class Kind:
    """One NKL program template at a zoo-layer shape.

    ``emit(machine)`` stages RAM and returns ``(program, handle)``;
    ``read(machine, handle)`` fetches the result; ``expected`` is the
    matching ``qkernels`` result (or, where no bit-exact numpy kernel
    exists, the interpreter's output recorded at setup).
    """

    name: str
    emit: Callable[[Ncore], tuple[list, Any]]
    read: Callable[[Ncore, Any], np.ndarray]
    expected: np.ndarray | None = None
    ref_cycles: int = 0
    ref_instructions: int = 0
    interp_run_s: list[float] = field(default_factory=list)


def _read_handle(machine: Ncore, handle: Any) -> np.ndarray:
    return handle.read(machine)


def _read_row(machine: Ncore, row: int) -> np.ndarray:
    row_bytes = machine.config.row_bytes
    return np.frombuffer(machine.read_data_ram(row * row_bytes, row_bytes), np.uint8)


FIG6_TRIPS = 512
_FIG6_OUTPUT_ROW = 8


def _fig6_source() -> str:
    """The Fig. 6 fused convolution inner loop plus a requantize + store,
    so the loop leaves an output row to compare."""
    return f"""
    setaddr a0, 0
    setaddr a3, 0
    setaddr a5, 0
    bypass n0, dram[a0]
    loop {FIG6_TRIPS} {{
      broadcast64 n1, wtram[a3], a5, inc
      mac.uint8 dlast, n1
      rotl n0, n0, 64
    }}
    setaddr a6, {_FIG6_OUTPUT_ROW}
    requant.uint8
    store a6
    halt
    """


def build_kinds(rng: np.random.Generator) -> list[Kind]:
    """The fixed table of ten kinds; ``rng`` only fills tensor values."""

    def u8(*shape: int) -> np.ndarray:
        return rng.integers(0, 255, size=shape).astype(np.uint8)

    x_qp, w_qp = _qp(0.02, 128), _qp(0.01, 120)
    kinds: list[Kind] = []

    def conv(name, h, w, cin, cout, k, stride, padding):
        x, wt, out_qp = u8(1, h, w, cin), u8(k, k, cin, cout), _qp(0.3, 5)
        kinds.append(Kind(
            name,
            lambda m: nkl.emit_conv2d_program(
                m, x, wt, x_qp, w_qp, out_qp, padding=padding,
                stride=(stride, stride), activation="relu",
            ),
            _read_handle,
            qkernels.qconv2d(
                x, wt, None, x_qp, w_qp, out_qp, stride=(stride, stride),
                padding=padding, activation="relu",
            ),
        ))

    same = ((1, 1), (1, 1))
    # A 3x3 conv row band at the deepest cin the single-pass template fits.
    conv("conv3x3_s1", 28, 28, 7, 64, 3, 1, same)
    # The MobileNet stem (3x3/2, cin=3, 32 filters) on a 16 x 112 band.
    conv("conv3x3_s2", 16, 112, 3, 32, 3, 2, ((0, 1), (0, 1)))
    # MobileNet pointwise 64 -> 64 at 14 x 14.
    conv("conv1x1", 14, 14, 64, 64, 1, 1, ((0, 0), (0, 0)))

    x, wt, out_qp = u8(1, 28, 28, 64), u8(3, 3, 64), _qp(0.5, 5)
    kinds.append(Kind(
        "depthwise3x3",
        lambda m: nkl.emit_depthwise_program(
            m, x, wt, x_qp, w_qp, out_qp, padding=same, activation="relu6"
        ),
        _read_handle,
        qkernels.qdepthwise(
            x, wt, None, x_qp, w_qp, out_qp, stride=(1, 1), padding=same,
            activation="relu6",
        ),
    ))

    data, fc_w = u8(128, 512), u8(512, 128)
    fc_in, fc_wq, fc_out = _qp(0.01, 128), _qp(0.01, 128), _qp(0.05, 8)
    kinds.append(Kind(
        "matmul_fc",
        lambda m: nkl.emit_tiled_matmul_program(m, data, fc_w, fc_in, fc_wq, fc_out, "relu"),
        _read_handle,
        qkernels.qfully_connected(data, fc_w, None, fc_in, fc_wq, fc_out, "relu"),
    ))

    pool_rows = u8(9, 4096)  # a 3x3 window, one 4096-lane row per tap
    kinds.append(Kind(
        "maxpool_rows",
        lambda m: nkl.emit_max_pool_rows_program(m, pool_rows),
        _read_row,
        qkernels.qmax_pool(pool_rows.reshape(1, 9, 1, 4096), (9, 1), (1, 1)).reshape(-1),
    ))

    avg_rows = u8(49, 4096)  # the 7x7 global pool
    # The OUT unit's fixed-point 1/49 is within one code of qavg_pool's
    # round-half-up, not bit-equal: expected comes from the interpreter.
    kinds.append(Kind(
        "avgpool", lambda m: nkl.emit_avg_pool_program(m, avg_rows), _read_row
    ))

    add_a, add_b = u8(4096), u8(4096)
    add_in, add_out = _qp(0.02, 128), _qp(0.05, 10)
    mult, shift = quantize_multiplier(add_in.scale / add_out.scale)
    acc = (add_a.astype(np.int64) - 128) + (add_b.astype(np.int64) - 128)
    kinds.append(Kind(
        "eltwise_add",
        lambda m: nkl.emit_elementwise_add_program(m, add_a, add_b, add_in, add_out),
        _read_row,
        requantize(acc.astype(np.int32), mult, shift, 10, NcoreDType.UINT8),
    ))

    taps, w_out, channels = 9, 56, 64
    signal, filt = u8(w_out + taps - 1), u8(channels, taps)
    c_in, c_w, c_out = _qp(0.02, 128), _qp(0.02, 128), _qp(0.1, 30)
    kinds.append(Kind(
        "conv1d_rotate",
        lambda m: nkl.emit_conv1d_rotate_program(m, signal, filt, c_in, c_w, c_out),
        _read_handle,
        qkernels.qconv2d(
            signal.reshape(1, 1, -1, 1), filt.T.reshape(1, taps, 1, channels),
            None, c_in, c_w, c_out,
        ).reshape(w_out, channels),
    ))

    fig6_data, fig6_weights = u8(4096), u8(4096)
    fig6_mult, fig6_shift = quantize_multiplier(1.0 / (FIG6_TRIPS * 128))

    def emit_fig6(machine: Ncore):
        machine.write_data_ram(0, fig6_data.tobytes())
        machine.write_weight_ram(0, fig6_weights.tobytes())
        machine.set_requant(fig6_mult, fig6_shift, 0)
        return assemble(_fig6_source()), _FIG6_OUTPUT_ROW

    kinds.append(Kind("fig6_loop", emit_fig6, _read_row))
    return kinds


class MachineNkl(Workload):
    """Fresh ``Ncore()`` -> emit -> run -> read, on ten program kinds."""

    name = names.MACHINE_NKL
    setup_repeats = 3

    def __init__(self, seed: int, recorder: Recorder, out_dir: Path) -> None:
        super().__init__(seed, recorder, out_dir)
        self.kinds: list[Kind] = []
        self.cycles = 0
        self.instructions = 0
        self.fastpath = {"hits": 0, "misses": 0, "fallbacks": 0, "fused_trips": 0}

    def setup(self) -> None:
        """Reference run of every kind on the pure interpreter."""
        previous = {kind.name: kind.interp_run_s for kind in self.kinds}
        self.kinds = build_kinds(np.random.default_rng(self.seed))
        for kind in self.kinds:
            kind.interp_run_s = previous.get(kind.name, [])
            machine = Ncore(fastpath=False)
            program, handle = kind.emit(machine)
            start = time.perf_counter()
            run = nkl.run_streamed(machine, program)
            kind.interp_run_s.append(time.perf_counter() - start)
            self.check(run.halted, f"{kind.name}: interpreter run did not halt")
            output = np.array(kind.read(machine, handle))
            if kind.expected is None:
                kind.expected = output
            self.check(
                np.array_equal(output, kind.expected),
                f"{kind.name}: interpreter output differs from the numpy kernel",
            )
            kind.ref_cycles = machine.total_cycles
            kind.ref_instructions = machine.total_instructions

    def next_round(self) -> list[Op]:
        self.rounds += 1
        order = list(self.kinds)
        self.rng.shuffle(order)
        return [(kind.name, self._op(kind)) for kind in order]

    def _op(self, kind: Kind):
        def op() -> None:
            rec = self.rec
            machine = Ncore()
            with rec.span("nkl.emit", kind=kind.name):
                program, handle = kind.emit(machine)
            with rec.span("ncore.run", kind=kind.name):
                run = nkl.run_streamed(machine, program)
            with rec.span("ncore.read", kind=kind.name):
                output = kind.read(machine, handle)
            self.cycles += machine.total_cycles
            self.instructions += machine.total_instructions
            for counter in self.fastpath:
                self.fastpath[counter] += machine.fastpath_stats[counter]
            require(run.halted, f"{kind.name}: program did not halt")
            require(
                np.array_equal(output, kind.expected),
                f"{kind.name}: output differs from the reference",
            )
            # A simulator-only speed-up must leave simulated statistics alone.
            require(
                machine.total_cycles == kind.ref_cycles
                and machine.total_instructions == kind.ref_instructions,
                f"{kind.name}: cycles/instructions differ from the interpreter "
                f"({machine.total_cycles}/{machine.total_instructions} vs "
                f"{kind.ref_cycles}/{kind.ref_instructions})",
            )

        return op

    def exact(self) -> dict[str, float]:
        traces = self.fastpath["hits"] + self.fastpath["misses"] + self.fastpath["fallbacks"]
        return {
            "ncore.machine.cycles_total": self.cycles / self.rounds,
            "ncore.fastpath.hit_ratio": self.fastpath["hits"] / traces,
            "ncore.fastpath.fused_trip_share": self.fastpath["fused_trips"] / self.cycles,
        }

    def layers(self) -> dict[str, float]:
        rec = self.rec
        out: dict[str, float] = {}
        for kind in self.kinds:
            run_s = rec.median_s("ncore.run", kind=kind.name)
            out[f"ncore.machine.run_ms.{kind.name}"] = run_s * 1e3
            out[f"ncore.fastpath.speedup_vs_interp.{kind.name}"] = (
                median(kind.interp_run_s) / run_s
            )
            out[f"nkl.emit_ms.{kind.name}"] = rec.median_s("nkl.emit", kind=kind.name) * 1e3
        host_s = sum(rec.durations("ncore.run"))
        out["ncore.machine.sim_cycles_per_host_s"] = self.cycles / host_s
        out["ncore.machine.sim_instr_per_host_s"] = self.instructions / host_s
        # Assembler throughput on text shaped like an emitted conv program.
        block = (
            "setaddr a0, 3\nbypass n0, dram[a0]\nloop 3 {\n"
            "  broadcast64 n1, wtram[a3], a5, inc\n  mac.uint8 dlast, n1, zoff\n"
            "  rotl n0, n0, 1\n}\n"
        )
        source = "setaddr a3, 0\n" + block * 400 + "halt\n"
        count = len(assemble(source))
        out["isa.assemble_instr_per_s"] = 1e9 / per_elem_ns(lambda: assemble(source), count)
        return out


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CnnSteady, GnmtSteady, ColdStart, MachineNkl)
}
