"""The sweep driver: compile the zoo at every design point, rank, Pareto.

Each model is built and quantized **once**; every design point then runs
the config-parametric compiler (partition / plan / lower / verify) through
a :class:`~repro.compiler.CompileCache`, so repeated points are cache hits
and a 100-point sweep stays in seconds.  Points where a model cannot be
placed (the scratchpad is too small, the verifier rejects the loadable)
are recorded as *infeasible* with the reason — an infeasible region is a
design-space result, not an error.

Scoring is Ncore-centric: latency is the simulated Ncore portion, energy
and area come from :mod:`repro.explore.energy`, and the Pareto frontier is
the set of feasible points not dominated on (throughput up, power down,
area down).  Everything is deterministic for a given (grid, models, seed):
the JSON/CSV emitters sort keys and round uniformly, so byte-identical
output is a test invariant.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.analyze import AnalysisError
from repro.compiler import CompileCache, CompilerError, compile_graph
from repro.explore.energy import area_model, energy_model
from repro.explore.space import DesignPoint
from repro.graph.gir import Graph
from repro.graph.planner import PlanningError
from repro.models import PAPER_CHARACTERISTICS
from repro.perf.report import render_table

DEFAULT_MODELS: tuple[str, ...] = ("mobilenet_v1",)


@dataclass(frozen=True)
class ModelMetrics:
    """One model compiled at one design point."""

    compile_key: str
    cycles: int
    macs: int
    dram_bytes: int
    latency_ms: float
    throughput_ips: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "compile_key": self.compile_key,
            "cycles": self.cycles,
            "macs": self.macs,
            "dram_bytes": self.dram_bytes,
            "latency_ms": round(self.latency_ms, 6),
            "throughput_ips": round(self.throughput_ips, 3),
        }


@dataclass(frozen=True)
class PointResult:
    """One design point's scorecard."""

    point: DesignPoint
    feasible: bool
    reason: str = ""
    models: dict[str, ModelMetrics] = field(default_factory=dict)
    latency_ms: float = 0.0        # geometric mean over models
    throughput_ips: float = 0.0    # geometric mean over models
    energy_mj: float = 0.0         # geometric mean per-inference energy
    power_w: float = 0.0           # worst-case (max) over models
    area_mm2: float = 0.0
    pareto: bool = False

    def as_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = dict(self.point.as_dict())
        row["label"] = self.point.label
        row["feasible"] = self.feasible
        if not self.feasible:
            row["reason"] = self.reason
            return row
        row.update(
            latency_ms=round(self.latency_ms, 6),
            throughput_ips=round(self.throughput_ips, 3),
            energy_mj=round(self.energy_mj, 6),
            power_w=round(self.power_w, 4),
            area_mm2=round(self.area_mm2, 3),
            pareto=self.pareto,
            models={name: m.as_dict() for name, m in sorted(self.models.items())},
        )
        return row


@dataclass
class SweepResult:
    """All points of one sweep, plus provenance for deterministic replay."""

    points: list[PointResult]
    models: tuple[str, ...]
    seed: int
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def feasible(self) -> list[PointResult]:
        return [p for p in self.points if p.feasible]

    @property
    def frontier(self) -> list[PointResult]:
        return [p for p in self.points if p.pareto]

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "models": list(self.models),
            "grid_points": len(self.points),
            "feasible_points": len(self.feasible),
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "pareto": [p.point.label for p in self.frontier],
            "points": [p.as_dict() for p in self.points],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        fields = [
            "label", "slices", "sram_rows", "ring_width_bits", "ddr_channels",
            "clock_ghz", "feasible", "latency_ms", "throughput_ips",
            "energy_mj", "power_w", "area_mm2", "pareto", "reason",
        ]
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for result in self.points:
            row = result.as_dict()
            row.setdefault("reason", "")
            writer.writerow(row)
        return buf.getvalue()

    def render(self, top: int = 0) -> str:
        """Human-readable sweep report (the ``repro explore`` output)."""
        shown = self.feasible
        shown.sort(key=lambda p: (-p.throughput_ips, p.power_w, p.area_mm2, p.point.label))
        if top > 0:
            shown = shown[:top]
        rows = [
            [
                ("*" if p.pareto else " ") + p.point.label,
                f"{p.latency_ms:.3f}",
                f"{p.throughput_ips:,.0f}",
                f"{p.energy_mj:.3f}",
                f"{p.power_w:.2f}",
                f"{p.area_mm2:.1f}",
            ]
            for p in shown
        ]
        sections = [
            f"Design-space sweep: {len(self.points)} points, "
            f"{len(self.feasible)} feasible, {len(self.frontier)} on the frontier "
            f"(models: {', '.join(self.models)}; seed {self.seed}; "
            f"compile cache {self.cache_hits} hits / {self.cache_misses} misses)",
            render_table(
                "Perf / power / area (* = Pareto-optimal)",
                ["point", "lat ms", "ips", "mJ/inf", "W", "mm^2"],
                rows,
            ),
        ]
        infeasible = [p for p in self.points if not p.feasible]
        if infeasible:
            reasons: dict[str, int] = {}
            for p in infeasible:
                reasons[p.reason] = reasons.get(p.reason, 0) + 1
            sections.append(f"\n{len(infeasible)} infeasible points:")
            for reason, count in sorted(reasons.items()):
                sections.append(f"  {count:>4} x {reason}")
        return "\n".join(sections)


def _prepare_model(key: str) -> tuple[Graph, int, int]:
    """Build + quantize once; returns (graph, macs, io_bytes)."""
    info = PAPER_CHARACTERISTICS[key]
    graph = info.build()
    converted = info.convert(graph, seed=100)
    macs = int(graph.count_macs())
    io_bytes = 0
    for name in list(converted.inputs) + list(converted.outputs):
        io_bytes += int(converted.tensor(name).type.num_bytes)
    return converted, macs, io_bytes


def _score_point(
    point: DesignPoint,
    prepared: dict[str, tuple[Graph, int, int]],
    cache: CompileCache,
) -> PointResult:
    config = point.ncore_config()
    soc = point.soc_config()
    dma_bpc = soc.ncore_dma_bandwidth / config.clock_hz
    area = area_model(config, soc)
    metrics: dict[str, ModelMetrics] = {}
    energies: list[float] = []
    power = 0.0
    for name, (graph, macs, io_bytes) in prepared.items():
        try:
            # Name by model only: the compile key already fingerprints the
            # NcoreConfig, so points differing in SoC-only axes (ring, DDR)
            # share one compilation — that is the cache doing its job.
            result = compile_graph(graph, config=config, name=name, cache=cache)
        except (PlanningError, AnalysisError, CompilerError) as error:
            return PointResult(
                point=point,
                feasible=False,
                reason=f"{name}: {type(error).__name__}",
            )
        cycles = int(result.model.ncore_cycles(dma_bpc))
        seconds = cycles / config.clock_hz
        streamed = result.model.streamed_weight_bytes
        energy = energy_model(
            config, soc, macs=macs, cycles=cycles, dram_bytes=streamed + io_bytes
        )
        metrics[name] = ModelMetrics(
            compile_key=result.key,
            cycles=cycles,
            macs=macs,
            dram_bytes=streamed + io_bytes,
            latency_ms=seconds * 1e3,
            throughput_ips=1.0 / seconds if seconds > 0 else 0.0,
        )
        energies.append(energy.total_mj)
        power = max(power, energy.power_w(seconds))
    return PointResult(
        point=point,
        feasible=True,
        models=metrics,
        latency_ms=_geomean([m.latency_ms for m in metrics.values()]),
        throughput_ips=_geomean([m.throughput_ips for m in metrics.values()]),
        energy_mj=_geomean(energies),
        power_w=power,
        area_mm2=area.total_mm2,
    )


def _geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def pareto_frontier(results: Sequence[PointResult]) -> list[PointResult]:
    """Feasible points not dominated on (throughput up, power down, area down)."""
    feasible = [r for r in results if r.feasible]
    frontier: list[PointResult] = []
    for candidate in feasible:
        dominated = False
        for other in feasible:
            if other is candidate:
                continue
            if (
                other.throughput_ips >= candidate.throughput_ips
                and other.power_w <= candidate.power_w
                and other.area_mm2 <= candidate.area_mm2
                and (
                    other.throughput_ips > candidate.throughput_ips
                    or other.power_w < candidate.power_w
                    or other.area_mm2 < candidate.area_mm2
                )
            ):
                dominated = True
                break
        if not dominated:
            frontier.append(candidate)
    return frontier


def _check_execution(
    prepared: dict[str, tuple[Graph, int, int]],
    results: Sequence[PointResult],
    seed: int,
    queries: int,
) -> None:
    """Run a few queries at the best feasible point through the executor.

    Exercises the full runtime stack (verify gate, kernel driver, Tier-3
    macro-kernels under the oracle on the first query, replay cache on
    the repeats) and asserts bit-equality against the reference quantized
    executor at a *non-default* config.
    """
    from repro.runtime import NcoreExecutor, execute_quantized
    from repro.soc.cha import ChaSoc

    feasible = [r for r in results if r.feasible]
    if not feasible or queries < 1:
        return
    best = max(feasible, key=lambda r: (r.throughput_ips, r.point.label))
    name = sorted(prepared)[0]
    graph, _, _ = prepared[name]
    config = best.point.ncore_config()
    compiled = compile_graph(graph, config=config, name=name, cache=None).model
    rng = np.random.default_rng(seed)
    feeds = {
        input_name: rng.uniform(-1.0, 1.0, compiled.graph.tensor(input_name).shape).astype(
            np.float32
        )
        for input_name in compiled.graph.inputs
    }
    reference = execute_quantized(compiled.graph, feeds)
    executor = NcoreExecutor(compiled, soc=ChaSoc(ncore_config=config))
    try:
        for query in range(queries):  # repeats exercise the replay tier
            outputs = executor.execute(feeds).outputs
            tier = "replay" if query else "codegen"
            if executor.last_tier != tier:
                raise AssertionError(
                    f"query {query} ran on tier {executor.last_tier!r}, not {tier!r}"
                )
            for tensor_name, expected in reference.items():
                np.testing.assert_array_equal(outputs[tensor_name], expected)
    finally:
        executor.close()


def run_sweep(
    points: Sequence[DesignPoint],
    models: Sequence[str] = DEFAULT_MODELS,
    seed: int = 0,
    execute_queries: int = 0,
) -> SweepResult:
    """Score every design point; returns the full, deterministically ordered
    result set with the Pareto frontier marked.

    ``execute_queries > 0`` additionally runs that many queries at the
    best feasible point through the cycle-level runtime (replay tier and
    verify gate included), asserting bit-equality with the reference
    executor.
    """
    for name in models:
        if name not in PAPER_CHARACTERISTICS:
            raise KeyError(f"unknown model {name!r}")
    prepared = {name: _prepare_model(name) for name in sorted(set(models))}
    cache = CompileCache(capacity=max(1, len(points) * len(prepared)))
    scored = [_score_point(point, prepared, cache) for point in points]
    frontier_labels = {r.point.label for r in pareto_frontier(scored)}
    results = [
        PointResult(
            point=r.point,
            feasible=r.feasible,
            reason=r.reason,
            models=r.models,
            latency_ms=r.latency_ms,
            throughput_ips=r.throughput_ips,
            energy_mj=r.energy_mj,
            power_w=r.power_w,
            area_mm2=r.area_mm2,
            pareto=r.point.label in frontier_labels,
        )
        for r in scored
    ]
    _check_execution(prepared, results, seed, execute_queries)
    return SweepResult(
        points=results,
        models=tuple(sorted(set(models))),
        seed=seed,
        cache_hits=cache.stats.hits,
        cache_misses=cache.stats.misses,
    )
