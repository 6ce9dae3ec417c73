"""Cycle-attribution profiling: wall-clock results back to GIR segments.

The paper debugs MLPerf bring-up by reading performance counters against
the known kernel schedule (Fig. 10).  This module systematises that: it
maps retired cycles and DMA bytes back through the compiled artifact —
GIR segment -> op -> lowered kernel — and stamps each execution with the
graph mode that actually ran it (``interpreter`` per-node walk /
``codegen`` macro-kernels / ``replay`` cache hit / the serving harness's
analytic ``timing-model``).

Two outputs:

- **Segment feature records** (JSONL): per-segment op mix, output
  shapes, streamed DMA bytes, loop trip counts, MACs and cycles — the
  training schema a learned cycle predictor (NeuroScalar/SimNet in
  PAPERS.md; parked in ROADMAP.md) would consume.  Harvest with
  ``repro serve <model> --harvest run.jsonl``.
- **Collapsed stacks** for flamegraph tooling
  (``model;segment[i];tier;op;kernel cycles`` — feed straight into
  ``flamegraph.pl`` or speedscope).

Like the tracer and the metrics registry, the collector has a zero-cost
null default: hot call sites check ``get_attrib().enabled`` first.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from repro.graph.loadable import CompiledModel

#: Graph modes a record can be attributed to.
TIER_INTERPRETER = "interpreter"
TIER_REPLAY = "replay"
TIER_CODEGEN = "codegen"
TIER_TIMING_MODEL = "timing-model"


def segment_features(
    model: "CompiledModel", dma_bytes_per_cycle: float = 40.96
) -> list[dict[str, Any]]:
    """Static per-segment feature dicts from one compiled artifact.

    One dict per segment in execution order.  Ncore segments carry the
    full lowered-kernel attribution (per-op cycle split, streamed DMA
    bytes, loop trip counts); x86 fallback segments carry the op mix
    with zero Ncore cycles, so a harvest still accounts for every node.
    """
    records: list[dict[str, Any]] = []
    for index, segment in enumerate(model.segments):
        ops: dict[str, int] = {}
        for node in segment.nodes:
            ops[node.op] = ops.get(node.op, 0) + 1
        record: dict[str, Any] = {
            "model": model.name,
            "segment": index,
            "target": segment.target,
            "ops": ops,
            "nodes": len(segment.nodes),
            "kernels": 0,
            "op_cycles": {},
            "output_shapes": [],
            "dma_bytes": 0,
            "weight_bytes": 0,
            "weights_pinned": False,
            "loop_trips": 0,
            "macs": 0,
            "compute_cycles": 0,
            "total_cycles": 0,
            "utilization": 0.0,
        }
        loadable = model.loadables.get(index)
        if loadable is not None:
            op_cycles: dict[str, int] = {}
            shapes: list[list[int]] = []
            trips = 0
            for kernel in loadable.kernels:
                op_cycles[kernel.op] = op_cycles.get(kernel.op, 0) + kernel.cycles
                trips += int(kernel.meta.get("passes", 0))
                if kernel.output_tensor:
                    shape = model.graph.tensor(kernel.output_tensor).shape
                    shapes.append([int(dim) for dim in shape])
            streamed = (
                0 if loadable.memory_plan.weights_pinned
                else loadable.weight_image_bytes
            )
            record.update(
                kernels=len(loadable.kernels),
                op_cycles=op_cycles,
                output_shapes=shapes,
                dma_bytes=streamed,
                weight_bytes=loadable.weight_image_bytes,
                weights_pinned=loadable.memory_plan.weights_pinned,
                loop_trips=trips,
                macs=sum(k.macs for k in loadable.kernels),
                compute_cycles=loadable.compute_cycles,
                total_cycles=loadable.total_cycles(dma_bytes_per_cycle),
                utilization=loadable.mean_utilization,
            )
        records.append(record)
    return records


class NullAttribution:
    """The no-op default collector (mirrors ``NullTracer``)."""

    enabled = False

    def record(self, **fields: Any) -> None:
        pass

    def record_model_run(
        self, model: "CompiledModel", tier: str, batch: int = 1,
        count: int = 1, dma_bytes_per_cycle: float = 40.96,
    ) -> None:
        pass


NULL_ATTRIB = NullAttribution()


class AttributionCollector:
    """Accumulates per-segment execution records for one observed run."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        # Static features are pure functions of the compiled artifact;
        # cache them per model object so per-query recording is cheap.
        self._features: dict[int, list[dict[str, Any]]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.records)

    def record(self, **fields: Any) -> None:
        """Append one free-form record (must carry the schema keys)."""
        self.records.append(fields)

    def features_for(
        self, model: "CompiledModel", dma_bytes_per_cycle: float = 40.96
    ) -> list[dict[str, Any]]:
        cached = self._features.get(id(model))
        if cached is None:
            cached = segment_features(model, dma_bytes_per_cycle)
            self._features[id(model)] = cached
        return cached

    def record_model_run(
        self, model: "CompiledModel", tier: str, batch: int = 1,
        count: int = 1, dma_bytes_per_cycle: float = 40.96,
    ) -> None:
        """Attribute ``count`` executions of a model to one tier.

        Emits one record per segment: the static features plus the tier,
        batch size and execution count.  A replay hit contributes records
        with ``tier="replay"`` — its cycles are the cycles *avoided*,
        which is exactly what a predictor trained on this harvest needs
        to see labelled.
        """
        if count < 1:
            return
        for features in self.features_for(model, dma_bytes_per_cycle):
            record = dict(features)
            record["tier"] = tier
            record["batch"] = batch
            record["count"] = count
            self.records.append(record)

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------

    def write_jsonl(self, path: str) -> int:
        """Write the harvest file: one JSON record per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(self.records)

    def collapsed_stacks(self) -> str:
        """Flamegraph-ready collapsed stacks, cycles as sample weights.

        Frame order: model ; segment[i] (tier) ; op.  Cycle weights are
        per-op compute cycles times the execution count, so the widest
        frames are where the simulated silicon spent its time.
        """
        weights: dict[tuple[str, str, str], int] = {}
        for record in self.records:
            count = int(record.get("count", 1))
            model = str(record.get("model", "?"))
            frame = f"segment[{record.get('segment', '?')}] ({record.get('tier', '?')})"
            op_cycles: dict[str, int] = record.get("op_cycles") or {}
            if op_cycles:
                for op, cycles in op_cycles.items():
                    key = (model, frame, op)
                    weights[key] = weights.get(key, 0) + int(cycles) * count
            else:
                for op, n in (record.get("ops") or {}).items():
                    key = (model, frame, op)
                    weights[key] = weights.get(key, 0) + int(n) * count
        lines = [
            ";".join(key) + f" {weight}"
            for key, weight in sorted(weights.items())
            if weight > 0
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The installed collector (module-level, like the tracer)
# ----------------------------------------------------------------------

_installed: NullAttribution | AttributionCollector = NULL_ATTRIB


def get_attrib() -> NullAttribution | AttributionCollector:
    """The installed collector, or the zero-cost :data:`NULL_ATTRIB`."""
    return _installed


def set_attrib(collector: AttributionCollector | NullAttribution | None) -> None:
    global _installed
    _installed = collector if collector is not None else NULL_ATTRIB


class install_attrib:
    """Install a collector for a ``with`` block (nests, restores on exit)."""

    def __init__(self, collector: AttributionCollector | None = None) -> None:
        self.collector = collector if collector is not None else AttributionCollector()
        self._previous: NullAttribution | AttributionCollector | None = None

    def __enter__(self) -> AttributionCollector:
        self._previous = _installed
        set_attrib(self.collector)
        return self.collector

    def __exit__(self, *exc: object) -> None:
        set_attrib(self._previous)
