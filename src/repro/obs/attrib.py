"""Cycle-attribution profiling: compiled cycles back to GIR segments.

The paper debugs MLPerf bring-up by reading performance counters against
the known kernel schedule (Fig. 10).  This module systematises that: it
maps retired cycles and DMA bytes back through the compiled artifact —
GIR segment -> op -> lowered kernel — and labels each record with the
graph mode that produced the cycles (the executor's ``last_tier``:
``interpreter`` / ``codegen`` / ``replay``; or the serving harness's
analytic ``timing-model``).

Pure functions of a compiled model; nothing is installed process-wide.
Two outputs:

- **Segment feature records** (JSONL, :func:`model_run_records` +
  :func:`write_harvest`): per-segment op mix, output shapes, streamed DMA
  bytes, loop trip counts, MACs and cycles — the training schema a
  learned cycle predictor (NeuroScalar/SimNet in PAPERS.md; parked in
  ROADMAP.md) would consume.  Harvest with
  ``repro serve <model> --harvest run.jsonl``.
- **Collapsed stacks** for flamegraph tooling (:func:`collapsed_stacks`,
  ``model;segment[i] (tier);op cycles`` — feed straight into
  ``flamegraph.pl`` or speedscope).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.graph.loadable import CompiledModel


def segment_features(model: "CompiledModel") -> list[dict[str, Any]]:
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
                total_cycles=loadable.total_cycles(),
                utilization=loadable.mean_utilization,
            )
        records.append(record)
    return records


def model_run_records(
    model: "CompiledModel", tier: str, batch: int = 1, count: int = 1,
) -> list[dict[str, Any]]:
    """Harvest records for ``count`` executions of a model on one tier.

    One record per segment: the static features plus the tier, batch
    size and execution count (none when ``count`` < 1).  A replay hit
    contributes records with ``tier="replay"`` — its cycles are the
    cycles *avoided*, which is exactly what a predictor trained on this
    harvest needs to see labelled.
    """
    if count < 1:
        return []
    return [
        {**features, "tier": tier, "batch": batch, "count": count}
        for features in segment_features(model)
    ]


def write_harvest(path: str, records: list[dict[str, Any]]) -> int:
    """Write the harvest file: one JSON record per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def collapsed_stacks(records: list[dict[str, Any]]) -> str:
    """Flamegraph-ready collapsed stacks, cycles as sample weights.

    Frame order: model ; segment[i] (tier) ; op.  Cycle weights are
    per-op compute cycles times the execution count, so the widest
    frames are where the simulated silicon spent its time; a segment
    without Ncore cycles (x86 fallback) weighs its op counts instead.
    """
    weights: dict[tuple[str, str, str], int] = {}
    for record in records:
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
