"""Scratchpad memory planning and weight scheduling (section V-B).

"Since Ncore uses software-managed scratchpad memories rather than a cache,
the GCL and NKL perform the appropriate memory management during code
generation.  As weights must be transferred via DMA into the Ncore
scratchpad memories from DDR, the GCL attempts to schedule the weights to
be non-speculatively prefetched as early as possible.  In the case of
MobileNetV1, the GCL determines that all the model's weights fit in on-chip
SRAM, and promotes the weight buffers to become persistent."

The planner allocates activation tensors to data-RAM rows with a linear-scan
allocator over tensor live ranges, and decides per-model between *pinned*
weights (everything resident in the 8 MB weight RAM) and *streamed* weights
(double-buffered, with an as-early-as-possible prefetch schedule).

Where a streamed transfer lands is decided here and nowhere else: every
:class:`Prefetch` records the weight-RAM rows it writes, and the analyzers
read those rows rather than re-deriving the double buffer.  Consecutive
weight-consuming nodes alternate buffer halves, so a transfer issued one
node ahead fills the half the running kernel is not reading; where that
cannot hold (a layer tiled across both halves, and the layer after it) the
transfer issues at its own node instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.gir import Graph
from repro.graph.partitioner import Segment
from repro.ncore.config import CHA_NCORE, NcoreConfig


class PlanningError(RuntimeError):
    """The segment cannot be placed in Ncore's scratchpad memories."""


@dataclass(frozen=True)
class RowRange:
    """A contiguous run of RAM rows."""

    start: int
    rows: int

    @property
    def end(self) -> int:
        return self.start + self.rows


@dataclass(frozen=True)
class Prefetch:
    """One scheduled weight DMA: issue before ``issue_at_node`` executes,
    writing weight-RAM ``rows``."""

    tensor: str
    issue_at_node: int  # index into the segment's node list
    needed_at_node: int
    num_bytes: int
    rows: RowRange


@dataclass
class MemoryPlan:
    """Placement of one Ncore segment into the scratchpads."""

    data_allocs: dict[str, RowRange] = field(default_factory=dict)
    weight_allocs: dict[str, RowRange] = field(default_factory=dict)
    weights_pinned: bool = True
    prefetches: list[Prefetch] = field(default_factory=list)
    data_rows_used: int = 0
    weight_rows_used: int = 0
    row_bytes: int = CHA_NCORE.row_bytes  # RAM row width the plan assumed


def _rows_for(graph: Graph, tensor_name: str, row_bytes: int) -> int:
    num_bytes = graph.tensor(tensor_name).type.num_bytes
    return max(1, -(-num_bytes // row_bytes))


def _live_ranges(graph: Graph, segment: Segment) -> dict[str, tuple[int, int]]:
    """(first producing / arriving index, last consuming index) per tensor."""
    ranges: dict[str, tuple[int, int]] = {}
    boundary_inputs = set(segment.input_tensors(graph))
    boundary_outputs = set(segment.output_tensors(graph))
    last = len(segment.nodes) - 1
    for name in boundary_inputs:
        ranges[name] = (0, 0)
    for index, node in enumerate(segment.nodes):
        for name in node.inputs:
            if graph.tensor(name).is_constant:
                continue
            start = ranges.get(name, (index, index))[0]
            ranges[name] = (start, index)
        for name in node.outputs:
            ranges[name] = (index, ranges.get(name, (index, index))[1])
    for name in boundary_outputs:
        start, _ = ranges[name]
        ranges[name] = (start, last)  # must survive until readout
    return ranges


def _linear_scan(
    ranges: dict[str, tuple[int, int]],
    sizes: dict[str, int],
    capacity_rows: int,
) -> dict[str, RowRange]:
    """First-fit linear-scan register (row) allocation."""
    allocs: dict[str, RowRange] = {}
    # Free list of row intervals, kept sorted.
    free: list[list[int]] = [[0, capacity_rows]]
    active: list[tuple[int, str]] = []  # (last_use, tensor)
    for name, (start, _) in sorted(ranges.items(), key=lambda kv: (kv[1][0], kv[0])):
        # Expire tensors whose live range ended before this one starts.
        still_active = []
        for last_use, other in active:
            if last_use < start:
                _release(free, allocs[other])
            else:
                still_active.append((last_use, other))
        active = still_active
        rows = sizes[name]
        placed = False
        for interval in free:
            if interval[1] - interval[0] >= rows:
                allocs[name] = RowRange(interval[0], rows)
                interval[0] += rows
                placed = True
                break
        if not placed:
            raise PlanningError(
                f"tensor {name!r} needs {rows} rows but the scratchpad is full"
            )
        free[:] = [iv for iv in free if iv[0] < iv[1]]
        active.append((ranges[name][1], name))
    return allocs


def _release(free: list[list[int]], rng: RowRange) -> None:
    free.append([rng.start, rng.end])
    free.sort()
    merged: list[list[int]] = []
    for interval in free:
        if merged and merged[-1][1] >= interval[0]:
            merged[-1][1] = max(merged[-1][1], interval[1])
        else:
            merged.append(interval)
    free[:] = merged


def plan_memory(
    graph: Graph, segment: Segment, config: NcoreConfig | None = None
) -> MemoryPlan:
    """Place one Ncore segment's tensors into the scratchpad RAMs."""
    config = config or NcoreConfig()
    row_bytes = config.row_bytes
    plan = MemoryPlan(row_bytes=row_bytes)

    # --- activations: linear scan over live ranges in the data RAM ---
    ranges = _live_ranges(graph, segment)
    sizes = {name: _rows_for(graph, name, row_bytes) for name in ranges}
    plan.data_allocs = _linear_scan(ranges, sizes, config.sram_rows)
    if plan.data_allocs:
        plan.data_rows_used = max(r.end for r in plan.data_allocs.values())

    # --- weights: pin when everything fits, stream otherwise ---
    weight_tensors: list[tuple[int, str]] = []
    seen: set[str] = set()
    for index, node in enumerate(segment.nodes):
        for name in node.inputs:
            tensor = graph.tensor(name)
            if tensor.is_constant and name not in seen:
                seen.add(name)
                weight_tensors.append((index, name))
    weight_rows = {name: _rows_for(graph, name, row_bytes) for _, name in weight_tensors}
    total_rows = sum(weight_rows.values())

    if total_rows <= config.sram_rows:
        # Promote weight buffers to persistent (the MobileNet case).
        plan.weights_pinned = True
        cursor = 0
        for _, name in weight_tensors:
            plan.weight_allocs[name] = RowRange(cursor, weight_rows[name])
            cursor += weight_rows[name]
        plan.weight_rows_used = cursor
    else:
        # Stream through a double buffer.  A layer whose weights exceed
        # half the weight RAM is tiled: its matmul is split into chunks
        # that each fit one buffer half, prefetched back to back (the
        # "intra-layer weight tiling" case — GNMT's LSTM and projection
        # matrices need it).
        plan.weights_pinned = False
        half = config.sram_rows // 2
        by_node: dict[int, list[str]] = {}
        for index, name in weight_tensors:
            by_node.setdefault(index, []).append(name)
        # free_at[h]: the first node at which no earlier node reads half h.
        free_at = [0, 0]
        side, issue = 1, 0
        for index, names in by_node.items():
            # Each weight-consuming node packs its constants into the half
            # the previous one did not end in.
            side, cursor = 1 - side, 0
            earlier = list(free_at)
            for name in names:
                rows = weight_rows[name]
                chunks = max(1, -(-rows // half))
                chunk_rows = -(-rows // chunks)
                chunk_bytes = -(-graph.tensor(name).type.num_bytes // chunks)
                for chunk in range(chunks):
                    if cursor + chunk_rows > half:
                        side, cursor = 1 - side, 0  # spill into the other half
                    landing = RowRange(side * half + cursor, chunk_rows)
                    cursor += chunk_rows
                    plan.weight_allocs.setdefault(name, landing)
                    # As early as possible: one layer ahead, unless an
                    # earlier node still reads this half then; never ahead
                    # of the transfer queued before it (one DMA engine).
                    issue = max(index - 1, earlier[side], issue)
                    free_at[side] = index + 1
                    plan.prefetches.append(
                        Prefetch(
                            tensor=name if chunks == 1 else f"{name}#chunk{chunk}",
                            issue_at_node=issue,
                            needed_at_node=index,
                            num_bytes=chunk_bytes,
                            rows=landing,
                        )
                    )
        plan.weight_rows_used = config.sram_rows
    return plan
