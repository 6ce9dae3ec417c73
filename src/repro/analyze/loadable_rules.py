"""Loadable verifier: abstract interpretation of DMA schedules and kernels.

Re-checks every :class:`~repro.graph.loadable.NcoreLoadable` against its
:class:`~repro.graph.planner.MemoryPlan` and the target
:class:`~repro.ncore.config.NcoreConfig` *without executing it*: scratchpad
placements and the rows every weight prefetch lands in must fit the RAMs,
no kernel may read a scratchpad region no DMA or earlier kernel has
written, simultaneously-live allocations must not overlap, and every
prefetch must name nodes of the segment.  The prefetch schedule's ordering
faults (a transfer issued after its consumer, or overwriting rows a kernel
has not read yet) are the happens-before analyzer's ``hazard.*`` rules,
run from the same :func:`analyze_loadable` gate.
"""

from __future__ import annotations

import numpy as np

from repro.graph.gir import Graph
from repro.graph.loadable import CompiledModel, NcoreLoadable
from repro.graph.planner import RowRange, _live_ranges
from repro.ncore.config import NcoreConfig

from repro.analyze.hazard import analyze_loadable_hazards

from repro.analyze.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    diag,
    register_rule,
)

SRAM_OVERFLOW = register_rule(
    "ldb.sram-overflow", Severity.ERROR, "allocation outside the scratchpad",
    "A planned row range, or the rows a weight prefetch lands in, ends "
    "beyond the RAM's row capacity; on silicon the access wraps or faults.",
)
ALLOC_OVERLAP = register_rule(
    "ldb.alloc-overlap", Severity.ERROR, "overlapping live allocations",
    "Two tensors with overlapping live ranges share scratchpad rows; one "
    "will read the other's bytes.",
)
UNINITIALIZED_READ = register_rule(
    "ldb.uninitialized-read", Severity.ERROR, "read of unwritten scratchpad",
    "A kernel reads an activation that no DMA (segment boundary input) and "
    "no earlier kernel in the segment has written — stale scratchpad bytes.",
)
UNPLACED_TENSOR = register_rule(
    "ldb.unplaced-tensor", Severity.ERROR, "kernel operand has no allocation",
    "A kernel touches an activation the memory plan never placed in the "
    "data RAM.",
)
MISSING_WEIGHTS = register_rule(
    "ldb.missing-weights", Severity.ERROR, "weights never staged",
    "A kernel's constant operand has no weight-RAM allocation (and, when "
    "streaming, no prefetch), so the kernel would read stale weight rows.",
)
PREFETCH_RANGE = register_rule(
    "ldb.prefetch-range", Severity.ERROR, "prefetch indexes outside the segment",
    "A prefetch's issue or needed node index does not name a node of the "
    "segment.",
)
KERNEL_MISMATCH = register_rule(
    "ldb.kernel-mismatch", Severity.ERROR, "kernels disagree with the segment",
    "The loadable's kernel invocations do not line up one-to-one with the "
    "segment's nodes.",
)

_ERROR_KEY = "__analyze_internal__"


#: Pairs one block of :func:`_live_clashes` tests at once: its boolean
#: temporaries stay near a megabyte whatever the plan's size.
_BLOCK_PAIRS = 1 << 18


def _live_clashes(
    rows: list[RowRange], lives: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Every index pair ``(i, j)``, ``i < j``, whose half-open row ranges
    overlap and whose inclusive live ranges intersect, in ascending order.

    Both interval tests run at once as numpy comparisons, a block of
    ``i`` against every later ``j`` at a time: most row-sharing pairs of
    a plan are never live together, so testing rows first and liveness
    per pair in Python costs more than testing every pair here.
    """
    count = len(rows)
    starts = np.array([rng.start for rng in rows], dtype=np.int64)
    ends = np.array([rng.end for rng in rows], dtype=np.int64)
    first = np.array([live[0] for live in lives], dtype=np.int64)
    last = np.array([live[1] for live in lives], dtype=np.int64)
    step = max(1, _BLOCK_PAIRS // max(count, 1))
    pairs: list[tuple[int, int]] = []
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        clash = (
            (starts[lo:hi, None] < ends[None, lo:])
            & (starts[None, lo:] < ends[lo:hi, None])
            & (first[lo:hi, None] <= last[None, lo:])
            & (first[None, lo:] <= last[lo:hi, None])
        )
        # Keep j > i; nonzero is row-major, so the pairs come out ascending.
        a, b = np.nonzero(np.triu(clash, 1))
        pairs.extend(zip((a + lo).tolist(), (b + lo).tolist()))
    return pairs


def _check_allocs(
    loadable: NcoreLoadable, config: NcoreConfig
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    plan = loadable.memory_plan

    def check(what: str, rng: RowRange, element: str, index: int | None) -> None:
        if rng.start < 0 or rng.end > config.sram_rows:
            findings.append(diag(
                SRAM_OVERFLOW,
                f"{what} spans rows [{rng.start}, {rng.end}) but the RAM "
                f"has {config.sram_rows} rows",
                artifact=loadable.name, element=element, index=index,
            ))

    for ram, allocs in (("data RAM", plan.data_allocs), ("weight RAM", plan.weight_allocs)):
        for tensor, rng in allocs.items():
            check(f"{ram} allocation for {tensor!r}", rng, tensor, None)
    for position, prefetch in enumerate(plan.prefetches):
        check(f"prefetch of {prefetch.tensor!r} into the weight RAM",
              prefetch.rows, prefetch.tensor, position)
    return findings


def _check_data_overlaps(
    graph: Graph, loadable: NcoreLoadable
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    plan = loadable.memory_plan
    try:
        ranges = _live_ranges(graph, loadable.segment)
    except KeyError:
        return findings  # segment references unknown tensors; reported elsewhere
    placed = [
        (name, rng, ranges[name])
        for name, rng in plan.data_allocs.items()
        if name in ranges
    ]
    rows = [rows for _, rows, _ in placed]
    for i, j in _live_clashes(rows, [live for _, _, live in placed]):
        name_a, rows_a, live_a = placed[i]
        name_b, rows_b, live_b = placed[j]
        findings.append(diag(
            ALLOC_OVERLAP,
            f"tensors {name_a!r} and {name_b!r} are live together "
            f"(nodes {live_a} vs {live_b}) but share data-RAM rows "
            f"[{max(rows_a.start, rows_b.start)}, "
            f"{min(rows_a.end, rows_b.end)})",
            artifact=loadable.name, element=name_a,
        ))
    return findings


def _check_dataflow(
    graph: Graph, loadable: NcoreLoadable
) -> list[Diagnostic]:
    """Uninitialized-read detection: abstract-interpret the segment's
    kernel order against the set of scratchpad regions written so far."""
    findings: list[Diagnostic] = []
    segment = loadable.segment
    plan = loadable.memory_plan
    written: set[str] = set(segment.input_tensors(graph))  # staged by host DMA
    for index, node in enumerate(segment.nodes):
        for tensor_name in node.inputs:
            tensor = graph.tensor(tensor_name)
            if tensor.is_constant:
                continue
            if tensor_name not in written:
                findings.append(diag(
                    UNINITIALIZED_READ,
                    f"kernel for node {node.name!r} reads {tensor_name!r}, "
                    "which no DMA or earlier kernel has written",
                    artifact=loadable.name, element=node.name, index=index,
                    hint="the segment's node order does not respect dataflow",
                ))
            if tensor_name not in plan.data_allocs:
                findings.append(diag(
                    UNPLACED_TENSOR,
                    f"kernel for node {node.name!r} reads {tensor_name!r}, "
                    "which the memory plan never placed",
                    artifact=loadable.name, element=node.name, index=index,
                ))
        for tensor_name in node.outputs:
            written.add(tensor_name)
            if tensor_name not in plan.data_allocs:
                findings.append(diag(
                    UNPLACED_TENSOR,
                    f"kernel for node {node.name!r} writes {tensor_name!r}, "
                    "which the memory plan never placed",
                    artifact=loadable.name, element=node.name, index=index,
                ))
    return findings


def _check_weights(
    graph: Graph, loadable: NcoreLoadable
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    plan = loadable.memory_plan
    prefetched_by: dict[str, int] = {}
    for prefetch in plan.prefetches:
        base = prefetch.tensor.split("#chunk", 1)[0]
        needed = prefetched_by.get(base, -1)
        prefetched_by[base] = max(needed, prefetch.needed_at_node)
    for index, node in enumerate(loadable.segment.nodes):
        for tensor_name in node.inputs:
            if not graph.tensor(tensor_name).is_constant:
                continue
            if tensor_name not in plan.weight_allocs:
                findings.append(diag(
                    MISSING_WEIGHTS,
                    f"kernel for node {node.name!r} reads constant "
                    f"{tensor_name!r}, which has no weight-RAM allocation",
                    artifact=loadable.name, element=node.name, index=index,
                ))
            elif not plan.weights_pinned:
                needed = prefetched_by.get(tensor_name)
                if needed is None:
                    findings.append(diag(
                        MISSING_WEIGHTS,
                        f"streamed weights for node {node.name!r} constant "
                        f"{tensor_name!r} have no prefetch in the DMA schedule",
                        artifact=loadable.name, element=node.name, index=index,
                    ))
    return findings


def _check_prefetches(
    loadable: NcoreLoadable
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    plan = loadable.memory_plan
    num_nodes = len(loadable.segment.nodes)
    for position, prefetch in enumerate(plan.prefetches):
        if not (0 <= prefetch.issue_at_node < num_nodes) or not (
            0 <= prefetch.needed_at_node < num_nodes
        ):
            findings.append(diag(
                PREFETCH_RANGE,
                f"prefetch of {prefetch.tensor!r} indexes nodes "
                f"({prefetch.issue_at_node}, {prefetch.needed_at_node}) but the "
                f"segment has {num_nodes} node(s)",
                artifact=loadable.name, element=prefetch.tensor, index=position,
            ))
    return findings


def _check_kernels(
    loadable: NcoreLoadable
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    node_names = [node.name for node in loadable.segment.nodes]
    kernel_names = [kernel.node_name for kernel in loadable.kernels]
    if kernel_names != node_names:
        findings.append(diag(
            KERNEL_MISMATCH,
            f"loadable lowers nodes {kernel_names!r} but the segment contains "
            f"{node_names!r}",
            artifact=loadable.name, element=loadable.name,
        ))
    return findings


def analyze_loadable(
    graph: Graph,
    loadable: NcoreLoadable,
    config: NcoreConfig | None = None,
    suppress: tuple[str, ...] = (),
) -> AnalysisReport:
    """Run the full Loadable pass stack over one compiled segment."""
    config = config or NcoreConfig()
    report = AnalysisReport()
    report.extend(_check_allocs(loadable, config))
    report.extend(_check_dataflow(graph, loadable))
    report.extend(_check_data_overlaps(graph, loadable))
    report.extend(_check_weights(graph, loadable))
    report.extend(_check_prefetches(loadable))
    if loadable.kernels:  # empty before lowering finishes; nothing to check
        report.extend(_check_kernels(loadable))
    # Whole-schedule happens-before analysis (hazard.* rules: the late-
    # prefetch and transfer-overwrite checks) rides the same gate.
    report.extend(analyze_loadable_hazards(graph, loadable))
    if suppress:
        report = report.suppress(suppress)
    return report


def analyze_compiled_model(
    model: CompiledModel,
    config: NcoreConfig | None = None,
    suppress: tuple[str, ...] = (),
) -> AnalysisReport:
    """Analyze every loadable of a :class:`CompiledModel`."""
    report = AnalysisReport()
    for loadable in model.loadables.values():
        report.merge(analyze_loadable(model.graph, loadable, config, suppress))
    return report
