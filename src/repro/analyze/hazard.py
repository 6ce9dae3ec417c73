"""Happens-before hazard analyzer over DMA schedules and compute order.

The Loadable verifier (``loadable_rules``) checks placements, dataflow and
prefetch indices; this module builds the *whole-schedule* happens-before
graph — DMA transfers per engine, DMA_WAIT synchronization edges,
kernel/segment execution order — and runs interval analysis over SRAM row
ranges to find the orderings the schedule never established: RAW (a read
may observe an in-flight DMA write), WAR (a write lands in rows still being
read out), WAW (two unordered writes to the same rows), dead transfers
nothing ever consumes, and cycles in the happens-before relation itself.

Two entry points share the rule set and the :class:`HazardGraph` model:

- :func:`analyze_loadable_hazards` works on a compiled
  :class:`~repro.graph.loadable.NcoreLoadable`: the prefetch schedule
  versus kernel order, over the rows each
  :class:`~repro.graph.planner.Prefetch` records (the planner alone
  decides where a transfer lands), and
- :func:`analyze_program_hazards` works on an assembled instruction
  program plus its DMA descriptor table, over the program verifier's
  :class:`~repro.analyze.program_rules.AddressWalk`.

Findings are real orderings the schedule failed to establish; statically
unknowable addresses are simply not reported (the runtime shadow-SRAM
sanitizer in :mod:`repro.sanitize` covers those).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.gir import Graph
from repro.graph.loadable import NcoreLoadable
from repro.graph.planner import Prefetch, RowRange
from repro.isa.instruction import DMAOp, Instruction, SeqOp, SeqOpcode
from repro.ncore.config import NcoreConfig

from repro.analyze.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
    diag,
    register_rule,
)
from repro.analyze.program_rules import AddressWalk

RAW = register_rule(
    "hazard.raw", Severity.ERROR, "read may observe an in-flight DMA write",
    "A kernel or DMA read targets SRAM rows a DMA transfer is still "
    "writing, with no DMA_WAIT / completion edge ordering the two; the "
    "reader can observe half-written rows.",
)
WAR = register_rule(
    "hazard.war", Severity.ERROR, "write overwrites rows still being read",
    "A DMA or compute write lands in SRAM rows whose previous contents a "
    "kernel or an outbound DMA still needs, with no happens-before edge "
    "ordering the write after the last read.",
)
WAW = register_rule(
    "hazard.waw", Severity.ERROR, "unordered overlapping writes",
    "Two writes to overlapping SRAM rows have no happens-before ordering "
    "(e.g. a compute store races an in-flight DMA fill); the surviving "
    "bytes depend on transfer timing.",
)
DEAD_WRITE = register_rule(
    "hazard.dead-write", Severity.WARNING, "DMA transfer nothing consumes",
    "A DMA transfer stages SRAM rows that no kernel, store or outbound "
    "transfer ever reads before the program ends — a dead descriptor, "
    "almost certainly a scheduling bug.",
)
HB_CYCLE = register_rule(
    "hazard.hb-cycle", Severity.ERROR, "happens-before graph has a cycle",
    "The combined execution-order / DMA-completion edges form a cycle "
    "(e.g. a prefetch issued after the kernel that needs its data); no "
    "schedule can satisfy it.",
)
UNWAITED_DMA = register_rule(
    "hazard.unwaited-dma", Severity.WARNING, "DMA started but never awaited",
    "A transfer is still logically in flight when the program halts; the "
    "host may read the target buffer (or reload the scratchpad) before "
    "the engine finishes.",
)


# ----------------------------------------------------------------------
# The happens-before graph
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HazardNode:
    """One event of the happens-before graph.

    ``kind`` is ``kernel`` / ``compute`` / ``dma`` / ``wait`` / ``halt``;
    ``ram`` names the SRAM the event touches (``data`` / ``weight`` or
    empty) and ``rows`` the row interval, when statically known.
    """

    id: str
    kind: str
    label: str
    ram: str = ""
    rows: RowRange | None = None


@dataclass
class HazardGraph:
    """Happens-before events and edges for one artifact.

    Edge kinds: ``program`` (sequencer / kernel order), ``engine`` (DMA
    engine serialization), ``wait`` (DMA_WAIT retires a transfer) and
    ``data`` (a transfer's completion feeds the kernel that needs it).
    """

    name: str = "hazards"
    nodes: list[HazardNode] = field(default_factory=list)
    edges: list[tuple[str, str, str]] = field(default_factory=list)
    _ids: set[str] = field(default_factory=set)

    def add_node(
        self,
        id: str,
        kind: str,
        label: str,
        ram: str = "",
        rows: RowRange | None = None,
    ) -> str:
        if id not in self._ids:
            self._ids.add(id)
            self.nodes.append(HazardNode(id, kind, label, ram, rows))
        return id

    def add_edge(self, src: str, dst: str, kind: str = "program") -> None:
        edge = (src, dst, kind)
        if edge not in self.edges:
            self.edges.append(edge)

    def find_cycle(self) -> list[str] | None:
        """One cycle of node ids, or ``None`` — iterative colored DFS."""
        successors: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for src, dst, _ in self.edges:
            if src in successors and dst in successors:
                successors[src].append(dst)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = dict.fromkeys(successors, WHITE)
        for root in successors:
            if color[root] != WHITE:
                continue
            stack: list[tuple[str, int]] = [(root, 0)]
            path: list[str] = []
            while stack:
                node, edge_index = stack.pop()
                if edge_index == 0:
                    color[node] = GRAY
                    path.append(node)
                if edge_index < len(successors[node]):
                    stack.append((node, edge_index + 1))
                    child = successors[node][edge_index]
                    if color[child] == GRAY:
                        return path[path.index(child):] + [child]
                    if color[child] == WHITE:
                        stack.append((child, 0))
                else:
                    color[node] = BLACK
                    path.pop()
        return None

    def to_dot(self, cluster: int) -> str:
        """Graphviz rendering of this graph as the body of cluster
        ``cluster`` (see :func:`render_dot`)."""
        shapes = {"kernel": "box", "compute": "box", "dma": "ellipse",
                  "wait": "diamond", "halt": "octagon"}
        styles = {"program": "solid", "engine": "dashed",
                  "wait": "bold", "data": "dotted"}
        prefix, indent = f"c{cluster}_", "    "
        lines: list[str] = []
        for node in self.nodes:
            label = node.label
            if node.rows is not None:
                label += f"\\n{node.ram} rows [{node.rows.start}, {node.rows.end})"
            shape = shapes.get(node.kind, "box")
            lines.append(
                f'{indent}"{prefix}{node.id}" [label="{label}", shape={shape}];'
            )
        for src, dst, kind in self.edges:
            style = styles.get(kind, "solid")
            lines.append(
                f'{indent}"{prefix}{src}" -> "{prefix}{dst}" '
                f'[style={style}, label="{kind}"];'
            )
        return "\n".join(lines)


def render_dot(graphs: list[HazardGraph], name: str = "hazards") -> str:
    """Many per-loadable graphs as one digraph with subgraph clusters."""
    lines = [f'digraph "{name}" {{', "  rankdir=TB;"]
    for index, graph in enumerate(graphs):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f'    label="{graph.name}";')
        lines.append(graph.to_dot(index))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def _overlap(a: RowRange, b: RowRange) -> bool:
    return a.start < b.end and b.start < a.end


# ----------------------------------------------------------------------
# Loadable-level analysis: prefetch schedule versus kernel order
# ----------------------------------------------------------------------


def _base(tensor: str) -> str:
    return tensor.split("#chunk", 1)[0]


def build_loadable_hazard_graph(
    graph: Graph, loadable: NcoreLoadable
) -> HazardGraph:
    """The happens-before graph of one compiled segment.

    Kernel nodes in segment order; one DMA node per scheduled prefetch.
    A prefetch starts after ``kernel[issue_at - 1]`` (program edge),
    completes before ``kernel[needed_at]`` (data edge — the NKL's
    DMA_WAIT placement), and the single read engine serializes
    consecutive transfers (engine edges).
    """
    hb = HazardGraph(name=loadable.name)
    segment = loadable.segment
    plan = loadable.memory_plan
    previous: str | None = None
    for index, node in enumerate(segment.nodes):
        node_id = hb.add_node(f"k{index}", "kernel", f"{node.name} ({node.op})")
        if previous is not None:
            hb.add_edge(previous, node_id, "program")
        previous = node_id
    previous_dma: str | None = None
    for position, prefetch in enumerate(plan.prefetches):
        dma_id = hb.add_node(
            f"p{position}", "dma", f"prefetch {prefetch.tensor}",
            ram="weight", rows=prefetch.rows,
        )
        if previous_dma is not None:
            hb.add_edge(previous_dma, dma_id, "engine")
        previous_dma = dma_id
        if 0 < prefetch.issue_at_node <= len(segment.nodes):
            hb.add_edge(f"k{prefetch.issue_at_node - 1}", dma_id, "program")
        if 0 <= prefetch.needed_at_node < len(segment.nodes):
            hb.add_edge(dma_id, f"k{prefetch.needed_at_node}", "data")
    return hb


def analyze_loadable_hazards(
    graph: Graph, loadable: NcoreLoadable
) -> list[Diagnostic]:
    """Whole-schedule hazard analysis over one compiled segment."""
    findings: list[Diagnostic] = []
    segment = loadable.segment
    plan = loadable.memory_plan
    num_nodes = len(segment.nodes)
    hb = build_loadable_hazard_graph(graph, loadable)
    while (cycle := hb.find_cycle()) is not None:
        # Kernel order only runs forward: every cycle passes a transfer.
        # Report that one, then cut it out to find the next.
        position = next(int(n[1:]) for n in cycle if n.startswith("p"))
        prefetch = plan.prefetches[position]
        hb.edges = [e for e in hb.edges if f"p{position}" not in e[:2]]
        findings.append(diag(
            HB_CYCLE,
            f"prefetch of {prefetch.tensor!r} (queue slot {position}) is "
            "ordered after a kernel that needs it; the happens-before graph "
            "has a cycle: " + " -> ".join(cycle),
            artifact=loadable.name, element=prefetch.tensor, index=position,
            hint="issue_at_node must not exceed needed_at_node, and the "
                 "queue must follow consumption order",
        ))

    # First consumer of every constant, and the set of consumed tensors.
    first_consumer: dict[str, int] = {}
    consumed_by_nodes: set[str] = set()
    for index, node in enumerate(segment.nodes):
        for tensor_name in node.inputs:
            base = _base(tensor_name)
            consumed_by_nodes.add(base)
            first_consumer.setdefault(base, index)

    windows: list[tuple[int, Prefetch]] = []
    for position, prefetch in enumerate(plan.prefetches):
        base = _base(prefetch.tensor)
        if base not in consumed_by_nodes:
            findings.append(diag(
                DEAD_WRITE,
                f"prefetch of {prefetch.tensor!r} stages weight rows no "
                "kernel of the segment ever reads",
                artifact=loadable.name, element=prefetch.tensor, index=position,
            ))
        if not (0 <= prefetch.issue_at_node < num_nodes
                and 0 <= prefetch.needed_at_node < num_nodes):
            continue  # ldb.prefetch-range reported the bad indices
        # RAW: the data edge lands after the first consumer — that kernel
        # reads rows the engine may still be writing.
        consumer = first_consumer.get(base)
        if consumer is not None and consumer < prefetch.needed_at_node:
            findings.append(diag(
                RAW,
                f"kernel {segment.nodes[consumer].name!r} (node {consumer}) "
                f"reads {base!r} but its prefetch completes only before "
                f"node {prefetch.needed_at_node}",
                artifact=loadable.name, element=prefetch.tensor, index=position,
                hint="needed_at_node must not exceed the first consumer",
            ))
        windows.append((position, prefetch))

    # WAR, the one transfer-overwrite rule: transfer B, queued after A,
    # lands on rows of A's and is issued before A's consumer has run
    # (``issue_at_node`` <= A's ``needed_at_node``).  Chunks of one tensor
    # and transfers one kernel consumes are serialized by the NKL's
    # in-kernel waits; prefetch-vs-prefetch WAW cannot happen at this
    # level — one engine, one queue.
    for i, (pos_a, pf_a) in enumerate(windows):
        rows_a = pf_a.rows
        for pos_b, pf_b in windows[i + 1:]:
            rows_b = pf_b.rows
            if (_base(pf_a.tensor) == _base(pf_b.tensor)
                    or pf_a.needed_at_node == pf_b.needed_at_node
                    or not _overlap(rows_a, rows_b)
                    or pf_b.issue_at_node > pf_a.needed_at_node):
                continue
            findings.append(diag(
                WAR,
                f"prefetch of {pf_b.tensor!r} (queue slot {pos_b}, issued "
                f"before node {pf_b.issue_at_node}) overwrites rows "
                f"[{max(rows_a.start, rows_b.start)}, "
                f"{min(rows_a.end, rows_b.end)}) of {pf_a.tensor!r} "
                f"(queue slot {pos_a}), which kernel "
                f"{pf_a.needed_at_node} has not read yet",
                artifact=loadable.name, element=pf_b.tensor, index=pos_b,
                hint=f"issue it after node {pf_a.needed_at_node} or land it "
                     "in rows no pending kernel reads",
            ))
    return findings


# ----------------------------------------------------------------------
# Program-level analysis: instruction stream + DMA descriptor table
# ----------------------------------------------------------------------


@dataclass
class _Transfer:
    """One started DMA transfer during abstract interpretation."""

    node_id: str
    pc: int
    descriptor_index: int
    engine: str          # "dma_read" | "dma_write"
    ram: str             # "data" | "weight"
    rows: RowRange
    writes_sram: bool    # DRAM -> SRAM direction
    in_flight: bool = True
    consumed: bool = False


def _normalize_descriptors(
    descriptors: dict[int, DMAOp] | list[DMAOp | None] | None,
) -> dict[int, DMAOp]:
    if descriptors is None:
        return {}
    if isinstance(descriptors, dict):
        return dict(descriptors)
    return {
        index: descriptor
        for index, descriptor in enumerate(descriptors)
        if descriptor is not None
    }


def build_program_hazard_graph(
    program: list[Instruction],
    descriptors: dict[int, DMAOp] | list[DMAOp | None] | None,
    config: NcoreConfig | None = None,
    name: str = "program",
) -> tuple[HazardGraph, list[Diagnostic]]:
    """Interpret a program abstractly; return its HB graph plus findings.

    The rows each instruction touches come from the program verifier's
    :class:`AddressWalk` (``int | None`` address registers, loop fixpoint /
    widening), so every reported hazard involves statically-known row
    intervals; this pass adds only the DMA start / wait / halt events.
    """
    table = _normalize_descriptors(descriptors)
    hb = HazardGraph(name=name)
    findings: list[Diagnostic] = []
    reported: set[tuple[str, int]] = set()

    def report(rule, message: str, element: str, index: int, hint: str = "") -> None:
        key = (rule.id, index)
        if key in reported:
            return
        reported.add(key)
        findings.append(diag(
            rule, message, artifact=name, element=element, index=index, hint=hint,
        ))

    transfers: list[_Transfer] = []
    transfer_at_pc: dict[int, _Transfer] = {}
    last_engine_node: dict[str, str] = {}
    previous_node: str | None = None
    ordered: set[str] = set()

    def link(node_id: str) -> str:
        """Order ``node_id`` after the previous event.  The walk revisits a
        loop body until its fixpoint; a revisited pc is the same static
        event, so it gets no second (backward) program edge."""
        nonlocal previous_node
        if previous_node is not None and node_id not in ordered:
            hb.add_edge(previous_node, node_id, "program")
        ordered.add(node_id)
        previous_node = node_id
        return node_id

    def touch_read(ram: str, rows: RowRange | None, pc: int, what: str) -> None:
        """A compute read of ``rows`` (``None`` = statically unknown)."""
        for transfer in transfers:
            if transfer.ram != ram:
                continue
            if rows is None:
                transfer.consumed = True
                continue
            if not _overlap(rows, transfer.rows):
                continue
            transfer.consumed = True
            if transfer.in_flight and transfer.writes_sram:
                report(
                    RAW,
                    f"{what} reads {ram} RAM rows [{rows.start}, {rows.end}) "
                    f"while DMA descriptor {transfer.descriptor_index} "
                    f"(started at pc {transfer.pc}) is still writing rows "
                    f"[{transfer.rows.start}, {transfer.rows.end})",
                    element=what, index=pc,
                    hint="insert a dmawait before the first read",
                )

    def touch_write(ram: str, rows: RowRange, pc: int, what: str) -> None:
        for transfer in transfers:
            if transfer.ram != ram or not transfer.in_flight:
                continue
            if not _overlap(rows, transfer.rows):
                continue
            if transfer.writes_sram:
                report(
                    WAW,
                    f"{what} writes {ram} RAM rows [{rows.start}, {rows.end}) "
                    f"while DMA descriptor {transfer.descriptor_index} "
                    f"(started at pc {transfer.pc}) is still filling rows "
                    f"[{transfer.rows.start}, {transfer.rows.end})",
                    element=what, index=pc,
                    hint="insert a dmawait before overwriting the landing zone",
                )
            else:
                report(
                    WAR,
                    f"{what} overwrites {ram} RAM rows [{rows.start}, "
                    f"{rows.end}) while DMA descriptor "
                    f"{transfer.descriptor_index} (started at pc "
                    f"{transfer.pc}) is still reading them out to DRAM",
                    element=what, index=pc,
                    hint="insert a dmawait 2 before reusing the buffer",
                )

    walk = AddressWalk(program)
    for pc, instruction, accesses in walk:
        for access, first_row, span in accesses:
            rows = None if first_row is None else RowRange(first_row, span)
            node = (f"i{pc}", "compute", f"pc {pc}", access.ram, rows)
            if not access.write:
                link(hb.add_node(*node))
                touch_read(access.ram, rows, pc, access.unit)
            elif rows is not None:  # a store to unknowable rows orders nothing
                link(hb.add_node(*node))
                touch_write(access.ram, rows, pc, access.unit)

        seq = instruction.seq
        if instruction.repeat > 1:
            continue  # isa.repeat-seq: the walk skipped the seq op too
        if seq.opcode is SeqOpcode.DMA_START:
            descriptor = table.get(seq.arg)
            if descriptor is not None and pc not in transfer_at_pc:
                engine = "dma_write" if descriptor.write_to_dram else "dma_read"
                ram = "weight" if descriptor.target_weight_ram else "data"
                rows = RowRange(descriptor.ram_row, descriptor.rows)
                node_id = link(hb.add_node(
                    f"d{pc}", "dma",
                    f"dmastart {seq.arg} ({engine})", ram=ram, rows=rows,
                ))
                if engine in last_engine_node:
                    hb.add_edge(last_engine_node[engine], node_id, "engine")
                last_engine_node[engine] = node_id
                transfer = _Transfer(
                    node_id=node_id, pc=pc, descriptor_index=seq.arg,
                    engine=engine, ram=ram, rows=rows,
                    writes_sram=not descriptor.write_to_dram,
                )
                if descriptor.write_to_dram:
                    # Outbound transfer: the DMA itself reads the rows.
                    touch_read(ram, rows, pc, "dma")
                else:
                    touch_write(ram, rows, pc, "dma")
                transfers.append(transfer)
                transfer_at_pc[pc] = transfer
        elif seq.opcode is SeqOpcode.DMA_WAIT and seq.arg in SeqOp.DMA_WAIT_GROUPS:
            wait_id = link(hb.add_node(
                f"w{pc}", "wait", f"dmawait {seq.arg}",
            ))
            for transfer in transfers:
                if (transfer.in_flight
                        and transfer.engine in SeqOp.DMA_WAIT_GROUPS[seq.arg]):
                    transfer.in_flight = False
                    hb.add_edge(transfer.node_id, wait_id, "wait")

    if walk.stop == "halt":
        link(hb.add_node("halt", "halt", "halt"))
        for transfer in transfers:
            if transfer.in_flight:
                report(
                    UNWAITED_DMA,
                    f"DMA descriptor {transfer.descriptor_index} started at "
                    f"pc {transfer.pc} is never awaited before halt",
                    element="dma", index=transfer.pc,
                    hint="add a dmawait before halt",
                )
        for transfer in transfers:
            if transfer.writes_sram and not transfer.consumed:
                report(
                    DEAD_WRITE,
                    f"DMA descriptor {transfer.descriptor_index} (pc "
                    f"{transfer.pc}) fills {transfer.ram} RAM rows "
                    f"[{transfer.rows.start}, {transfer.rows.end}) that "
                    "nothing ever reads",
                    element="dma", index=transfer.pc,
                )
    cycle = hb.find_cycle()
    if cycle is not None:
        report(
            HB_CYCLE,
            "the happens-before graph has a cycle: " + " -> ".join(cycle),
            element="program", index=0,
        )
    return hb, findings


def analyze_program_hazards(
    program: list[Instruction],
    descriptors: dict[int, DMAOp] | list[DMAOp | None] | None = None,
    config: NcoreConfig | None = None,
    name: str = "program",
) -> AnalysisReport:
    """Hazard pass over an assembled program + its DMA descriptor table."""
    report = AnalysisReport()
    _, findings = build_program_hazard_graph(program, descriptors, config, name)
    report.extend(findings)
    return report
