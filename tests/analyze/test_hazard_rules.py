"""One seeded violation per ``hazard.*`` happens-before rule.

Mirrors the loadable-rule test pattern: lower a small quantized segment
(lowering does not verify) or assemble a tiny program, then mutate the
prefetch schedule — each transfer with explicit landing rows — or reorder
the DMA instructions to carry exactly the ordering defect each rule targets.
"""

import numpy as np
import pytest

from repro.analyze import (
    HazardGraph,
    analyze_loadable,
    analyze_model,
    analyze_program_hazards,
    build_loadable_hazard_graph,
    build_program_hazard_graph,
    render_dot,
)
from repro.compiler import compile_graph
from repro.dtypes import NcoreDType, QuantParams
from repro.graph.gir import Graph, Node, Tensor, TensorType
from repro.graph.partitioner import partition
from repro.graph.planner import Prefetch, RowRange
from repro.isa import assemble
from repro.isa.instruction import DMAOp
from repro.models import MODEL_BUILDERS
from repro.ncore.config import NcoreConfig
from repro.nkl.lower import lower_segment
from tests.helpers import by_rule

UINT8 = NcoreDType.UINT8
QP = QuantParams(scale=0.05, zero_point=128)

# An inbound (DRAM -> data RAM) and an outbound (data RAM -> DRAM)
# one-row transfer, both at window address 0.
INBOUND = {0: DMAOp(False, False, 0, 1, 0, False)}
OUTBOUND = {0: DMAOp(True, False, 0, 1, 0, False)}

# Landing rows of a seeded prefetch: the first weight row, and the first
# row of the upper buffer half.
ROW0 = RowRange(0, 1)
HALF = NcoreConfig().sram_rows // 2


def _find(report, rule_id):
    found = by_rule(report, rule_id)
    assert found, f"no {rule_id} in {[d.rule for d in report]}"
    return found[0]


def _rules(report):
    return {d.rule for d in report}


def _fc_chain():
    """x -> fc1(w1) -> h -> fc2(w2) -> y -> relu -> z."""
    graph = Graph("hazard-fixture")
    graph.add_input("x", TensorType((1, 64), UINT8)).quant = QP
    graph.add_constant("w1", np.ones((64, 64), np.uint8), quant=QP)
    graph.add_constant("w2", np.ones((64, 64), np.uint8), quant=QP)
    graph.add_tensor(Tensor("h", TensorType((1, 64), UINT8), quant=QP))
    graph.add_tensor(Tensor("y", TensorType((1, 64), UINT8), quant=QP))
    graph.add_tensor(Tensor("z", TensorType((1, 64), UINT8), quant=QP))
    graph.add_node(Node("fc1", "fully_connected", ["x", "w1"], ["h"]))
    graph.add_node(Node("fc2", "fully_connected", ["h", "w2"], ["y"]))
    graph.add_node(Node("relu", "relu", ["y"], ["z"]))
    graph.mark_output("z")
    return graph


def _lower(graph):
    (segment,) = partition(graph)
    assert segment.target == "ncore"
    return segment, lower_segment(graph, segment)


class TestLoadableClean:
    def test_lowered_fc_chain_has_no_hazards(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        report = analyze_loadable(graph, loadable)
        assert report.ok
        assert not any(d.rule.startswith("hazard.") for d in report)

    def test_mobilenet_has_no_hazards(self):
        compiled = compile_graph(MODEL_BUILDERS["mobilenet_v1"]()).model
        report = analyze_model(compiled)
        hazards = [d for d in report if d.rule.startswith("hazard.")]
        assert not hazards, [d.message for d in hazards]


class TestLoadableHazards:
    def test_raw_prefetch_completes_after_first_consumer(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        # w1 is consumed by fc1 (node 0) but the data edge only lands
        # before fc2 (node 1): fc1 reads rows still being written.
        loadable.memory_plan.prefetches = [Prefetch("w1", 0, 1, 64 * 64, ROW0)]
        finding = _find(analyze_loadable(graph, loadable), "hazard.raw")
        assert finding.location.element == "w1"

    def test_war_needed_order_inversion_pinned(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        plan = loadable.memory_plan
        # Overlapping landing zones, and the queue delivers w2 (needed at
        # node 1) before w1 (needed at node 0): the later transfer lands
        # in rows whose data a later kernel still reads.
        plan.prefetches = [
            Prefetch("w2", 0, 1, 64 * 64, RowRange(2, 4)),
            Prefetch("w1", 0, 0, 64 * 64, RowRange(0, 4)),
        ]
        finding = _find(analyze_loadable(graph, loadable), "hazard.war")
        assert finding.location.element == "w1"

    def test_war_streamed_same_parity_inversion(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        plan = loadable.memory_plan
        plan.weights_pinned = False
        # Queue slots 0 and 2 land in the same buffer half, and slot 2's
        # chunk is needed before slot 0's.
        plan.prefetches = [
            Prefetch("w2", 0, 1, 64 * 64, RowRange(0, 1)),
            Prefetch("w1#chunk0", 0, 0, 32 * 64, RowRange(HALF, 1)),
            Prefetch("w1#chunk1", 0, 0, 32 * 64, RowRange(0, 1)),
        ]
        report = analyze_loadable(graph, loadable)
        finding = _find(report, "hazard.war")
        assert finding.location.element == "w1#chunk1"

    def test_streamed_adjacent_slots_do_not_overlap(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        plan = loadable.memory_plan
        plan.weights_pinned = False
        # Adjacent queue slots land in different buffer halves — a
        # needed-order inversion between them overwrites nothing.
        plan.prefetches = [
            Prefetch("w2", 0, 1, 64 * 64, RowRange(0, 1)),
            Prefetch("w1", 0, 0, 64 * 64, RowRange(HALF, 1)),
        ]
        report = analyze_loadable(graph, loadable)
        assert not by_rule(report, "hazard.war")

    def test_war_issued_at_the_earlier_consumer(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        plan = loadable.memory_plan
        plan.weights_pinned = False
        # w2 issues before node 0 runs — the very node that reads w1 —
        # into w1's rows: in consumption order, and not strictly before
        # w1's consumer, yet it overwrites rows fc1 has not read.
        plan.prefetches = [
            Prefetch("w1", 0, 0, 64 * 64, ROW0),
            Prefetch("w2", 0, 1, 64 * 64, ROW0),
        ]
        report = analyze_loadable(graph, loadable)
        assert _rules(report) == {"hazard.war"}
        finding = _find(report, "hazard.war")
        assert (finding.location.element, finding.location.index) == ("w2", 1)
        # Issued at its own node, after fc1 has run, it is safe.
        plan.prefetches[1] = Prefetch("w2", 1, 1, 64 * 64, ROW0)
        assert len(analyze_loadable(graph, loadable)) == 0

    def test_dead_write_prefetch_of_unconsumed_tensor(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        loadable.memory_plan.prefetches.append(Prefetch("ghost", 0, 0, 4096, ROW0))
        finding = _find(analyze_loadable(graph, loadable), "hazard.dead-write")
        assert finding.location.element == "ghost"

    def test_hb_cycle_prefetch_issued_after_consumer(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        # Issued after kernel 1 but needed before kernel 0: the program
        # edge k1 -> p and the data edge p -> k0 close a cycle with the
        # kernel order edge k0 -> k1.
        loadable.memory_plan.prefetches = [Prefetch("w1", 2, 0, 64 * 64, ROW0)]
        finding = _find(analyze_loadable(graph, loadable), "hazard.hb-cycle")
        assert "p0" in finding.message

    def test_hb_cycle_reports_every_late_prefetch(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        loadable.memory_plan.prefetches = [
            Prefetch("w1", 1, 0, 64 * 64, ROW0),
            Prefetch("w2", 2, 1, 64 * 64, RowRange(1, 1)),
        ]
        findings = by_rule(analyze_loadable(graph, loadable), "hazard.hb-cycle")
        assert sorted((f.location.element, f.location.index) for f in findings) == [
            ("w1", 0), ("w2", 1),
        ]


class TestLoadableGraph:
    def test_graph_has_kernel_and_dma_nodes(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        loadable.memory_plan.prefetches = [Prefetch("w1", 0, 0, 64 * 64, ROW0)]
        hb = build_loadable_hazard_graph(graph, loadable)
        kinds = {node.kind for node in hb.nodes}
        assert {"kernel", "dma"} <= kinds
        assert ("p0", "k0", "data") in hb.edges

    def test_to_dot_and_cluster_render(self):
        graph = _fc_chain()
        _, loadable = _lower(graph)
        hb = build_loadable_hazard_graph(graph, loadable)
        assert '"c0_k0"' in hb.to_dot(0)
        combined = render_dot([hb, hb], name="zoo")
        assert combined.startswith('digraph "zoo"') and combined.endswith("}")
        assert combined.count("subgraph cluster_") == 2
        assert '"c1_k0"' in combined

    def test_find_cycle_reports_a_closed_path(self):
        hb = HazardGraph()
        hb.add_node("a", "dma", "a")
        hb.add_node("b", "kernel", "b")
        hb.add_edge("a", "b")
        hb.add_edge("b", "a")
        cycle = hb.find_cycle()
        assert cycle is not None and cycle[0] == cycle[-1]
        hb2 = HazardGraph()
        hb2.add_node("a", "dma", "a")
        hb2.add_node("b", "kernel", "b")
        hb2.add_edge("a", "b")
        assert hb2.find_cycle() is None


class TestProgramHazards:
    def test_raw_read_before_wait(self):
        # The deliberately reordered DMA schedule of the acceptance
        # criterion: dmastart, then read the landing row with no wait.
        program = assemble("setaddr a0, 0\ndmastart 0\nbypass n0, dram[a0]\nhalt")
        report = analyze_program_hazards(program, INBOUND)
        assert "hazard.raw" in _rules(report)
        assert "hazard.unwaited-dma" in _rules(report)

    @pytest.mark.parametrize("body", [
        "bypass n0, dram[a0++]\nbypass n1, dram[a1++]",  # two events per trip
        "bypass n0, dram[a0++]",
    ])
    def test_loop_body_is_not_an_hb_cycle(self, body):
        # The walk revisits a loop body to its fixpoint; the revisit is the
        # same static event, not a program edge back to the body's start.
        program = assemble(f"loopn 4\n{body}\nendloop\nhalt")
        report = analyze_program_hazards(program)
        assert "hazard.hb-cycle" not in _rules(report)
        assert report.ok and len(report) == 0

    def test_wait_restores_order(self):
        program = assemble(
            "setaddr a0, 0\ndmastart 0\ndmawait 1\nbypass n0, dram[a0]\nhalt"
        )
        report = analyze_program_hazards(program, INBOUND)
        assert report.ok and len(report) == 0

    def test_war_store_into_outbound_transfer(self):
        program = assemble(
            "setaddr a0, 0\n"
            "bypass n0, zero\nstore a0\n"
            "dmastart 0\n"              # reads row 0 out to DRAM
            "bypass n1, zero\nstore a0\n"  # overwrites it mid-flight
            "dmawait 2\nhalt"
        )
        report = analyze_program_hazards(program, OUTBOUND)
        finding = _find(report, "hazard.war")
        assert "descriptor 0" in finding.message

    def test_waw_store_into_inbound_transfer(self):
        program = assemble(
            "setaddr a0, 0\n"
            "dmastart 0\n"              # fills row 0 from DRAM
            "bypass n0, zero\nstore a0\n"  # races the fill
            "dmawait 1\n"
            "setaddr a1, 0\nbypass n1, dram[a1]\nhalt"
        )
        report = analyze_program_hazards(program, INBOUND)
        assert "hazard.waw" in _rules(report)
        assert "hazard.unwaited-dma" not in _rules(report)

    def test_dead_write_and_unwaited(self):
        program = assemble("dmastart 0\nhalt")
        report = analyze_program_hazards(program, INBOUND)
        assert {"hazard.dead-write", "hazard.unwaited-dma"} <= _rules(report)

    def test_suppress_drops_the_rule(self):
        program = assemble("dmastart 0\nhalt")
        report = analyze_program_hazards(program, INBOUND).suppress(
            ("hazard.dead-write", "hazard.unwaited-dma"))
        assert report.ok and len(report) == 0

    def test_loop_reads_reach_a_fixpoint(self):
        # A fused loop with incrementing reads must analyze cleanly (and
        # terminate) once the transfer is awaited.
        program = assemble(
            "dmastart 0\ndmawait 1\n"
            "setaddr a0, 0\nsetaddr a6, 64\n"
            "loop 16 {\n  bypass n0, dram[a0++]\n}\n"
            "store a6\nhalt"
        )
        report = analyze_program_hazards(program, INBOUND)
        assert report.ok

    def test_graph_nodes_edges_and_wait_edge(self):
        program = assemble(
            "setaddr a0, 0\ndmastart 0\ndmawait 1\nbypass n0, dram[a0]\nhalt"
        )
        hb, findings = build_program_hazard_graph(program, INBOUND)
        assert not findings
        kinds = {node.kind for node in hb.nodes}
        assert {"dma", "wait", "compute", "halt"} <= kinds
        assert any(kind == "wait" for _, _, kind in hb.edges)

    def test_int16_read_overlaps_the_fill_through_its_second_row(self):
        # An int16 operand at row 9 reads rows 9-10; the fill lands in
        # rows 10-17.  A one-row model sees no overlap and calls the
        # transfer dead instead.
        fill = {0: DMAOp(False, False, 10, 8, 0, False)}
        program = assemble(
            "setaddr a0, 9\nsetaddr a1, 0\ndmastart 0\n"
            "mac.int16 dram[a0], wtram[a1]\ndmawait 1\nhalt"
        )
        report = analyze_program_hazards(program, fill)
        finding = _find(report, "hazard.raw")
        assert finding.location.index == 3
        assert "reads data RAM rows [9, 11)" in finding.message
        assert "hazard.dead-write" not in _rules(report)

    def test_int16_read_below_the_fill_is_clean(self):
        fill = {0: DMAOp(False, False, 10, 8, 0, False)}
        program = assemble(
            "setaddr a0, 8\nsetaddr a1, 0\nsetaddr a2, 10\ndmastart 0\n"
            "mac.int16 dram[a0], wtram[a1]\ndmawait 1\n"
            "bypass n0, dram[a2]\nhalt"
        )
        assert len(analyze_program_hazards(program, fill)) == 0

    def test_descriptor_list_is_accepted(self):
        program = assemble("dmastart 0\ndmawait 1\nsetaddr a0, 0\nbypass n0, dram[a0]\nhalt")
        descriptors = [DMAOp(False, False, 0, 1, 0, False)]
        report = analyze_program_hazards(program, descriptors)
        assert report.ok


class TestCompileGate:
    def test_compile_model_runs_the_hazard_pass(self):
        # The hazard pass rides the same strict compile gate as the
        # pairwise loadable checks — a clean model must stay clean.
        compiled = compile_graph(_fc_chain()).model
        report = analyze_model(compiled)
        assert report.ok
