"""One seeded violation per program (ISA) analyzer rule.

Structural limits are enforced by the instruction dataclasses themselves,
so structural seeds forge field values past ``__post_init__`` the way a
corrupted instruction image would; control-flow and bounds seeds use real
assembled programs.
"""

import dataclasses

import numpy as np
import pytest

from repro.analyze import Severity, analyze_program
from repro.analyze import program_rules
from repro.analyze.program_rules import AddressWalk
from repro.dtypes import QuantParams
from repro.isa import assemble
from repro.ncore.config import NcoreConfig


def _find(report, rule_id):
    found = report.by_rule(rule_id)
    assert found, f"no {rule_id} in {[d.rule for d in report]}"
    return found[0]


def _forge(template, **overrides):
    """Copy a frozen dataclass instance, bypassing __post_init__ validation."""
    clone = object.__new__(type(template))
    for f in dataclasses.fields(template):
        object.__setattr__(clone, f.name, overrides.get(f.name, getattr(template, f.name)))
    return clone


def _nop():
    (inst,) = assemble("bypass n0, n1")
    return inst


def _halt():
    (inst,) = assemble("halt")
    return inst


class TestCleanPrograms:
    def test_small_program_is_clean(self):
        program = assemble(
            "setaddr a0, 0\n"
            "setaddr a1, 128\n"
            "loop 8 {\n"
            "  bypass n0, dram[a0++]\n"
            "  mac n0, wtram[a1++]\n"
            "}\n"
            "requant.uint8 relu\n"
            "halt\n"
        )
        report = analyze_program(program)
        assert report.ok and len(report) == 0

    def test_real_matmul_program_is_clean(self):
        from repro.ncore import Ncore
        from repro.nkl.programs import emit_matmul_program

        qp = QuantParams(scale=0.02, zero_point=128)
        program, _ = emit_matmul_program(
            Ncore(),
            np.ones((8, 32), np.uint8),
            np.ones((32, 8), np.uint8),
            qp, qp, qp,
        )
        assert analyze_program(program).ok


class TestStructuralRules:
    def test_ndu_ops_limit(self):
        op = _nop().ndu_ops[0]
        ops = tuple(_forge(op, dst=d) for d in (0, 1, 2, 3))
        inst = _forge(_halt(), ndu_ops=ops)
        finding = _find(analyze_program([inst]), "isa.ndu-ops")
        assert finding.location.index == 0

    def test_ndu_duplicate_destination(self):
        op = _nop().ndu_ops[0]
        inst = _forge(_halt(), ndu_ops=(op, op))
        assert _find(analyze_program([inst]), "isa.ndu-ops")

    def test_repeat_out_of_range(self):
        inst = _forge(_halt(), repeat=0)
        assert _find(analyze_program([inst]), "isa.repeat")

    def test_rotate_amount(self):
        (rot,) = assemble("rotl n1, n1, 64")
        op = _forge(rot.ndu_ops[0], amount=100)
        inst = _forge(_halt(), ndu_ops=(op,))
        finding = _find(analyze_program([inst]), "isa.rotate")
        assert finding.location.element == "ndu"

    def test_register_ndu_destination(self):
        op = _forge(_nop().ndu_ops[0], dst=7)
        inst = _forge(_halt(), ndu_ops=(op,))
        assert _find(analyze_program([inst]), "isa.register")

    def test_register_operand_index(self):
        (inst,) = assemble("bypass n0, dram[a0]")
        op = inst.ndu_ops[0]
        bad = _forge(op, src=_forge(op.src, index=9))
        assert _find(
            analyze_program([_forge(_halt(), ndu_ops=(bad,))]), "isa.register"
        )

    def test_register_npu_predicate(self):
        (inst,) = assemble("mac n0, n1, pred3")
        bad = _forge(inst, npu=_forge(inst.npu, predicate=9))
        assert _find(analyze_program([bad, _halt()]), "isa.register")

    def test_register_out_store(self):
        (inst,) = assemble("store a6")
        bad = _forge(inst, out=_forge(inst.out, dst_addr_reg=8))
        assert _find(analyze_program([bad, _halt()]), "isa.register")

    def test_repeat_with_sequencer_op(self):
        (setaddr,) = assemble("setaddr a0, 0")
        bad = _forge(_nop(), seq=setaddr.seq, repeat=2)
        finding = _find(analyze_program([bad, _halt()]), "isa.repeat-seq")
        assert finding.location.element == "seq"

    def test_dma_descriptor(self):
        (dma,) = assemble("dmastart 2")
        bad = _forge(dma, seq=_forge(dma.seq, arg=12))
        assert _find(analyze_program([bad, _halt()]), "isa.dma-descriptor")

    def test_dma_wait_group(self):
        (wait,) = assemble("dmawait 3")
        bad = _forge(wait, seq=_forge(wait.seq, arg=5))
        finding = _find(analyze_program([bad, _halt()]), "isa.dma-wait")
        assert finding.severity is Severity.ERROR
        assert finding.location.element == "seq"

    def test_valid_dma_wait_groups_are_clean(self):
        program = assemble("dmawait 0\ndmawait 1\ndmawait 2\ndmawait 3\nhalt")
        assert not analyze_program(program).by_rule("isa.dma-wait")

    def test_iram_overflow(self):
        program = [_nop()] * NcoreConfig().iram_instructions + [_halt()]
        report = analyze_program(program)
        assert _find(report, "isa.iram-overflow")
        assert not report.by_rule("isa.no-halt")


class TestControlFlowRules:
    def test_no_halt(self):
        program = assemble("bypass n0, dram[a0]")
        finding = _find(analyze_program(program), "isa.no-halt")
        assert finding.location.index == len(program) - 1

    def test_endloop_without_begin(self):
        program = assemble("endloop\nhalt")
        finding = _find(analyze_program(program), "isa.loop-structure")
        assert finding.location.index == 0

    def test_loop_open_at_halt(self):
        program = assemble("loopn 4\nbypass n0, n1\nhalt")
        assert _find(analyze_program(program), "isa.loop-structure")

    def test_loop_depth(self):
        depth = 5  # one more than the 4 hardware loop counters
        source = "loopn 2\n" * depth + "bypass n0, n1\n" + "endloop\n" * depth + "halt"
        finding = _find(analyze_program(assemble(source)), "isa.loop-depth")
        assert finding.location.index == depth - 1

    def test_balanced_loops_are_clean(self):
        source = (
            "loopn 4\nsetaddr a0, 0\nloopn 8\naddaddr a0, 1\nendloop\nendloop\nhalt"
        )
        assert analyze_program(assemble(source)).ok


class TestSramBounds:
    def test_setaddr_past_end(self):
        rows = NcoreConfig().sram_rows
        program = assemble(f"setaddr a0, {rows}\nbypass n0, dram[a0]\nhalt")
        finding = _find(analyze_program(program), "isa.sram-bounds")
        assert finding.location.index == 1

    def test_repeat_walks_off_the_end(self):
        rows = NcoreConfig().sram_rows
        program = assemble(
            f"setaddr a0, {rows - 8}\n"
            "loop 16 {\n"
            "  bypass n0, dram[a0++]\n"
            "}\n"
            "halt"
        )
        assert _find(analyze_program(program), "isa.sram-bounds")

    def test_store_walks_off_the_end(self):
        rows = NcoreConfig().sram_rows
        program = assemble(
            f"setaddr a2, {rows - 2}\n"
            "loop 4 {\n"
            "  mac n0, n1\n"
            "  store a2, inc\n"
            "}\n"
            "halt"
        )
        assert _find(analyze_program(program), "isa.sram-bounds")

    def test_in_bounds_walk_is_clean(self):
        program = assemble(
            "setaddr a0, 0\nloop 64 {\n  bypass n0, dram[a0++]\n}\nhalt"
        )
        assert analyze_program(program).ok

    def test_unknown_addresses_are_not_reported(self):
        # a0 widens to unknown after the loop changes it every iteration
        # with a data-dependent stride the analyzer cannot see; no false
        # positive may be emitted for the later access.
        program = assemble(
            "setaddr a0, 0\n"
            "loopn 1000\n"
            "addaddr a0, 3\n"
            "endloop\n"
            "bypass n0, dram[a0]\n"
            "halt"
        )
        assert analyze_program(program).ok

    def test_custom_config_rows(self):
        config = NcoreConfig(sram_rows=64)
        program = assemble("setaddr a0, 100\nbypass n0, dram[a0]\nhalt")
        assert _find(analyze_program(program, config), "isa.sram-bounds")

    def test_int16_operand_walks_two_rows_per_issue(self):
        # Six int16 issues from row 2040 read rows 2040..2051: the machine
        # faults at row 2048 (a one-row / +1 model stays in bounds).
        program = assemble(
            "setaddr a0, 2040\nsetaddr a1, 0\n"
            "loop 6 {\n  mac.int16 dram[a0++], wtram[a1]\n}\nhalt"
        )
        finding = _find(analyze_program(program), "isa.sram-bounds")
        assert finding.location.index == 2
        assert "rows [2040, 2051] via a0" in finding.message

    def test_int16_pair_that_fits_is_clean(self):
        rows = NcoreConfig().sram_rows
        program = assemble(
            f"setaddr a0, {rows - 2}\nmac.int16 dram[a0], wtram[a1]\nhalt"
        )
        assert analyze_program(program).ok

    def test_broadcast_index_register_steps(self):
        # ``broadcast64 ... inc`` post-increments its byte-index register;
        # reusing it as a row address afterwards faults at row 2098.
        program = assemble(
            "setaddr a3, 0\nsetaddr a5, 1998\n"
            "loop 100 {\n  broadcast64 n1, wtram[a3], a5, inc\n}\n"
            "bypass n0, dram[a5]\nhalt"
        )
        finding = _find(analyze_program(program), "isa.sram-bounds")
        assert finding.location.index == 3
        assert "rows [2098, 2098] via a5" in finding.message

    def test_storeacc_walks_four_rows_per_issue(self):
        rows = NcoreConfig().sram_rows
        (storeacc,) = assemble("storeacc a6")
        spill = dataclasses.replace(
            storeacc, out=dataclasses.replace(storeacc.out, dst_increment=True),
        )

        def program(repeat):
            (setaddr,) = assemble(f"setaddr a6, {rows - 8}")
            return [setaddr, dataclasses.replace(spill, repeat=repeat), _halt()]

        assert analyze_program(program(2)).ok
        finding = _find(analyze_program(program(3)), "isa.sram-bounds")
        assert f"out stores data RAM rows [{rows - 8}, {rows + 3}]" in finding.message


class TestBudget:
    def test_budget_note_is_info(self, monkeypatch):
        monkeypatch.setattr(program_rules, "_MAX_STEPS", 5)
        program = [_nop()] * 10 + [_halt()]
        report = analyze_program(program)
        finding = _find(report, "isa.budget")
        assert finding.severity is Severity.INFO
        assert report.ok  # advisory only


class TestAddressWalk:
    """The one abstract interpreter, without a consumer on top."""

    @staticmethod
    def _run(source_or_program):
        program = source_or_program
        if isinstance(program, str):
            program = assemble(program)
        walk = AddressWalk(program)
        return walk, [pc for pc, _, _ in walk]

    def test_yields_first_row_and_span_of_all_repeats(self):
        walk = AddressWalk(assemble(
            "setaddr a0, 8\nloop 5 {\n  mac.int16 dram[a0++], wtram[a1]\n}\nhalt"
        ))
        (_, _, accesses) = list(walk)[1]
        assert [(a.ram, a.rows, first, span) for a, first, span in accesses] == [
            ("data", 2, 8, 10), ("weight", 2, 0, 2),
        ]
        assert walk.addr[0] == 18

    def test_address_neutral_loop_exits_after_one_trip(self):
        walk, pcs = self._run("loopn 1000\nbypass n0, dram[a0]\nendloop\nhalt")
        assert pcs == [0, 1, 2, 3]
        assert (walk.stop, walk.pc, walk.open_loops) == ("halt", 3, 0)

    def test_changing_loop_widens_after_four_trips(self):
        walk = AddressWalk(assemble(
            "loopn 1000\nbypass n0, dram[a0++]\naddaddr a2, 0\nendloop\n"
            "bypass n1, dram[a0]\nhalt"
        ))
        steps = list(walk)
        assert [pc for pc, _, _ in steps].count(1) == program_rules._LOOP_WIDEN_AFTER
        # Only the register the loop moves is widened, and the read after
        # the loop sees it as unknown.
        assert walk.addr[0] is None and walk.addr[2] == 0
        ((_, first_row, _),) = next(acc for pc, _, acc in steps if pc == 4)
        assert first_row is None

    def test_short_loop_is_walked_exactly(self):
        walk, pcs = self._run("loopn 3\nbypass n0, dram[a0++]\nendloop\nhalt")
        assert pcs.count(1) == 3 and walk.addr[0] == 3

    @pytest.mark.parametrize("source, stop, pc, open_loops", [
        ("bypass n0, n1\nhalt\nbypass n0, n1", "halt", 1, 0),
        ("loopn 2\nhalt", "halt", 1, 1),
        ("bypass n0, n1", "end", 1, 0),
        ("endloop\nhalt", "loop-structure", 0, 0),
        ("loopn 2\n" * 5 + "halt", "loop-depth", 4, 4),
    ])
    def test_stop_reasons(self, source, stop, pc, open_loops):
        walk, _ = self._run(source)
        assert (walk.stop, walk.pc, walk.open_loops) == (stop, pc, open_loops)

    def test_budget_stop(self, monkeypatch):
        monkeypatch.setattr(program_rules, "_MAX_STEPS", 5)
        walk, pcs = self._run([_nop()] * 10 + [_halt()])
        assert (walk.stop, walk.pc, len(pcs)) == ("budget", 5, 5)

    def test_forged_register_is_skipped_not_raised(self):
        (inst,) = assemble("bypass n0, dram[a0++] | store a6, inc")
        op = inst.ndu_ops[0]
        forged = _forge(
            inst,
            ndu_ops=(_forge(op, src=_forge(op.src, index=9)),),
            out=_forge(inst.out, dst_addr_reg=8),
        )
        walk = AddressWalk([forged, _halt()])
        assert [accesses for _, _, accesses in walk] == [[], []]
        assert walk.stop == "halt" and walk.addr == [0] * 8

    def test_sequencer_op_under_a_repeat_is_skipped(self):
        (setaddr,) = assemble("setaddr a0, 77")
        walk, _ = self._run([_forge(_nop(), seq=setaddr.seq, repeat=2), _halt()])
        assert walk.addr[0] == 0
