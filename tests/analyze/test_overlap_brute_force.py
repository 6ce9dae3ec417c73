"""``ldb.alloc-overlap`` equals an O(n²) enumeration of pairs.

Seeded memory plans with 0, 1 and many planted clashes: the verifier must
report exactly the pairs a test over every placed pair reports, with the
same messages in the same order, whatever block size it tests pairs in.
"""

import numpy as np
import pytest

from repro.analyze import analyze_loadable, loadable_rules
from repro.graph.planner import RowRange, _live_ranges
from tests.analyze.test_loadable_rules import _brute_force_overlaps, _lower, _residual_chain
from tests.helpers import by_rule

#: Block sizes that split a plan into one, several and many blocks.
BLOCKS = (loadable_rules._BLOCK_PAIRS, 64, 7, 1)


def _disjoint_plan(seed, length=40):
    """A lowered residual chain whose data allocations are re-placed two
    rows apart in a seeded order: no two share a row."""
    graph = _residual_chain(length)
    _, loadable = _lower(graph)
    allocs = loadable.memory_plan.data_allocs
    names = list(allocs)
    np.random.default_rng(seed).shuffle(names)
    allocs.clear()
    for index, name in enumerate(names):
        allocs[name] = RowRange(2 * index, 2)
    return graph, loadable


def _live_pairs(graph, loadable):
    """Placed name pairs, in placement order, that are live together."""
    ranges = _live_ranges(graph, loadable.segment)
    names = [name for name in loadable.memory_plan.data_allocs if name in ranges]
    return [
        (a, b)
        for i, a in enumerate(names) for b in names[i + 1:]
        if ranges[a][0] <= ranges[b][1] and ranges[b][0] <= ranges[a][1]
    ]


def _findings(graph, loadable, block, monkeypatch):
    monkeypatch.setattr(loadable_rules, "_BLOCK_PAIRS", block)
    found = by_rule(analyze_loadable(graph, loadable), "ldb.alloc-overlap")
    return [(f.location.element, f.message) for f in found]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("seed", range(3))
class TestPlantedClashes:
    def test_no_clash(self, seed, block, monkeypatch):
        graph, loadable = _disjoint_plan(seed)
        assert _brute_force_overlaps(graph, loadable) == []
        assert _findings(graph, loadable, block, monkeypatch) == []

    def test_one_clash(self, seed, block, monkeypatch):
        graph, loadable = _disjoint_plan(seed)
        pairs = _live_pairs(graph, loadable)
        a, b = pairs[np.random.default_rng(seed).integers(len(pairs))]
        allocs = loadable.memory_plan.data_allocs
        allocs[b] = allocs[a]
        want = _brute_force_overlaps(graph, loadable)
        assert [element for element, _ in want] == [a]
        assert _findings(graph, loadable, block, monkeypatch) == want

    def test_every_live_pair_clashes(self, seed, block, monkeypatch):
        graph, loadable = _disjoint_plan(seed)
        allocs = loadable.memory_plan.data_allocs
        for name in allocs:
            allocs[name] = RowRange(0, 2)
        want = _brute_force_overlaps(graph, loadable)
        assert len(want) == len(_live_pairs(graph, loadable)) > 40
        assert _findings(graph, loadable, block, monkeypatch) == want

    def test_many_seeded_clashes(self, seed, block, monkeypatch):
        graph, loadable = _disjoint_plan(seed)
        rng = np.random.default_rng(100 + seed)
        allocs = loadable.memory_plan.data_allocs
        for name in allocs:  # empty, shared and straddling rows included
            allocs[name] = RowRange(int(rng.integers(0, 12)), int(rng.integers(0, 6)))
        want = _brute_force_overlaps(graph, loadable)
        assert len(want) > 10
        assert _findings(graph, loadable, block, monkeypatch) == want
