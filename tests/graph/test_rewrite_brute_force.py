"""Graph rewrites equal brute force.

``dead_code_elimination`` keeps a use count instead of scanning every
node for consumers, and ``add_node`` checks duplicates against a name
index instead of every node: on random DAGs DCE removes the same nodes in
the same order as the scan, and the index rejects exactly the names the
node list holds after adds, removals, copies and pickling.
"""

import pickle

import numpy as np
import pytest

from repro.graph.gir import Graph, GraphError, Node, Tensor, TensorType
from repro.graph.passes.cleanup import dead_code_elimination


def _random_dag(seed, size=60):
    """Random DAG over named tensors: each node reads one to three earlier
    tensors (repeats allowed) and writes one or two; a few tensors are
    graph outputs."""
    rng = np.random.default_rng(seed)
    graph = Graph(f"dag{seed}")
    graph.add_input("in", TensorType((1, 4)))
    tensors = ["in"]
    for index in range(size):
        reads = [tensors[int(rng.integers(len(tensors)))] for _ in range(rng.integers(1, 4))]
        writes = [f"t{index}_{k}" for k in range(rng.integers(1, 3))]
        for name in writes:
            graph.add_tensor(Tensor(name, TensorType((1, 4))))
        graph.add_node(Node(f"n{index}", "concat", reads, writes))
        tensors.extend(writes)
    for name in rng.choice(tensors[1:], size=3, replace=False):
        graph.mark_output(str(name))
    return graph


def _scan_dce(graph):
    """The consumer-scanning DCE, O(n) per node: the order to match."""
    for node in reversed(list(graph.nodes)):
        if any(name in graph.outputs for name in node.outputs):
            continue
        if any(graph.consumers(name) for name in node.outputs):
            continue
        graph.remove_node(node)


def _recording_removals(graph):
    removed = []
    remove = graph.remove_node

    def record(node):
        removed.append(node.name)
        remove(node)

    graph.remove_node = record
    return removed


class TestDeadCodeElimination:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_nodes_in_the_same_order_as_the_scan(self, seed):
        want_graph, got_graph = _random_dag(seed), _random_dag(seed)
        want, got = _recording_removals(want_graph), _recording_removals(got_graph)
        _scan_dce(want_graph)
        changed = dead_code_elimination(got_graph)
        assert want, "the DAG should hold dead nodes"
        assert got == want
        assert changed
        assert [n.name for n in got_graph.nodes] == [n.name for n in want_graph.nodes]

    def test_a_clean_graph_is_unchanged(self):
        graph = _random_dag(0)
        dead_code_elimination(graph)
        names = [n.name for n in graph.nodes]
        assert not dead_code_elimination(graph)
        assert [n.name for n in graph.nodes] == names

    def test_a_node_reading_one_tensor_twice_keeps_it_alive_once(self):
        graph = Graph()
        graph.add_input("x", TensorType((1, 4)))
        for name in ("a", "b", "c"):
            graph.add_tensor(Tensor(name, TensorType((1, 4))))
        graph.add_node(Node("make_a", "relu", ["x"], ["a"]))
        graph.add_node(Node("twice", "add", ["a", "a"], ["b"]))
        graph.add_node(Node("out", "relu", ["x"], ["c"]))
        graph.mark_output("c")
        assert dead_code_elimination(graph)
        assert [n.name for n in graph.nodes] == ["out"]


def _one_node_graph():
    graph = Graph()
    graph.add_input("x", TensorType((1, 4)))
    graph.add_tensor(Tensor("y", TensorType((1, 4))))
    graph.add_node(Node("r", "relu", ["x"], ["y"]))
    return graph


class TestDuplicateNodeNames:
    def test_add_rejects_a_duplicate(self):
        graph = _one_node_graph()
        with pytest.raises(GraphError, match="duplicate node name 'r'"):
            graph.add_node(Node("r", "relu", ["x"], ["y"]))

    def test_a_removed_name_can_be_added_again_once(self):
        graph = _one_node_graph()
        graph.remove_node(graph.node("r"))
        graph.add_node(Node("r", "relu", ["x"], ["y"]))
        with pytest.raises(GraphError, match="duplicate node name 'r'"):
            graph.add_node(Node("r", "relu", ["x"], ["y"]))

    def test_a_copy_rejects_the_originals_names(self):
        graph = _one_node_graph()
        clone = graph.copy()
        with pytest.raises(GraphError, match="duplicate node name 'r'"):
            clone.add_node(Node("r", "relu", ["x"], ["y"]))

    def test_copies_keep_separate_indexes(self):
        graph = _one_node_graph()
        clone = graph.copy()
        clone.remove_node(clone.node("r"))
        clone.add_node(Node("r", "relu", ["x"], ["y"]))
        clone.add_node(Node("s", "relu", ["x"], ["y"]))
        graph.add_node(Node("s", "relu", ["x"], ["y"]))  # the clone's name only
        with pytest.raises(GraphError, match="duplicate node name 'r'"):
            graph.add_node(Node("r", "relu", ["x"], ["y"]))

    def test_a_pickled_graph_rejects_its_names(self):
        graph = pickle.loads(pickle.dumps(_one_node_graph()))
        with pytest.raises(GraphError, match="duplicate node name 'r'"):
            graph.add_node(Node("r", "relu", ["x"], ["y"]))
        graph.add_node(Node("s", "relu", ["x"], ["y"]))

    def test_the_pickle_leaves_the_index_out(self):
        graph = _one_node_graph()
        assert "_node_names" not in graph.__getstate__()

    @pytest.mark.parametrize("seed", range(4))
    def test_the_index_tracks_random_edits(self, seed):
        rng = np.random.default_rng(seed)
        graph = _one_node_graph()
        for step in range(200):
            names = [n.name for n in graph.nodes]
            if names and rng.random() < 0.4:
                graph.remove_node(graph.nodes[int(rng.integers(len(names)))])
            elif rng.random() < 0.1:
                graph = graph.copy()
            else:
                name = f"n{int(rng.integers(12))}"
                node = Node(name, "relu", ["x"], ["y"])
                if name in names:
                    with pytest.raises(GraphError, match="duplicate node name"):
                        graph.add_node(node)
                else:
                    graph.add_node(node)
