"""Content fingerprints: stable across rebuilds, sensitive to every input."""

import gc
import pickle
import weakref

import numpy as np

from repro.compiler import compile_key, fingerprint_config, fingerprint_graph
from repro.graph.gir import Graph, Node, Tensor, TensorType
from repro.ncore.config import NcoreConfig
from tests.quantize.test_convert import small_cnn


def fc_graph(fill: float) -> Graph:
    """One fully-connected layer whose weights are all ``fill``."""
    g = Graph("fc")
    g.add_input("x", TensorType((1, 8)))
    g.add_constant("w", np.full((8, 4), fill, np.float32))
    g.add_tensor(Tensor("y", TensorType((1, 4))))
    g.add_node(Node("fc", "fully_connected", ["x", "w"], ["y"]))
    g.mark_output("y")
    return g


class TestGraphFingerprint:
    def test_deterministic_across_rebuilds(self):
        assert fingerprint_graph(small_cnn()) == fingerprint_graph(small_cnn())

    def test_copy_shares_the_fingerprint(self):
        g = small_cnn()
        assert fingerprint_graph(g.copy()) == fingerprint_graph(g)

    def test_display_name_is_excluded(self):
        g = small_cnn()
        renamed = g.copy()
        renamed.name = "something-else"
        assert fingerprint_graph(renamed) == fingerprint_graph(g)

    def test_weight_byte_change_invalidates(self):
        g = small_cnn()
        before = fingerprint_graph(g)
        g.tensor("w1").data = g.tensor("w1").data + np.float32(1e-3)
        assert fingerprint_graph(g) != before

    def test_attribute_change_invalidates(self):
        g = small_cnn()
        before = fingerprint_graph(g)
        g.node("conv1").attrs["activation"] = "relu6"
        assert fingerprint_graph(g) != before

    def test_quant_params_participate(self):
        from repro.quantize import calibrate, quantize_graph
        from tests.quantize.test_convert import calibration_batches

        g = small_cnn()
        qg1 = quantize_graph(g, calibrate(g, calibration_batches(seed=5)))
        qg2 = quantize_graph(g, calibrate(g, calibration_batches(seed=6)))
        # Same structure, different calibration -> different scales -> keys.
        assert fingerprint_graph(qg1) != fingerprint_graph(qg2)


class TestConstantDigestMemo:
    def test_reassigned_weights_never_reuse_a_freed_arrays_digest(self):
        # The second reassignment frees an array of the same size as the
        # first, so the new one is typically handed the digested array's
        # old id(): an id-stamped memo served the all-ones digest here.
        g = fc_graph(1.0)
        ones = fingerprint_graph(g)
        g.tensor("w").data = np.zeros((8, 4), np.float32)
        g.tensor("w").data = np.full((8, 4), 7.0, np.float32)
        assert fingerprint_graph(g) == fingerprint_graph(fc_graph(7.0)) != ones

    def test_memo_is_reused_while_the_array_stays_frozen(self):
        g = fc_graph(1.0)
        first = fingerprint_graph(g)
        weights = g.tensor("w").data
        assert not weights.flags.writeable
        memo = g.tensor("w")._content_digest
        assert fingerprint_graph(g) == first
        assert g.tensor("w")._content_digest is memo

    def test_an_unfrozen_array_is_hashed_afresh(self):
        g = fc_graph(1.0)
        before = fingerprint_graph(g)
        weights = g.tensor("w").data
        weights.flags.writeable = True
        weights[0, 0] = 2.0
        assert fingerprint_graph(g) != before

    def test_memo_keeps_no_replaced_array_alive(self):
        g = fc_graph(1.0)
        fingerprint_graph(g)
        ones = weakref.ref(g.tensor("w").data)
        g.tensor("w").data = np.full((8, 4), 7.0, np.float32)
        gc.collect()
        assert ones() is None

    def test_a_pickled_graph_keeps_its_fingerprint(self):
        g = fc_graph(1.0)
        before = fingerprint_graph(g)
        assert fingerprint_graph(pickle.loads(pickle.dumps(g))) == before


class TestCompileKey:
    def test_config_change_invalidates(self):
        g = small_cnn()
        base = compile_key(g, NcoreConfig(), "O2")
        halved = compile_key(g, NcoreConfig(slices=8), "O2")
        assert base != halved

    def test_pipeline_id_participates(self):
        g = small_cnn()
        assert compile_key(g, NcoreConfig(), "O0") != compile_key(g, NcoreConfig(), "O2")

    def test_name_participates(self):
        g = small_cnn()
        assert compile_key(g, NcoreConfig(), "O2", name="a") != compile_key(
            g, NcoreConfig(), "O2", name="b"
        )

    def test_verify_mode_participates(self):
        g = small_cnn()
        assert compile_key(g, NcoreConfig(), "O2", verify=True) != compile_key(
            g, NcoreConfig(), "O2", verify=False
        )

    def test_config_fingerprint_deterministic(self):
        assert fingerprint_config(NcoreConfig()) == fingerprint_config(NcoreConfig())


class TestKeyStability:
    def test_key_is_computed_before_mutation(self):
        """compile_graph keys the *input* graph, so a recompile of a fresh
        build hits even though the first compile optimized its copy."""
        from repro.compiler import CompileCache, compile_graph

        cache = CompileCache()
        first = compile_graph(small_cnn(), cache=cache)
        second = compile_graph(small_cnn(), cache=cache)
        assert first.key == second.key
        assert second.cache_hit
