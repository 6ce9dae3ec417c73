"""Tests for the GCL frontends and GIR serialization."""

import numpy as np
import pytest

from repro.graph import GraphError, execute_float
from repro.graph.frontends import (
    import_tf_like,
    import_torch_like,
    load_graph,
    save_graph,
)
from repro.graph.frontends.torch_like import nchw_to_nhwc

RNG = np.random.default_rng(17)


def tf_model(padding="SAME"):
    w = RNG.normal(size=(3, 3, 3, 8)).astype(np.float32) * 0.2
    return {
        "inputs": ["x"],
        "outputs": ["out"],
        "tensors": {
            "x": {"shape": [1, 9, 9, 3]},
            "w": {"shape": [3, 3, 3, 8], "data": w},
            "c": {"shape": [1, 9, 9, 8] if padding == "SAME" else [1, 7, 7, 8]},
            "out": {"shape": [1, 9, 9, 8] if padding == "SAME" else [1, 7, 7, 8]},
        },
        "operators": [
            {
                "op": "CONV_2D",
                "inputs": ["x", "w"],
                "outputs": ["c"],
                "padding": padding,
                "fused_activation": "NONE",
            },
            {"op": "RELU", "inputs": ["c"], "outputs": ["out"]},
        ],
    }


class TestTfFrontend:
    def test_import_and_execute(self):
        g = import_tf_like(tf_model())
        x = RNG.normal(size=(1, 9, 9, 3)).astype(np.float32)
        out = execute_float(g, {"x": x})["out"]
        assert out.shape == (1, 9, 9, 8)
        assert (out >= 0).all()

    def test_same_padding_resolved_tf_style(self):
        # 9 input, stride 2, k 3 -> out 5: total pad 2... asymmetric case:
        # 10 input, stride 2, k 3 -> out 5, total pad 1 -> (0, 1): the
        # extra pixel goes AFTER (bottom/right) in TF.
        model = tf_model()
        model["tensors"]["x"]["shape"] = [1, 10, 10, 3]
        model["tensors"]["c"]["shape"] = [1, 5, 5, 8]
        model["tensors"]["out"]["shape"] = [1, 5, 5, 8]
        model["operators"][0]["stride"] = (2, 2)
        g = import_tf_like(model)
        conv = g.node("conv2d_0")
        assert conv.attrs["padding"] == ((0, 1), (0, 1))

    def test_valid_padding(self):
        g = import_tf_like(tf_model(padding="VALID"))
        assert g.node("conv2d_0").attrs["padding"] == ((0, 0), (0, 0))

    def test_fused_activation(self):
        model = tf_model()
        model["operators"][0]["fused_activation"] = "RELU6"
        g = import_tf_like(model)
        assert g.node("conv2d_0").attrs["activation"] == "relu6"

    def test_unknown_op_rejected(self):
        model = tf_model()
        model["operators"][0]["op"] = "GRU"
        with pytest.raises(GraphError, match="unsupported"):
            import_tf_like(model)

    def test_compiles_through_the_stack(self):
        from repro.compiler import compile_graph
        from repro.quantize import calibrate, quantize_graph

        g = import_tf_like(tf_model())
        batch = {"x": RNG.normal(size=(1, 9, 9, 3)).astype(np.float32)}
        qg = quantize_graph(g, calibrate(g, [batch]))
        compiled = compile_graph(qg, pipeline="O0").model
        assert compiled.ncore_segments


class TestTorchFrontend:
    def _model(self):
        w_oihw = RNG.normal(size=(8, 3, 3, 3)).astype(np.float32) * 0.2
        return {
            "inputs": ["x"],
            "outputs": ["y"],
            "tensors": {
                "x": {"shape": [1, 3, 9, 9]},        # NCHW
                "w": {"data": w_oihw, "role": "conv_weight"},
                "y": {"shape": [1, 8, 9, 9]},
            },
            "operators": [
                {
                    "op": "conv2d",
                    "inputs": ["x", "w"],
                    "outputs": ["y"],
                    "padding": 1,
                }
            ],
        }, w_oihw

    def test_layouts_normalized(self):
        model, w_oihw = self._model()
        g = import_torch_like(model)
        assert g.tensor("x").shape == (1, 9, 9, 3)   # NHWC
        assert g.tensor("w").shape == (3, 3, 3, 8)   # HWIO
        np.testing.assert_array_equal(
            g.tensor("w").data, np.transpose(w_oihw, (2, 3, 1, 0))
        )

    def test_numerics_match_direct_nchw_convolution(self):
        model, w_oihw = self._model()
        g = import_torch_like(model)
        x_nchw = RNG.normal(size=(1, 3, 9, 9)).astype(np.float32)
        out = execute_float(g, {"x": nchw_to_nhwc(x_nchw)})["y"]
        # Direct torch-convention reference.
        from repro.graph.reference import conv2d

        expected = conv2d(
            nchw_to_nhwc(x_nchw),
            np.transpose(w_oihw, (2, 3, 1, 0)),
            padding=((1, 1), (1, 1)),
        )
        np.testing.assert_allclose(out, expected, rtol=1e-5)

    def test_symmetric_padding_convention(self):
        model, _ = self._model()
        model["operators"][0]["padding"] = 2
        model["tensors"]["y"]["shape"] = [1, 8, 11, 11]
        g = import_torch_like(model)
        assert g.node("conv2d_0").attrs["padding"] == ((2, 2), (2, 2))

    def test_concat_dim_translated(self):
        model = {
            "inputs": ["a", "b"],
            "outputs": ["c"],
            "tensors": {
                "a": {"shape": [1, 2, 4, 4]},
                "b": {"shape": [1, 3, 4, 4]},
                "c": {"shape": [1, 5, 4, 4]},
            },
            "operators": [
                {"op": "cat", "inputs": ["a", "b"], "outputs": ["c"], "dim": 1}
            ],
        }
        g = import_torch_like(model)
        # NCHW channel dim 1 becomes NHWC axis 3.
        assert g.node("concat_0").attrs["axis"] == 3

    def test_transpose_round_trip(self):
        x = RNG.normal(size=(2, 3, 4, 5)).astype(np.float32)
        np.testing.assert_array_equal(np.transpose(nchw_to_nhwc(x), (0, 3, 1, 2)), x)


class TestSerialization:
    def test_round_trip_small_cnn(self, tmp_path):
        from tests.quantize.test_convert import small_cnn

        g = small_cnn()
        save_graph(g, tmp_path / "model")
        loaded = load_graph(tmp_path / "model")
        assert loaded.name == g.name
        assert [n.name for n in loaded.nodes] == [n.name for n in g.nodes]
        feeds = {"x": RNG.normal(size=(1, 8, 8, 3)).astype(np.float32)}
        np.testing.assert_array_equal(
            list(execute_float(loaded, feeds).values())[0],
            list(execute_float(g, feeds).values())[0],
        )

    def test_round_trip_quantized_graph(self, tmp_path):
        from repro.quantize import calibrate, quantize_graph
        from repro.runtime import execute_quantized
        from tests.quantize.test_convert import calibration_batches, small_cnn

        g = small_cnn()
        qg = quantize_graph(g, calibrate(g, calibration_batches()))
        save_graph(qg, tmp_path / "model_q")
        loaded = load_graph(tmp_path / "model_q")
        # Quantization parameters survive serialization.
        conv = loaded.node("conv1")
        assert loaded.tensor(conv.outputs[0]).quant == qg.tensor(conv.outputs[0]).quant
        feeds = calibration_batches(count=1)[0]
        np.testing.assert_array_equal(
            list(execute_quantized(loaded, feeds).values())[0],
            list(execute_quantized(qg, feeds).values())[0],
        )

    def test_attrs_round_trip_exactly(self, tmp_path):
        from tests.quantize.test_convert import small_cnn

        g = small_cnn()
        save_graph(g, tmp_path / "m")
        loaded = load_graph(tmp_path / "m")
        for a, b in zip(g.nodes, loaded.nodes, strict=True):
            assert a.attrs == b.attrs

    def test_version_check(self, tmp_path):
        import json

        from tests.quantize.test_convert import small_cnn

        json_path, _ = save_graph(small_cnn(), tmp_path / "m")
        doc = json.loads(json_path.read_text())
        doc["format_version"] = 99
        json_path.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match="version"):
            load_graph(tmp_path / "m")

    @pytest.mark.parametrize("defect, says", [
        ("truncated-json", "not valid JSON"),
        ("missing-key", "missing key 'inputs'"),
        ("bad-dtype", "'float7'"),
        ("missing-npz", ".npz: cannot read"),
        ("corrupt-npz", ".npz: cannot read"),
        ("missing-constant", "no array for constant"),
    ])
    def test_malformed_pair_raises_graph_error_naming_the_file(self, tmp_path, defect, says):
        import json

        from tests.quantize.test_convert import small_cnn

        json_path, npz_path = save_graph(small_cnn(), tmp_path / "m")
        doc = json.loads(json_path.read_text())
        if defect == "truncated-json":
            json_path.write_text(json_path.read_text()[:100])
        elif defect == "missing-key":
            del doc["inputs"]
        elif defect == "bad-dtype":
            next(iter(doc["tensors"].values()))["dtype"] = "float7"
        elif defect == "missing-npz":
            npz_path.unlink()
        elif defect == "corrupt-npz":
            npz_path.write_bytes(b"PK\x03\x04 not a zip")
        else:
            np.savez_compressed(npz_path)
        if defect in ("missing-key", "bad-dtype"):
            json_path.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match="m\\.(json|npz)") as exc_info:
            load_graph(tmp_path / "m")
        assert says in str(exc_info.value)

    def test_per_channel_quant_round_trip(self, tmp_path):
        from repro.dtypes import ChannelQuantParams
        from repro.quantize import calibrate, quantize_graph
        from tests.quantize.test_convert import calibration_batches, small_cnn

        g = small_cnn()
        qg = quantize_graph(
            g, calibrate(g, calibration_batches()), per_channel_weights=True
        )
        save_graph(qg, tmp_path / "pc")
        loaded = load_graph(tmp_path / "pc")
        conv = loaded.node("conv1")
        quant = loaded.tensor(conv.inputs[1]).quant
        assert isinstance(quant, ChannelQuantParams)
        assert quant == qg.tensor(conv.inputs[1]).quant


class TestTorchWeightRoles:
    def test_depthwise_weight_transposed(self):
        w = RNG.normal(size=(6, 1, 3, 3)).astype(np.float32)  # (C,1,kh,kw)
        model = {
            "inputs": ["x"],
            "outputs": ["y"],
            "tensors": {
                "x": {"shape": [1, 6, 8, 8]},
                "w": {"data": w, "role": "depthwise_weight"},
                "y": {"shape": [1, 6, 8, 8]},
            },
            "operators": [
                {"op": "conv2d_depthwise", "inputs": ["x", "w"], "outputs": ["y"], "padding": 1}
            ],
        }
        g = import_torch_like(model)
        assert g.tensor("w").shape == (3, 3, 6)  # HWC
        np.testing.assert_array_equal(
            g.tensor("w").data, np.transpose(w[:, 0], (1, 2, 0))
        )
        out = execute_float(g, {"x": RNG.normal(size=(1, 8, 8, 6)).astype(np.float32)})
        assert out["y"].shape == (1, 8, 8, 6)

    def test_linear_weight_transposed(self):
        w = RNG.normal(size=(10, 32)).astype(np.float32)  # torch (out, in)
        model = {
            "inputs": ["x"],
            "outputs": ["y"],
            "tensors": {
                "x": {"shape": [1, 32]},
                "w": {"data": w, "role": "linear_weight"},
                "y": {"shape": [1, 10]},
            },
            "operators": [{"op": "linear", "inputs": ["x", "w"], "outputs": ["y"]}],
        }
        g = import_torch_like(model)
        assert g.tensor("w").shape == (32, 10)
        x = RNG.normal(size=(1, 32)).astype(np.float32)
        np.testing.assert_allclose(
            execute_float(g, {"x": x})["y"], x @ w.T, rtol=1e-5
        )

    def test_pool_import(self):
        model = {
            "inputs": ["x"],
            "outputs": ["y"],
            "tensors": {
                "x": {"shape": [1, 2, 8, 8]},
                "y": {"shape": [1, 2, 4, 4]},
            },
            "operators": [
                {"op": "max_pool2d", "inputs": ["x"], "outputs": ["y"], "kernel_size": 2}
            ],
        }
        g = import_torch_like(model)
        node = g.nodes[0]
        assert node.op == "max_pool"
        assert node.attrs["ksize"] == (2, 2)
        assert node.attrs["stride"] == (2, 2)  # defaults to the kernel size
