"""Tests for the converter extensions: per-channel weights and int16.

Per-channel weight quantization exercises the OUT unit's *per-lane*
requantization registers (section IV-D.5); int16 is the paper's precision
fallback — "int16 is particularly useful to maintain precision when
working with int8 quantized values with different ranges" (section
II-A.6).
"""

import numpy as np
import pytest

from repro.dtypes import ChannelQuantParams, NcoreDType, choose_channel_quant_params
from repro.graph import Graph, Node, Tensor, TensorType, execute_float
from repro.quantize import calibrate, quantize_graph
from repro.runtime import execute_quantized
from tests.quantize.test_convert import calibration_batches, small_cnn
from tests.helpers import CHA_DMA_BYTES_PER_CYCLE


def disparate_channel_graph(seed=31):
    """A conv whose output channels have wildly different weight ranges —
    the case per-tensor quantization handles poorly."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, 3, 3, 8)).astype(np.float32)
    w[..., :4] *= 0.01   # tiny channels
    w[..., 4:] *= 2.0    # huge channels
    g = Graph("disparate")
    g.add_input("x", TensorType((1, 8, 8, 3)))
    g.add_constant("w", w)
    g.add_tensor(Tensor("y", TensorType((1, 8, 8, 8))))
    g.add_node(Node("conv", "conv2d", ["x", "w"], ["y"], {"padding": ((1, 1), (1, 1))}))
    g.mark_output("y")
    return g


class TestChannelQuantParams:
    def test_round_trip_per_channel(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 3, 4, 6)).astype(np.float32)
        data[..., 0] *= 100
        qp = choose_channel_quant_params(data, axis=3)
        err = np.abs(qp.dequantize(qp.quantize(data)) - data)
        # Each channel's error is bounded by its own scale.
        for c in range(6):
            assert err[..., c].max() <= qp.scales[c] * 0.51

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelQuantParams(scales=(), zero_points=(), axis=0)
        with pytest.raises(ValueError):
            ChannelQuantParams(scales=(1.0,), zero_points=(0, 0), axis=0)
        with pytest.raises(ValueError):
            ChannelQuantParams(scales=(-1.0,), zero_points=(0,), axis=0)

    def test_per_channel_tighter_than_per_tensor(self):
        from repro.dtypes import choose_quant_params

        rng = np.random.default_rng(2)
        data = rng.normal(size=(3, 3, 4, 8)).astype(np.float32)
        data[..., 0] *= 0.001
        per_tensor = choose_quant_params(data.min(), data.max())
        per_channel = choose_channel_quant_params(data, axis=3)
        # The tiny channel gets a far finer scale than the shared one.
        assert per_channel.scales[0] < per_tensor.scale / 10


class TestPerChannelConversion:
    def _errors(self, per_channel):
        g = disparate_channel_graph()
        feeds = {"x": np.random.default_rng(9).uniform(-1, 1, (1, 8, 8, 3)).astype(np.float32)}
        cal = calibrate(g, [feeds])
        qg = quantize_graph(g, cal, per_channel_weights=per_channel)
        f = list(execute_float(g, feeds).values())[0]
        q = list(execute_quantized(qg, feeds).values())[0]
        return np.abs(q - f), f

    def test_per_channel_recovers_small_channels(self):
        err_pt, f = self._errors(per_channel=False)
        err_pc, _ = self._errors(per_channel=True)
        # Per-channel must clearly beat per-tensor on the tiny channels;
        # the remaining error is the *output activation* quantization
        # floor, which weight quantization cannot go below.
        assert err_pc[..., :4].max() < err_pt[..., :4].max() / 1.8

    def test_per_channel_never_much_worse_overall(self):
        err_pt, f = self._errors(per_channel=False)
        err_pc, _ = self._errors(per_channel=True)
        assert err_pc.mean() <= err_pt.mean() * 1.05

    def test_per_channel_bias_units(self):
        g = small_cnn()
        cal = calibrate(g, calibration_batches())
        qg = quantize_graph(g, cal, per_channel_weights=True)
        conv = qg.node("conv1")
        w_qp = qg.tensor(conv.inputs[1]).quant
        assert isinstance(w_qp, ChannelQuantParams)
        assert qg.tensor(conv.inputs[2]).type.dtype == "int32"

    def test_per_channel_end_to_end_fidelity(self):
        g = small_cnn()
        cal = calibrate(g, calibration_batches())
        qg = quantize_graph(g, cal, per_channel_weights=True)
        feeds = calibration_batches(count=1)[0]
        f = list(execute_float(small_cnn(), feeds).values())[0]
        q = list(execute_quantized(qg, feeds).values())[0]
        assert np.abs(q - f).max() < 0.1 * max(1e-3, np.abs(f).max())


class TestInt16Conversion:
    def test_int16_structure_is_16x8(self):
        # int16 activations pair with int8 weights: s16 x s16 products
        # would overflow Ncore's 32-bit saturating accumulator.
        g = small_cnn()
        qg = quantize_graph(g, calibrate(g, calibration_batches()), NcoreDType.INT16)
        conv = qg.node("conv1")
        assert qg.tensor(conv.outputs[0]).type.dtype is NcoreDType.INT16
        assert qg.tensor(conv.inputs[1]).type.dtype is NcoreDType.INT8

    @staticmethod
    def _weightless_graph():
        """relu -> add -> avg_pool: all error is *activation* quantization,
        which is exactly what the 16x8 scheme improves."""
        g = Graph("weightless")
        g.add_input("x", TensorType((1, 8, 8, 4)))
        g.add_tensor(Tensor("r", TensorType((1, 8, 8, 4))))
        g.add_tensor(Tensor("s", TensorType((1, 8, 8, 4))))
        g.add_tensor(Tensor("p", TensorType((1, 4, 4, 4))))
        g.add_node(Node("relu", "relu", ["x"], ["r"]))
        g.add_node(Node("residual", "add", ["r", "x"], ["s"]))
        g.add_node(Node("pool", "avg_pool", ["s"], ["p"], {"ksize": (2, 2), "stride": (2, 2)}))
        g.mark_output("p")
        return g

    def test_int16_activations_far_more_precise_than_uint8(self):
        g = self._weightless_graph()
        feeds = {
            "x": np.random.default_rng(3).uniform(-1, 1, (1, 8, 8, 4)).astype(np.float32)
        }
        cal = calibrate(g, [feeds])
        f = list(execute_float(self._weightless_graph(), feeds).values())[0]
        q8 = list(
            execute_quantized(quantize_graph(self._weightless_graph(), cal), feeds).values()
        )[0]
        q16 = list(
            execute_quantized(
                quantize_graph(self._weightless_graph(), cal, NcoreDType.INT16), feeds
            ).values()
        )[0]
        # 16-bit codes are 256x finer; demand at least a 30x error drop.
        assert np.abs(q16 - f).max() < np.abs(q8 - f).max() / 30

    def test_int16_no_worse_on_weighted_graph(self):
        # On a weighted graph the 8-bit *weights* bound both paths, so
        # 16x8 should be comparable, not catastrophically saturated (the
        # failure mode of a naive s16 x s16 scheme on a 32-bit acc).
        cal = calibrate(small_cnn(), calibration_batches())
        feeds = calibration_batches(count=1)[0]
        f = list(execute_float(small_cnn(), feeds).values())[0]
        q8 = list(execute_quantized(quantize_graph(small_cnn(), cal), feeds).values())[0]
        q16 = list(
            execute_quantized(
                quantize_graph(small_cnn(), cal, NcoreDType.INT16), feeds
            ).values()
        )[0]
        assert np.abs(q16 - f).max() < 2 * np.abs(q8 - f).max()

    def test_int16_costs_more_on_ncore(self):
        # Section IV-D.4: int16 NPU ops take four clocks (the conv body
        # reaches the full 4x; whole small graphs are diluted by
        # row-streaming ops).
        from repro.compiler import compile_graph
        from repro.nkl.schedule import conv2d_schedule

        conv8 = conv2d_schedule(64, 64, 8, 8, 3, 3, NcoreDType.INT8)
        conv16 = conv2d_schedule(64, 64, 8, 8, 3, 3, NcoreDType.INT16)
        assert conv16.cycles / conv8.cycles == pytest.approx(4.0, abs=0.3)
        g8 = quantize_graph(small_cnn(), calibrate(small_cnn(), calibration_batches()))
        g16 = quantize_graph(
            small_cnn(), calibrate(small_cnn(), calibration_batches()), NcoreDType.INT16
        )
        c8 = compile_graph(g8, pipeline="O0", name="int8").model.ncore_cycles(CHA_DMA_BYTES_PER_CYCLE)
        c16 = compile_graph(g16, pipeline="O0", name="int16").model.ncore_cycles(CHA_DMA_BYTES_PER_CYCLE)
        assert c16 > 2.0 * c8
