"""Importing models from framework-specific graph formats.

Section V-B: frameworks "utilize their own native dataflow graph formats
... with subtle differences that go beyond just the on-disk serialization
format.  For example, the definition of padding for some convolutions leads
to different results for TensorFlow vs PyTorch."

This example imports the *same* two-layer network from a TF-style dict
(NHWC / HWIO / "SAME" padding) and a torch-style dict (NCHW / OIHW /
symmetric padding), shows where the conventions diverge, then runs one of
them through quantization and saves/reloads it via the GIR serialization.

Run:  python examples/framework_import.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.graph import execute_float
from repro.graph.frontends import (
    import_tf_like,
    import_torch_like,
    load_graph,
    save_graph,
)
from repro.graph.frontends.torch_like import nchw_to_nhwc

RNG = np.random.default_rng(42)


def tf_style_model(weights_hwio):
    return {
        "inputs": ["x"],
        "outputs": ["y"],
        "tensors": {
            "x": {"shape": [1, 10, 10, 3]},
            "w": {"shape": list(weights_hwio.shape), "data": weights_hwio},
            "y": {"shape": [1, 5, 5, 8]},
        },
        "operators": [
            {
                "op": "CONV_2D",
                "inputs": ["x", "w"],
                "outputs": ["y"],
                "stride": (2, 2),
                "padding": "SAME",
                "fused_activation": "RELU",
            }
        ],
    }


def torch_style_model(weights_oihw):
    return {
        "inputs": ["x"],
        "outputs": ["c"],
        "tensors": {
            "x": {"shape": [1, 3, 10, 10]},           # NCHW
            "w": {"data": weights_oihw, "role": "conv_weight"},  # OIHW
            "c": {"shape": [1, 8, 5, 5]},
        },
        "operators": [
            {
                "op": "conv2d",
                "inputs": ["x", "w"],
                "outputs": ["c"],
                "stride": 2,
                "padding": 1,     # symmetric, the torch convention
            }
        ],
    }


def main() -> None:
    w_hwio = (RNG.normal(size=(3, 3, 3, 8)) * 0.2).astype(np.float32)
    w_oihw = np.ascontiguousarray(np.transpose(w_hwio, (3, 2, 0, 1)))

    print("== importing the same conv from two framework conventions ==")
    tf_graph = import_tf_like(tf_style_model(w_hwio), name="from_tf")
    torch_graph = import_torch_like(torch_style_model(w_oihw), name="from_torch")
    tf_pad = tf_graph.nodes[0].attrs["padding"]
    torch_pad = torch_graph.nodes[0].attrs["padding"]
    print(f"   TF 'SAME' resolves to    {tf_pad}  (extra pixel bottom/right)")
    print(f"   torch padding=1 gives    {torch_pad}  (always symmetric)")

    x_nchw = RNG.normal(size=(1, 3, 10, 10)).astype(np.float32)
    x_nhwc = nchw_to_nhwc(x_nchw)
    tf_out = execute_float(tf_graph, {"x": x_nhwc})["y"]
    torch_out = execute_float(torch_graph, {"x": x_nhwc})["c"]
    diff = np.abs(tf_out - np.maximum(torch_out, 0)).max()
    print(f"   same weights, same input -> max |TF - torch| = {diff:.4f}")
    print("   (nonzero: the padding conventions genuinely disagree at the "
          "bottom/right edge, the section V-B point)")

    print("\n== quantize the TF import and round-trip it through disk ==")
    from repro.quantize import calibrate, quantize_graph
    from repro.runtime import execute_quantized

    batches = [{"x": RNG.uniform(-1, 1, (1, 10, 10, 3)).astype(np.float32)}]
    quantized = quantize_graph(tf_graph, calibrate(tf_graph, batches))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model"
        json_path, npz_path = save_graph(quantized, path)
        print(f"   saved {json_path.name} + {npz_path.name}")
        loaded = load_graph(path)
        a = list(execute_quantized(quantized, batches[0]).values())[0]
        b = list(execute_quantized(loaded, batches[0]).values())[0]
        print(f"   reload exact: {np.array_equal(a, b)}")

    print("\n== compile the import ==")
    from repro.compiler import compile_graph

    compiled = compile_graph(quantized, pipeline="O0", name="from_tf").model
    print(compiled.summary())


if __name__ == "__main__":
    main()
