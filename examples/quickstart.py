"""Quickstart: quantize a small CNN and run it on the Ncore system model.

The full pipeline in one page:

1. build a float model (conv -> pool -> dense, with batch-norm),
2. run the GCL optimization pipeline and post-training quantization,
3. compile with ``repro.compiler`` (Ncore subgraphs + x86 fallback),
4. run an inference with the timing breakdown the paper reports.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.compiler import compile_graph
from repro.graph import Graph, Node, Tensor, TensorType, execute_float
from repro.quantize import calibrate, quantize_graph
from repro.runtime import NcoreExecutor


def build_model() -> Graph:
    rng = np.random.default_rng(0)
    g = Graph("quickstart_cnn")
    g.add_input("images", TensorType((1, 32, 32, 3)))
    g.add_constant("w1", (rng.normal(size=(3, 3, 3, 16)) * 0.3).astype(np.float32))
    g.add_constant("bn_mean", (rng.normal(size=16) * 0.1).astype(np.float32))
    g.add_constant("bn_var", rng.uniform(0.5, 1.5, 16).astype(np.float32))
    g.add_constant("bn_gamma", np.ones(16, np.float32))
    g.add_constant("bn_beta", np.zeros(16, np.float32))
    g.add_constant("w2", (rng.normal(size=(16 * 16 * 16, 10)) * 0.05).astype(np.float32))
    for name, shape in [
        ("c1", (1, 32, 32, 16)),
        ("b1", (1, 32, 32, 16)),
        ("r1", (1, 32, 32, 16)),
        ("p1", (1, 16, 16, 16)),
        ("flat", (1, 16 * 16 * 16)),
        ("logits", (1, 10)),
        ("probs", (1, 10)),
    ]:
        g.add_tensor(Tensor(name, TensorType(shape)))
    g.add_node(Node("conv1", "conv2d", ["images", "w1"], ["c1"], {"padding": ((1, 1), (1, 1))}))
    g.add_node(Node("bn1", "batch_norm", ["c1", "bn_mean", "bn_var", "bn_gamma", "bn_beta"], ["b1"]))
    g.add_node(Node("relu1", "relu", ["b1"], ["r1"]))
    g.add_node(Node("pool1", "max_pool", ["r1"], ["p1"], {"ksize": (2, 2), "stride": (2, 2)}))
    g.add_node(Node("flatten", "reshape", ["p1"], ["flat"], {"shape": (1, 16 * 16 * 16)}))
    g.add_node(Node("fc", "fully_connected", ["flat", "w2"], ["logits"]))
    g.add_node(Node("soft", "softmax", ["logits"], ["probs"]))
    g.mark_output("probs")
    g.validate()
    return g


def main() -> None:
    rng = np.random.default_rng(42)
    batches = [
        {"images": rng.uniform(-1, 1, (1, 32, 32, 3)).astype(np.float32)}
        for _ in range(4)
    ]

    print("== 1. float model ==")
    graph = build_model()
    print(f"   {len(graph.nodes)} nodes, {graph.count_macs():,} MACs, "
          f"{graph.count_weights():,} weights")
    float_out = execute_float(graph, batches[0])["probs"]

    print("\n== 2. optimize + quantize (post-training, uint8) ==")
    from repro.graph.passes import default_pipeline

    default_pipeline().run(graph)
    print(f"   after GCL passes: {len(graph.nodes)} nodes "
          f"(batch-norm folded, bias/activation fused)")
    quantized = quantize_graph(graph, calibrate(graph, batches))
    print(f"   quantized graph: {len(quantized.nodes)} nodes")

    print("\n== 3. compile (partition + lower the Ncore segments) ==")
    compiled = compile_graph(quantized, pipeline="O0", name="quickstart").model
    print(compiled.summary())

    print("\n== 4. run on the CHA system model ==")
    executor = NcoreExecutor(compiled)
    result = executor.execute(batches[0])
    quant_out = result.outputs[compiled.graph.outputs[0]]
    print(f"   float argmax={float_out.argmax()}  quantized argmax={quant_out.argmax()}")
    print(f"   max |float - quantized| = {np.abs(quant_out - float_out).max():.4f}")
    timing = result.timing
    print(f"   Ncore portion: {timing.ncore_seconds * 1e6:8.2f} us "
          f"({timing.ncore_fraction:.0%})")
    print(f"   x86 portion:   {timing.x86_seconds * 1e6:8.2f} us")
    print(f"   total latency: {timing.total_seconds * 1e6:8.2f} us")
    executor.close()


if __name__ == "__main__":
    main()
