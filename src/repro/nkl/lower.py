"""Lowering: GIR segments -> Ncore Loadables.

Maps every node of an Ncore segment to an NKL kernel schedule, plans the
scratchpad memory, and packages the result as an
:class:`~repro.graph.loadable.NcoreLoadable` whose cycle estimate the
runtime and the MLPerf harness consume.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes import NcoreDType
from repro.graph.gir import Graph, Node
from repro.graph.loadable import KernelInvocation, NcoreLoadable
from repro.graph.partitioner import Segment
from repro.graph.planner import MemoryPlan, plan_memory
from repro.ncore.config import NcoreConfig
from repro.nkl.schedule import (
    KernelSchedule,
    conv2d_schedule,
    depthwise_schedule,
    elementwise_schedule,
    lstm_schedule,
    matmul_schedule,
    pool_schedule,
)


class UnsupportedOpError(NotImplementedError):
    """The NKL has no kernel for this op (the partitioner should have sent
    it to x86)."""


def _node_dtype(graph: Graph, node: Node) -> NcoreDType:
    """Execution datatype for a node: the output tensor's type, with
    float32 running as bfloat16 on Ncore (the GNMT path, section VI-B)."""
    dtype = graph.tensor(node.outputs[0]).type.dtype
    if dtype in ("float32", "int32"):
        return NcoreDType.BF16
    return dtype


def _schedule_node(
    graph: Graph, node: Node, config: NcoreConfig | None = None
) -> KernelSchedule:
    dtype = _node_dtype(graph, node)
    out_shape = graph.tensor(node.outputs[0]).shape
    stride = node.attr("stride", (1, 1))[1]  # the width stride sets the reach
    if node.op == "conv2d":
        w = graph.tensor(node.inputs[1]).shape  # (kh, kw, cin, cout)
        n, h, wd, k = out_shape
        return conv2d_schedule(w[2], k, h, wd, w[0], w[1], dtype, n, stride, config)
    if node.op == "depthwise_conv2d":
        w = graph.tensor(node.inputs[1]).shape  # (kh, kw, c)
        n, h, wd, c = out_shape
        return depthwise_schedule(c, h, wd, w[0], w[1], dtype, n, stride, config)
    if node.op == "fully_connected":
        w = graph.tensor(node.inputs[1]).shape  # (in, out)
        rows = int(np.prod(out_shape[:-1]))
        return matmul_schedule(rows, w[0], w[1], dtype, config=config)
    if node.op in ("max_pool", "avg_pool"):
        n, h, wd, c = out_shape
        kh, kw = node.attrs["ksize"]
        return pool_schedule(c, h, wd, kh, kw, dtype, batch=n, config=config)
    if node.op == "mean":
        # Global spatial mean: a full-window average pool.
        in_shape = graph.tensor(node.inputs[0]).shape
        return pool_schedule(
            in_shape[3], 1, 1, in_shape[1], in_shape[2], dtype, config=config
        )
    if node.op in ("add", "mul", "relu", "relu6", "tanh", "sigmoid", "concat", "identity", "slice", "reshape"):
        elements = int(np.prod(out_shape))
        return elementwise_schedule(elements, dtype, config=config)
    if node.op in ("quantize", "dequantize"):
        elements = int(np.prod(out_shape))
        return elementwise_schedule(elements, dtype, ops_per_row=2, config=config)
    if node.op == "lstm_cell":
        x_shape = graph.tensor(node.inputs[0]).shape
        hidden = graph.tensor(node.outputs[0]).shape[-1]
        return lstm_schedule(x_shape[0], x_shape[-1], hidden, dtype, config=config)
    if node.op == "lstm_step":
        # Split-weight LSTM step: the modelled hardware does one step of
        # input projection plus the recurrent matmul, so the cycle schedule
        # matches lstm_cell with the same (batch, in, hidden) dims.
        seq_shape = graph.tensor(node.inputs[0]).shape
        batch = graph.tensor(node.outputs[0]).shape[0]
        hidden = graph.tensor(node.outputs[0]).shape[-1]
        return lstm_schedule(batch, seq_shape[-1], hidden, dtype, config=config)
    if node.op == "attention":
        keys = graph.tensor(node.inputs[1]).shape  # (n, time, hidden)
        n, time, hidden = keys
        score = matmul_schedule(n * time, hidden, 1, dtype, config=config)
        context = matmul_schedule(n, time, hidden, dtype, config=config)
        softmax_rows = elementwise_schedule(n * time, dtype, ops_per_row=4, config=config)
        return KernelSchedule(
            kernel="attention",
            passes=score.passes + context.passes + softmax_rows.passes,
            inner_cycles=max(score.inner_cycles, context.inner_cycles),
            epilogue_cycles=score.epilogue_cycles,
            setup_cycles=score.setup_cycles,
            macs=score.macs + context.macs,
            weight_bytes=0,
            dtype=dtype,
            lanes=score.lanes,
        )
    raise UnsupportedOpError(f"no NKL kernel for op {node.op!r}")


def _weight_bytes(graph: Graph, node: Node, compress: bool = False) -> int:
    """Weight traffic for one node; optionally after the zero-RLE scheme
    the NDU's decompression engine consumes (section VII)."""
    total = 0
    for name in node.inputs:
        tensor = graph.tensor(name)
        if not tensor.is_constant:
            continue
        if compress:
            zero = 0
            quant = tensor.quant
            if quant is not None and hasattr(quant, "zero_point"):
                zero = quant.zero_point
            total += compressed_weight_bytes(tensor.data, zero)
        else:
            total += tensor.type.num_bytes
    return total


def compressed_weight_bytes(data: np.ndarray, zero_point: int = 0) -> int:
    """Size of a constant under the NDU's zero-RLE compression.

    One bitmap byte per 8 elements plus the payload bytes that differ from
    the zero(-point) byte — computed analytically (equivalent to
    ``len(repro.ncore.ndu.compress(bytes))`` at zero point 0).
    """
    flat = np.frombuffer(
        np.ascontiguousarray(np.asarray(data)).tobytes(), dtype=np.uint8
    )
    payload = int(np.count_nonzero(flat != np.uint8(zero_point & 0xFF)))
    return -(-flat.size // 8) + payload


def lower_segment(
    graph: Graph,
    segment: Segment,
    config: NcoreConfig | None = None,
    name: str = "segment",
    compress_sparse_weights: bool = False,
    plan: MemoryPlan | None = None,
) -> NcoreLoadable:
    """Compile one Ncore segment into a loadable.

    ``compress_sparse_weights`` stores weights zero-RLE-compressed and has
    the NDU decompress them inline, shrinking the DMA traffic (and the
    streaming stalls) for sparse models at no NPU cost.

    Lowering does not verify: the compiler's ``lower`` stage runs the
    ``repro.analyze`` Loadable verifier over the result and rejects an
    illegal DMA schedule or uninitialized scratchpad read at compile time.

    ``plan`` supplies a precomputed memory plan (the staged compiler
    driver's ``plan`` stage); when None, planning happens here.
    """
    if segment.target != "ncore":
        raise ValueError("lower_segment only compiles Ncore segments")
    config = config or NcoreConfig()
    if plan is None:
        plan = plan_memory(graph, segment, config)
    loadable = NcoreLoadable(name=name, segment=segment, memory_plan=plan)
    for node in segment.nodes:
        schedule = _schedule_node(graph, node, config)
        loadable.kernels.append(
            KernelInvocation(
                node_name=node.name,
                op=node.op,
                kernel=schedule.kernel,
                cycles=schedule.cycles,
                macs=schedule.macs,
                weight_bytes=_weight_bytes(graph, node, compress_sparse_weights),
                output_tensor=node.outputs[0],
                lanes=schedule.lanes,
                meta={
                    "passes": schedule.passes,
                    "inner_cycles": schedule.inner_cycles,
                    "dtype": schedule.dtype.value,
                    "utilization": schedule.utilization,
                },
            )
        )
    loadable.weight_image_bytes = sum(k.weight_bytes for k in loadable.kernels)
    return loadable
