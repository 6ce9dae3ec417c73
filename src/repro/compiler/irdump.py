"""Textual IR snapshots and stage-to-stage diffs (``--dump-ir``).

The dump is a deterministic, line-oriented rendering of a
:class:`~repro.compiler.stages.CompilerContext`: the graph's node listing
(with shapes, dtypes and attributes), then whatever later-stage artifacts
exist — segment placement, memory plans, lowered kernels.  Because it is
line-oriented, two snapshots diff cleanly with :func:`ir_diff`, which is
how ``repro compile --dump-ir`` shows what each stage changed.
"""

from __future__ import annotations

import difflib
import math
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.graph.gir import Graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.compiler.stages import CompilerContext
    from repro.ncore.codegen import NodeStep


def _format_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _step_label(step: NodeStep) -> str:
    """A macro-kernel step in the codegen section: its op — a ``conv2d``
    with the form codegen chose, every :class:`ConvStep` with the dtype it
    accumulates in (``f32/f64``: per-tap blocks / their sum), the static
    bound that proves it exact and the rung its epilogue runs on."""
    from repro.ncore.codegen import ConvStep, exact_dtype

    if isinstance(step, ConvStep):
        form = f":{'per-tap' if step.per_tap else 'im2col'}" if step.op == "conv2d" else ""
        dtypes = dict.fromkeys(
            f"{dtype.kind}{dtype.itemsize * 8}"
            for dtype in (step.weights.dtype, np.dtype(exact_dtype(step.acc_bound)))
        )
        bound = math.log2(max(step.acc_bound, 1))
        rung = step._epilogue.rung
        return f"{step.op}{form} {'/'.join(dtypes)} bound=2^{bound:.1f} epilogue={rung}"
    return step.op


def dump_graph(graph: Graph) -> str:
    """The node listing: one line per node, stable across processes."""
    lines = [f"graph {graph.name!r}: {len(graph.nodes)} nodes, "
             f"{len(graph.tensors)} tensors"]
    for name in graph.inputs:
        tensor = graph.tensor(name)
        dtype = tensor.type.dtype
        dtype_name = dtype if isinstance(dtype, str) else dtype.value
        lines.append(f"  input  {name}: {tuple(tensor.shape)} {dtype_name}")
    for index, node in enumerate(graph.nodes):
        out = graph.tensor(node.outputs[0])
        dtype = out.type.dtype
        dtype_name = dtype if isinstance(dtype, str) else dtype.value
        attrs = ""
        if node.attrs:
            rendered = ", ".join(
                f"{key}={_format_attr(value)}"
                for key, value in sorted(node.attrs.items())
            )
            attrs = f"  {{{rendered}}}"
        inputs = ", ".join(node.inputs)
        lines.append(
            f"  [{index:>3}] {node.op:<18} {node.name}({inputs}) -> "
            f"{node.outputs[0]}: {tuple(out.shape)} {dtype_name}{attrs}"
        )
    for name in graph.outputs:
        lines.append(f"  output {name}")
    return "\n".join(lines)


def dump_context(ctx: "CompilerContext") -> str:
    """Graph listing plus every staged artifact present on the context."""
    sections = [dump_graph(ctx.graph)]
    if ctx.segments:
        lines = [f"segments: {len(ctx.segments)}"]
        for index, segment in enumerate(ctx.segments):
            first = segment.nodes[0].name if segment.nodes else "-"
            last = segment.nodes[-1].name if segment.nodes else "-"
            lines.append(
                f"  [{index}] {segment.target:<5} {len(segment.nodes):>3} nodes"
                f"  {first} .. {last}"
            )
        sections.append("\n".join(lines))
    if ctx.memory_plans:
        lines = ["memory plans:"]
        for index in sorted(ctx.memory_plans):
            plan = ctx.memory_plans[index]
            mode = "pinned" if plan.weights_pinned else "streamed"
            lines.append(
                f"  [{index}] data rows {plan.data_rows_used:>5}"
                f"  weight rows {plan.weight_rows_used:>5}"
                f"  weights {mode}  prefetches {len(plan.prefetches)}"
            )
        sections.append("\n".join(lines))
    if ctx.loadables:
        lines = ["loadables:"]
        for index in sorted(ctx.loadables):
            loadable = ctx.loadables[index]
            lines.append(
                f"  [{index}] {loadable.name}: {len(loadable.kernels)} kernels, "
                f"{loadable.compute_cycles} compute cycles, "
                f"{loadable.weight_image_bytes} weight bytes"
            )
        sections.append("\n".join(lines))
    if ctx.macro_kernels is not None:
        kset = ctx.macro_kernels
        lines = [
            f"macro-kernels: {kset.covered_segments} kernels, "
            f"{len(kset.uncovered)} uncovered, "
            f"coverage {kset.coverage_fraction():.2f}"
        ]
        for index in sorted(kset.kernels):
            kernel = kset.kernels[index]
            steps = ", ".join(_step_label(step) for step in kernel.steps)
            lines.append(
                f"  [{index}] {kernel.name} {len(kernel.steps):>3} steps"
                f"  {kernel.compute_cycles} compute cycles  [{steps}]"
            )
        for index in sorted(kset.uncovered):
            lines.append(f"  [{index}] uncovered: {kset.uncovered[index]}")
        for reason, count in sorted(kset.uncovered_reason_counts().items()):
            lines.append(f"  uncovered reason x{count}: {reason}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def ir_diff(before: str, after: str, before_name: str = "before",
            after_name: str = "after") -> str:
    """Unified diff between two IR snapshots ('' when identical)."""
    lines = difflib.unified_diff(
        before.splitlines(), after.splitlines(),
        fromfile=before_name, tofile=after_name, lineterm="",
    )
    return "\n".join(lines)


__all__ = ["dump_context", "dump_graph", "ir_diff"]
