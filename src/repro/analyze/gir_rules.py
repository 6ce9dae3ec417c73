"""GIR verifier: structural, shape/dtype, quantization and layout rules.

Each rule has one owner this module only reports: the structural walk is
:meth:`repro.graph.gir.Graph.structure_errors` (whose first finding
:meth:`~repro.graph.gir.Graph.validate` raises), the shape rules are
:mod:`repro.analyze.shapes` (window geometry from :mod:`repro.graph.window`).
On top it adds quantization-parameter sanity, layout consistency at
partition-segment edges, and dead/duplicate-node detection — reporting
*all* findings as diagnostics instead of raising on the first.
"""

from __future__ import annotations

import math

from repro.dtypes import ChannelQuantParams, NcoreDType, QuantParams, dtype_info
from repro.graph.gir import Graph, Node, Tensor
from repro.graph.partitioner import NCORE_TARGET, Segment, partition

from repro.analyze.diagnostics import (
    RULES,
    AnalysisReport,
    Diagnostic,
    Severity,
    diag,
    register_rule,
)
from repro.analyze.shapes import (
    ShapeInferenceError,
    is_float_dtype,
    infer_node_types,
)

UNKNOWN_TENSOR = register_rule(
    "gir.unknown-tensor", Severity.ERROR, "unknown tensor reference",
    "A node input or output names a tensor absent from the graph's tensor table.",
)
DUPLICATE_NODE = register_rule(
    "gir.duplicate-node", Severity.ERROR, "duplicate node name",
    "Two nodes share one name; later passes would silently act on the wrong one.",
)
TOPOLOGY = register_rule(
    "gir.topology", Severity.ERROR, "read before produced",
    "A node reads a tensor no earlier node (or graph input/constant) produced.",
)
MULTI_PRODUCER = register_rule(
    "gir.multi-producer", Severity.ERROR, "tensor produced more than once",
    "Two nodes write the same tensor; the dataflow is ambiguous.",
)
DANGLING_OUTPUT = register_rule(
    "gir.dangling-output", Severity.ERROR, "graph output never produced",
    "A declared graph output is neither produced by a node nor fed externally.",
)
BAD_SIGNATURE = register_rule(
    "gir.bad-op-signature", Severity.ERROR, "inconsistent op inputs",
    "A node's declared input types violate its operator's contract "
    "(wrong rank, channel mismatch, missing inputs or attributes, a window "
    "that does not fit its padded input or a stride below 1).",
)
SHAPE_MISMATCH = register_rule(
    "gir.shape-mismatch", Severity.ERROR, "declared shape disagrees with propagation",
    "Shape propagation from the declared inputs yields a different output shape "
    "than the one declared.",
)
DTYPE_MISMATCH = register_rule(
    "gir.dtype-mismatch", Severity.ERROR, "declared dtype class disagrees with propagation",
    "The declared output is float where propagation says integer (or vice versa).",
)
QUANT_NODE_CONTRACT = register_rule(
    "gir.quantize-contract", Severity.ERROR, "quantize/dequantize dtype contract",
    "quantize must produce an integer tensor carrying quant params; "
    "dequantize must consume one and produce float32.",
)
DEAD_NODE = register_rule(
    "gir.dead-node", Severity.WARNING, "dead node",
    "The node's outputs reach no consumer and no graph output; "
    "dead-code elimination should have removed it.",
)
DUPLICATE_COMPUTE = register_rule(
    "gir.duplicate-compute", Severity.WARNING, "duplicate computation",
    "Two nodes apply the same op to the same inputs with the same attributes.",
)

QUANT_SCALE = register_rule(
    "qnt.scale", Severity.ERROR, "non-positive or non-finite quantization scale",
    "Affine scales must be positive finite reals; anything else corrupts requantization.",
)
QUANT_ZERO_POINT = register_rule(
    "qnt.zero-point", Severity.ERROR, "zero point outside dtype range",
    "The zero point must be representable in the tensor's own integer dtype.",
)
QUANT_DTYPE = register_rule(
    "qnt.dtype-mismatch", Severity.ERROR, "quant params typed for a different dtype",
    "A tensor's quantization parameters declare a different dtype than the tensor.",
)
QUANT_CHANNELS = register_rule(
    "qnt.channels", Severity.ERROR, "per-channel parameter count mismatch",
    "ChannelQuantParams must carry one (scale, zero point) pair per channel "
    "along the quantized axis.",
)

LAYOUT_DTYPE = register_rule(
    "lay.segment-dtype", Severity.ERROR, "unsupported dtype at an Ncore segment edge",
    "int32 activations cannot cross into an Ncore segment; the datapath has "
    "no 32-bit lane format (int32 is reserved for constants).",
)
LAYOUT_QUANT = register_rule(
    "lay.segment-quant", Severity.ERROR, "quantized edge tensor lacks quant params",
    "A quantized activation crossing a partition-segment edge needs affine "
    "parameters so the other side can (de)quantize it.",
)
LAYOUT_RANK = register_rule(
    "lay.segment-rank", Severity.WARNING, "high-rank tensor at an Ncore segment edge",
    "Tensors of rank > 4 have no defined NHWC row layout in the scratchpad.",
)


_STRUCTURE_HINTS = {
    DUPLICATE_NODE.id: "rename one of the nodes; passes look nodes up by name",
    TOPOLOGY.id: "the node list must be topologically ordered",
}


def check_structure(graph: Graph) -> list[Diagnostic]:
    """Structural rules: every finding of :meth:`Graph.structure_errors`
    (whose first one :meth:`Graph.validate` raises) as a diagnostic."""
    return [
        diag(RULES[rule], message, artifact=graph.name, element=element,
             hint=_STRUCTURE_HINTS.get(rule, ""))
        for rule, element, message in graph.structure_errors()
    ]


def check_types(graph: Graph) -> list[Diagnostic]:
    """Full shape/dtype propagation, re-checking every declaration."""
    findings: list[Diagnostic] = []
    name = graph.name
    for node in graph.nodes:
        if any(t not in graph.tensors for t in node.inputs + node.outputs):
            continue  # reported by check_structure; propagation impossible
        try:
            inferred = infer_node_types(graph, node)
        except ShapeInferenceError as exc:
            findings.append(diag(
                BAD_SIGNATURE, f"{node.op} node {node.name!r}: {exc}",
                artifact=name, element=node.name,
            ))
            continue
        for position, (out_name, expect) in enumerate(zip(node.outputs, inferred, strict=False)):
            declared = graph.tensor(out_name).type
            if declared.shape != expect.shape:
                findings.append(diag(
                    SHAPE_MISMATCH,
                    f"{node.op} node {node.name!r} output {out_name!r} declares "
                    f"shape {declared.shape}, propagation expects {expect.shape}",
                    artifact=name, element=out_name, index=position,
                ))
            elif node.op not in ("quantize", "dequantize") and (
                is_float_dtype(declared.dtype) != is_float_dtype(expect.dtype)
            ):
                findings.append(diag(
                    DTYPE_MISMATCH,
                    f"{node.op} node {node.name!r} output {out_name!r} declares "
                    f"{declared.dtype}, propagation expects the "
                    f"{'float' if is_float_dtype(expect.dtype) else 'integer'} class",
                    artifact=name, element=out_name, index=position,
                ))
        findings.extend(_check_quant_contract(graph, node))
    return findings


def _check_quant_contract(graph: Graph, node: Node) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    if node.op == "quantize":
        out = graph.tensor(node.outputs[0])
        if not isinstance(out.type.dtype, NcoreDType) or dtype_info(out.type.dtype).is_float:
            findings.append(diag(
                QUANT_NODE_CONTRACT,
                f"quantize node {node.name!r} output {out.name!r} has "
                f"non-integer dtype {out.type.dtype}",
                artifact=graph.name, element=node.name,
            ))
        if out.quant is None:
            findings.append(diag(
                QUANT_NODE_CONTRACT,
                f"quantize node {node.name!r} output {out.name!r} carries no "
                "quantization parameters",
                artifact=graph.name, element=node.name,
                hint="attach QuantParams to the output tensor",
            ))
    elif node.op == "dequantize":
        src = graph.tensor(node.inputs[0])
        if src.quant is None:
            findings.append(diag(
                QUANT_NODE_CONTRACT,
                f"dequantize node {node.name!r} input {src.name!r} carries no "
                "quantization parameters",
                artifact=graph.name, element=node.name,
            ))
        out = graph.tensor(node.outputs[0])
        if out.type.dtype != "float32":
            findings.append(diag(
                QUANT_NODE_CONTRACT,
                f"dequantize node {node.name!r} output {out.name!r} must be "
                f"float32, got {out.type.dtype}",
                artifact=graph.name, element=node.name,
            ))
    return findings


def check_quant_params(graph: Graph) -> list[Diagnostic]:
    """Quantization-parameter sanity over every tensor carrying params."""
    findings: list[Diagnostic] = []
    name = graph.name
    for tensor in graph.tensors.values():
        quant = tensor.quant
        if quant is None:
            continue
        if isinstance(quant, ChannelQuantParams):
            findings.extend(_check_channel_quant(name, tensor.name, tensor, quant))
            continue
        findings.extend(_check_tensor_quant(name, tensor.name, tensor, quant))
    return findings


def _check_tensor_quant(
    graph_name: str, tensor_name: str, tensor: Tensor, quant: QuantParams
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    if not (math.isfinite(quant.scale) and quant.scale > 0.0):
        findings.append(diag(
            QUANT_SCALE,
            f"tensor {tensor_name!r} has quantization scale {quant.scale!r}",
            artifact=graph_name, element=tensor_name,
        ))
    dtype = tensor.type.dtype
    if isinstance(dtype, NcoreDType) and not dtype_info(dtype).is_float:
        if quant.dtype is not dtype:
            findings.append(diag(
                QUANT_DTYPE,
                f"tensor {tensor_name!r} is {dtype} but its quant params "
                f"declare {quant.dtype}",
                artifact=graph_name, element=tensor_name,
            ))
        info = dtype_info(dtype)
        if not info.min_value <= quant.zero_point <= info.max_value:
            findings.append(diag(
                QUANT_ZERO_POINT,
                f"tensor {tensor_name!r} zero point {quant.zero_point} is outside "
                f"the {dtype} range [{info.min_value}, {info.max_value}]",
                artifact=graph_name, element=tensor_name,
            ))
    return findings


def _check_channel_quant(
    graph_name: str, tensor_name: str, tensor: Tensor, quant: ChannelQuantParams
) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    bad_scales = [s for s in quant.scales if not (math.isfinite(s) and s > 0.0)]
    if bad_scales:
        findings.append(diag(
            QUANT_SCALE,
            f"tensor {tensor_name!r} has {len(bad_scales)} non-positive or "
            f"non-finite per-channel scale(s)",
            artifact=graph_name, element=tensor_name,
        ))
    shape = tensor.type.shape
    axis = quant.axis % len(shape) if shape else 0
    if shape and quant.num_channels != shape[axis]:
        findings.append(diag(
            QUANT_CHANNELS,
            f"tensor {tensor_name!r} has {shape[axis]} channels along axis "
            f"{axis} but {quant.num_channels} per-channel parameter(s)",
            artifact=graph_name, element=tensor_name,
        ))
    dtype = tensor.type.dtype
    if isinstance(dtype, NcoreDType) and not dtype_info(dtype).is_float:
        info = dtype_info(dtype)
        bad_zps = [z for z in quant.zero_points if not info.min_value <= z <= info.max_value]
        if bad_zps:
            findings.append(diag(
                QUANT_ZERO_POINT,
                f"tensor {tensor_name!r} has {len(bad_zps)} zero point(s) outside "
                f"the {dtype} range",
                artifact=graph_name, element=tensor_name,
            ))
    return findings


def check_liveness(graph: Graph) -> list[Diagnostic]:
    """Dead-node and duplicate-computation detection."""
    findings: list[Diagnostic] = []
    name = graph.name
    outputs = set(graph.outputs)
    # Live = reaches a graph output through consumers (reverse sweep).
    live_tensors = set(outputs)
    for node in reversed(graph.nodes):
        if any(t in live_tensors for t in node.outputs):
            live_tensors.update(node.inputs)
    for node in graph.nodes:
        if not any(t in live_tensors for t in node.outputs):
            findings.append(diag(
                DEAD_NODE,
                f"{node.op} node {node.name!r} reaches no graph output",
                artifact=name, element=node.name,
                hint="run dead-code elimination or mark an output",
            ))
    seen: dict[tuple, str] = {}
    for node in graph.nodes:
        try:
            attr_key = repr(sorted(node.attrs.items()))
        except TypeError:  # unsortable / unhashable attrs: skip the rule
            continue
        key = (node.op, tuple(node.inputs), attr_key)
        if key in seen:
            findings.append(diag(
                DUPLICATE_COMPUTE,
                f"{node.op} node {node.name!r} duplicates node {seen[key]!r} "
                "(same op, inputs and attributes)",
                artifact=name, element=node.name,
                hint="reuse the earlier node's output",
            ))
        else:
            seen[key] = node.name
    return findings


def check_segment_layout(
    graph: Graph, segments: list[Segment] | None = None
) -> list[Diagnostic]:
    """Layout/dtype consistency at partition-segment edges."""
    findings: list[Diagnostic] = []
    name = graph.name
    if segments is None:
        segments = partition(graph)
    checked: set[str] = set()
    for index, segment in enumerate(segments):
        if segment.target != NCORE_TARGET:
            continue
        boundary = segment.input_tensors(graph) + segment.output_tensors(graph)
        for tensor_name in boundary:
            if tensor_name in checked:
                continue
            checked.add(tensor_name)
            tensor = graph.tensor(tensor_name)
            dtype = tensor.type.dtype
            if dtype == "int32":
                findings.append(diag(
                    LAYOUT_DTYPE,
                    f"int32 tensor {tensor_name!r} crosses the edge of Ncore "
                    f"segment {index}",
                    artifact=name, element=tensor_name, index=index,
                    hint="keep int32 index math on x86 or narrow the tensor",
                ))
            elif isinstance(dtype, NcoreDType) and not dtype_info(dtype).is_float:
                if tensor.quant is None:
                    findings.append(diag(
                        LAYOUT_QUANT,
                        f"quantized tensor {tensor_name!r} crosses the edge of "
                        f"Ncore segment {index} without quant params",
                        artifact=name, element=tensor_name, index=index,
                    ))
            if len(tensor.type.shape) > 4:
                findings.append(diag(
                    LAYOUT_RANK,
                    f"rank-{len(tensor.type.shape)} tensor {tensor_name!r} at the "
                    f"edge of Ncore segment {index} has no defined row layout",
                    artifact=name, element=tensor_name, index=index,
                ))
    return findings


def analyze_graph(
    graph: Graph,
    segments: list[Segment] | None = None,
    suppress: tuple[str, ...] = (),
) -> AnalysisReport:
    """Run the full GIR pass stack over one graph."""
    report = AnalysisReport()
    structural = check_structure(graph)
    report.extend(structural)
    # Type propagation and layout need a resolvable tensor table; skip them
    # when the structure itself is broken to avoid cascading KeyErrors.
    if not any(d.rule == UNKNOWN_TENSOR.id for d in structural):
        report.extend(check_types(graph))
        report.extend(check_quant_params(graph))
        report.extend(check_liveness(graph))
        if not any(d.severity is Severity.ERROR for d in structural):
            report.extend(check_segment_layout(graph, segments))
    if suppress:
        report = report.suppress(suppress)
    return report
