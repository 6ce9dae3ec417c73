"""Tier-3 fastpath: ahead-of-time segment codegen, one program per segment.

Tier 1 (:mod:`repro.ncore.fastpath`) fuses hardware loops at *load* time;
the replay cache (Tier 2) skips byte-identical queries.  This module is
the *compile*-time tier: each kernel segment of a quantized graph is
lowered to one vectorized-numpy **macro-kernel** — whole loop-nests
collapsed into a handful of BLAS-backed array operations — emitted as a
picklable :class:`MacroKernel` artifact that the compiled model carries
next to its Loadables (``CompiledModel.macro_kernels``) and the compile
cache stores with it.  Like the Loadable, the artifact holds exactly one step
program per segment, chosen here from the op and the baked weights'
shape: the program that runs is a function of the compile key.

Bit-exactness is the contract: a macro-kernel computes byte-for-byte what
:func:`repro.runtime.qkernels.execute_quantized` computes.  Two levers
make the quantized matmuls fast without breaking it:

- **Exact float accumulation, as narrow as provable.**  Every partial sum
  of a quantized conv/FC accumulator, in any order, is an integer no
  larger than ``max|x - zp| * sum|w - zp|``.  That bound is computed per
  kernel at codegen time from the baked weights: below ``2**24`` a float32
  BLAS matmul over zero-offset operands *is* the int64 matmul (every zoo
  conv; two of ResNet-50's only tap by tap), below ``2**53`` a float64 one
  is; kernels that could exceed both keep int64.  The same bound lets the
  OUT-unit epilogue skip its 32-bit saturation
  (:func:`repro.dtypes.requantize`).
- **One collapse per op.**  Depthwise is one einsum over a sliding
  window, fully-connected one matmul; ``conv2d`` has two forms — im2col
  (one tensordot) and per-tap (``kh * kw`` matmuls) — selected per node
  by :data:`_PER_TAP_MIN_CIN`.

The per-node interpreter stays on as the oracle: the
:class:`KernelDispatcher` verifies a macro-kernel's outputs against it on
the first dispatch of each (kernel, input shapes) (``oracle="first"``,
the default policy), or on every dispatch (``oracle="always"``).

Only what is genuinely a second implementation lives here as its own
step class — the check the oracle really makes: :class:`ConvStep`
(float-BLAS accumulation under a per-kernel proof and the range-proved
epilogue vs the fully saturating ``qconv2d`` / ``qdepthwise`` /
``qfully_connected``, which accumulate in int64 or in float64 under their
own dtype-range proof).  Every other node — the rest of the quantized
family and the whole **bf16 float region** (GNMT's LSTM / attention graph
and the x86-resident float tails) — lowers to the generic
:class:`NodeStep`: a :class:`repro.runtime.qkernels.BoundNode` run the way
the per-node walk runs it (:meth:`BoundNode.run`: the same op table, the
same bf16 write-back rounding, and for ``lstm_step`` the same one
projection per sequence per run) — the same function by construction,
not an independent check (``docs/simulator-performance.md`` has the
table).  Bound nodes bake no weights; they read constants from the
executor-seeded environment, keeping the pickled artifact small.  Only
:class:`ConvStep` bakes zero-offset weights.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np
import numpy.typing as npt

from repro.dtypes import QuantParams, Requantizer
from repro.graph.gir import Graph, Node
from repro.graph.loadable import NcoreLoadable
from repro.graph.partitioner import Segment
from repro.graph.reference import Projections
from repro.ncore.out import RequantSpec
from repro.obs import NULL_OBSERVATION, Observation, note_stat

# repro.runtime's package init imports the executor, which imports this
# module: the kernel library is reached through the bound nodes at run
# time and imported inside the lowering functions at codegen time.
if TYPE_CHECKING:
    from repro.runtime.qkernels import BoundNode

Array = npt.NDArray[Any]
Env = dict[str, Array]

#: The differential check of a macro-kernel against the per-node walk:
#: never, once per (kernel, input shapes), or on every dispatch.
ORACLE_MODES = ("off", "first", "always")

#: A ``conv2d`` with a real window (``kh * kw > 1``) accumulates per tap
#: when ``cin`` reaches this, as one im2col tensordot below it.  Timed per
#: step over the four zoo models: im2col wins every cin-3 stem (4 of 4,
#: 1.16-3.0x), per-tap every cin >= 64 conv (20 of 20, 1.03-2.07x); the
#: zoo has no windowed conv with 3 < cin < 64, so any cut in (3, 64]
#: reproduces every measurement.  1x1 convs are one matmul either way
#: and keep the loop-free form.
_PER_TAP_MIN_CIN = 32


def exact_dtype(bound: int) -> type[np.floating[Any]] | type[np.signedinteger[Any]]:
    """The narrowest dtype in which every integer of magnitude ``<= bound``
    — so every partial sum of an accumulation bounded by it — is exact."""
    if bound < 2**24:
        return np.float32
    return np.float64 if bound < 2**53 else np.int64


class UnsupportedSegment(Exception):
    """Raised at codegen time when a segment has no macro-kernel form."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class CodegenDivergence(AssertionError):
    """A macro-kernel disagreed with its oracle byte-for-byte — never
    expected; always a bug."""


# ----------------------------------------------------------------------
# Steps: what a macro-kernel's program is made of
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NodeStep:
    """One step of a macro-kernel's program — reads names from the
    environment, writes names back; ``node`` / ``op`` label it (IR dumps,
    stats).  The generic step is one bound node, run the way the per-node
    walk runs it (:meth:`BoundNode.run`, with the run's one
    ``projections`` dict)."""

    node: str
    op: str
    bound: BoundNode

    def run(self, env: Env, projections: Projections) -> None:
        self.bound.run(env, projections)


@dataclass(frozen=True)
class ConvStep(NodeStep):
    """Quantized conv2d / depthwise_conv2d / fully_connected with baked
    zero-offset weights: an accumulation independent of the table's
    kernels (int64, or float64 under their own dtype-range proof), which
    the oracle checks it against.

    ``acc_bound`` is the codegen-time proof: no partial sum of this step's
    accumulation, in any order, exceeds it.  The weights are baked in
    :func:`exact_dtype` of it and accumulate in their own dtype; the
    epilogue takes it as its range proof.  ``per_tap`` selects between the
    two ``conv2d`` forms (:data:`_PER_TAP_MIN_CIN`; no other op reads it):
    there the weights' dtype is proved per tap block (a ``cin``-long sum)
    and the taps are summed in ``exact_dtype(acc_bound)``.  The epilogue
    (``requant`` with ``bias`` and ``acc_bound`` bound) is built on the
    first run and kept; it is derived from the fields and never pickled.
    """

    weights: Array
    bias: Array | None
    requant: RequantSpec
    acc_bound: int
    per_tap: bool

    # -- accumulation cores -------------------------------------------

    def _x_zp(self) -> int:
        return self.bound.in_qp(0).zero_point

    def _stride(self) -> tuple[int, int]:
        sh, sw = self.bound.attrs.get("stride", (1, 1))
        return sh, sw

    def _offset(self, x: Array, out: Array | None = None) -> Array:
        """``x - zero point`` in the weights' dtype, one pass."""
        dtype = self.weights.dtype
        return np.asarray(np.subtract(x, dtype.type(self._x_zp()), out=out, dtype=dtype))

    def _pad_input(self, x: Array) -> Array:
        (pt, pb), (pl, pr) = self.bound.attrs.get("padding", ((0, 0), (0, 0)))
        if not (pt or pb or pl or pr):
            return self._offset(x)
        # Padding inserts the input zero point: 0 once offset.
        n, h, w, c = x.shape
        xq = np.zeros((n, pt + h + pb, pl + w + pr, c), dtype=self.weights.dtype)
        self._offset(x, xq[:, pt: pt + h, pl: pl + w])
        return xq

    def _conv_nest(self, xq: Array) -> Array:
        kh, kw, cin, cout = self.weights.shape
        sh, sw = self._stride()
        if kh * kw == 1:  # a matmul over the pixels: no window to gather
            xq = xq[:, ::sh, ::sw]
            acc = xq.reshape(-1, cin) @ self.weights.reshape(cin, cout)
            return np.asarray(acc.reshape(*xq.shape[:3], cout))
        view = np.lib.stride_tricks.sliding_window_view(xq, (kh, kw), axis=(1, 2))
        view = view[:, ::sh, ::sw]
        # view: (n, oh, ow, cin, kh, kw) x weights (kh, kw, cin, cout)
        return np.asarray(np.tensordot(view, self.weights, axes=([3, 4, 5], [2, 0, 1])))

    def _conv_rowsweep(self, xq: Array) -> Array:
        kh, kw, cin, cout = self.weights.shape
        n, h, w, _ = xq.shape
        sh, sw = self._stride()
        oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
        acc = np.zeros((n * oh * ow, cout), dtype=exact_dtype(self.acc_bound))
        for i in range(kh):
            for j in range(kw):
                patch = xq[:, i: i + oh * sh: sh, j: j + ow * sw: sw, :]
                acc += patch.reshape(-1, cin) @ self.weights[i, j]
        return acc.reshape(n, oh, ow, cout)

    def _depthwise_nest(self, xq: Array) -> Array:
        kh, kw, _ = self.weights.shape
        sh, sw = self._stride()
        view = np.lib.stride_tricks.sliding_window_view(xq, (kh, kw), axis=(1, 2))
        view = view[:, ::sh, ::sw]
        # view: (n, oh, ow, c, kh, kw) x weights (kh, kw, c)
        return np.asarray(np.einsum("nhwcij,ijc->nhwc", view, self.weights))

    def _accumulate(self, x: Array) -> Array:
        if self.op == "fully_connected":
            return np.asarray(self._offset(x) @ self.weights)
        xq = self._pad_input(x)
        if self.op == "depthwise_conv2d":
            return self._depthwise_nest(xq)
        return self._conv_rowsweep(xq) if self.per_tap else self._conv_nest(xq)

    @functools.cached_property
    def _epilogue(self) -> Requantizer:
        return self.requant.requantizer(self.bias, self.acc_bound)

    def __getstate__(self) -> dict[str, Any]:
        # The epilogue is derived from the fields: rebuilt, never pickled.
        return {k: v for k, v in self.__dict__.items() if k != "_epilogue"}

    def run(self, env: Env, projections: Projections) -> None:
        # The float -> int64 cast, the bias and the activation clamp happen
        # block by block inside the OUT-unit epilogue.
        acc = self._accumulate(env[self.bound.inputs[0]])
        env[self.bound.outputs[0]] = self._epilogue(acc)


# ----------------------------------------------------------------------
# The picklable artifacts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MacroKernel:
    """The AOT-compiled form of one kernel segment: one ordered step
    program.

    ``compute_cycles`` is the cycle-exact count recorded from the
    segment's Loadable at codegen time — the executor's timing model
    keeps using the Loadable schedules, so perf reports are byte-identical
    whichever tier executes.  One :meth:`run` is one walk: its steps
    share one ``lstm_step`` projection dict, dropped when it returns.
    """

    name: str
    segment_index: int
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    steps: tuple[NodeStep, ...]
    compute_cycles: int = 0

    def run(self, env: Env) -> None:
        projections: Projections = {}
        for step in self.steps:
            step.run(env, projections)


@dataclass
class MacroKernelSet:
    """Every macro-kernel of one compiled model, by segment index —
    the ``codegen`` stage's output, carried by the model itself
    (``CompiledModel.macro_kernels``)."""

    model_name: str
    kernels: dict[int, MacroKernel] = field(default_factory=dict)
    uncovered: dict[int, str] = field(default_factory=dict)

    @property
    def covered_segments(self) -> int:
        return len(self.kernels)

    def get(self, index: int) -> MacroKernel | None:
        return self.kernels.get(index)

    def coverage_fraction(self, total_segments: int | None = None) -> float:
        """Covered fraction of the model's segments (0.0 when empty).

        ``codegen_model`` visits every segment, so covered + uncovered is
        the segment count; pass ``total_segments`` to override."""
        total = (
            total_segments
            if total_segments is not None
            else len(self.kernels) + len(self.uncovered)
        )
        return len(self.kernels) / total if total else 0.0

    def uncovered_reason_counts(self) -> dict[str, int]:
        """Histogram of why segments stayed on the interpreter."""
        counts: dict[str, int] = {}
        for reason in self.uncovered.values():
            counts[reason] = counts.get(reason, 0) + 1
        return counts


# ----------------------------------------------------------------------
# Codegen: lower one segment's nodes into its step program
# ----------------------------------------------------------------------


def _tensor_qp(name: str, qp: QuantParams | None) -> QuantParams:
    if not isinstance(qp, QuantParams):
        raise UnsupportedSegment(f"tensor {name!r} lacks tensor quant params")
    return qp


def _constant(graph: Graph, name: str) -> Array:
    tensor = graph.tensor(name)
    if not tensor.is_constant:
        raise UnsupportedSegment(f"tensor {name!r} is not a bakeable constant")
    return np.asarray(tensor.data)


#: The quantized ops with a :class:`ConvStep` form -> the weight axes one
#: output channel accumulates over (the exactness proof's sum).
_TAP_AXES: dict[str, tuple[int, ...]] = {
    "conv2d": (0, 1, 2), "depthwise_conv2d": (0, 1), "fully_connected": (0,),
}


def _matmul_steps(graph: Graph, node: Node, bound: BoundNode) -> ConvStep:
    """The step of a conv2d / depthwise_conv2d / fully_connected."""
    from repro.runtime.qkernels import _activation_range, _code_reach, _weight_offsets

    x_qp = _tensor_qp(node.inputs[0], bound.in_qps[0])
    w_qp = bound.in_qps[1]
    if w_qp is None:
        raise UnsupportedSegment(f"weights {node.inputs[1]!r} lack quant params")
    out_qp = _tensor_qp(node.outputs[0], bound.out_qps[0])
    weights = _constant(graph, node.inputs[1])
    bias: Array | None = None
    if len(node.inputs) > 2:
        bias = _constant(graph, node.inputs[2]).astype(np.int64)
    wq = np.asarray(_weight_offsets(weights, w_qp))
    per_tap = False
    if node.op == "conv2d":
        kh, kw, cin, _ = wq.shape
        per_tap = kh * kw > 1 and cin >= _PER_TAP_MIN_CIN
    # Exactness proof: the largest |partial sum| any accumulation order can
    # produce is max|x - zp| * sum|w - zp| per output channel — over the
    # whole window for the step, over one tap's cin for a per-tap block.
    reach = _code_reach(x_qp)
    acc_bound = reach * int(np.abs(wq).sum(axis=_TAP_AXES[node.op]).max(initial=0))
    block_bound = reach * int(np.abs(wq).sum(axis=2).max(initial=0)) if per_tap else acc_bound
    clamp = _activation_range(bound.attrs.get("activation"), out_qp)
    requant = RequantSpec.build(x_qp.scale, w_qp, out_qp, clamp)
    return ConvStep(
        node.name, node.op, bound, wq.astype(exact_dtype(block_bound)), bias,
        requant, acc_bound, per_tap,
    )


def _lower(graph: Graph, node: Node) -> NodeStep:
    """The step of one node: a :class:`ConvStep` for the quantized matmul
    ops, a :class:`NodeStep` for everything else the op tables cover.

    Coverage is the tables' data: a float node lowers iff its op is in
    ``FLOAT_KERNELS`` and not in ``WALK_ONLY_OPS`` (and a ``dequantize``
    only when its output is not bf16-rounded); a quantized node iff it has
    one output, its op is in ``INT8_KERNELS`` and every quant param it
    carries is tensor-level.
    """
    from repro.runtime.qkernels import FLOAT_KERNELS, INT8_KERNELS, WALK_ONLY_OPS, bind

    bound = bind(graph, node)
    if bound.is_float:
        if (
            node.op not in FLOAT_KERNELS
            or node.op in WALK_ONLY_OPS
            or (node.op == "dequantize" and bound.bf16_outputs)
        ):
            raise UnsupportedSegment(f"float op {node.op!r} has no macro-kernel form")
    elif len(node.outputs) != 1:
        raise UnsupportedSegment(f"node {node.name!r} has multiple outputs")
    elif node.op in _TAP_AXES:
        return _matmul_steps(graph, node, bound)
    elif node.op not in INT8_KERNELS:
        raise UnsupportedSegment(f"op {node.op!r} has no macro-kernel form")
    else:
        names = (*node.inputs, *node.outputs)
        for name, qp in zip(names, (*bound.in_qps, *bound.out_qps), strict=True):
            if qp is not None:
                _tensor_qp(name, qp)
    return NodeStep(node.name, node.op, bound)


def compile_segment(
    graph: Graph,
    segment: Segment,
    index: int,
    name: str,
    loadable: NcoreLoadable | None = None,
) -> MacroKernel:
    """Lower one segment to a :class:`MacroKernel`.

    Raises :class:`UnsupportedSegment` when any node falls outside the
    quantized-kernel op set — the executor keeps the per-node interpreter
    for such segments, preserving bit-exactness everywhere.
    """
    if not segment.nodes:
        raise UnsupportedSegment("empty segment")
    return MacroKernel(
        name=name,
        segment_index=index,
        inputs=tuple(segment.input_tensors(graph)),
        outputs=tuple(segment.output_tensors(graph)),
        steps=tuple(_lower(graph, node) for node in segment.nodes),
        compute_cycles=loadable.compute_cycles if loadable is not None else 0,
    )


def codegen_model(
    graph: Graph,
    segments: Iterable[Segment],
    loadables: dict[int, NcoreLoadable],
    name: str,
    stats: dict[str, int] | None = None,
) -> MacroKernelSet:
    """Lower every supported segment of a partitioned graph.

    Unsupported segments (float regions, x86-only ops like NMS) are
    recorded with their reason; at runtime they fall back to the per-node
    interpreter, so Tier 3 is always whole-graph bit-exact.
    """
    stats = stats if stats is not None else {}
    kset = MacroKernelSet(model_name=name)
    for index, segment in enumerate(segments):
        try:
            kernel = compile_segment(
                graph, segment, index, f"{name}_seg{index}",
                loadable=loadables.get(index),
            )
        except UnsupportedSegment as unsupported:
            kset.uncovered[index] = unsupported.reason
            stats["uncovered_segments"] = stats.get("uncovered_segments", 0) + 1
            continue
        kset.kernels[index] = kernel
        stats["kernels"] = stats.get("kernels", 0) + 1
        stats["steps"] = stats.get("steps", 0) + len(kernel.steps)
    return kset


# ----------------------------------------------------------------------
# Runtime: run the program, check it against the per-node walk
# ----------------------------------------------------------------------

#: Computes a segment's reference outputs from a (read-only) environment.
OracleFn = Callable[[Env], dict[str, Array]]


def _outputs_equal(a: dict[str, Array], b: dict[str, Array]) -> bool:
    for name, value in a.items():
        other = b[name]
        if (
            value.shape != other.shape
            or value.dtype != other.dtype
            or np.asarray(value).tobytes() != np.asarray(other).tobytes()
        ):
            return False
    return True


class KernelDispatcher:
    """Run a macro-kernel's program, checked against the per-node walk.

    ``oracle`` (one of :data:`ORACLE_MODES`) is the interpreter
    differential: ``"first"`` verifies each (kernel, input shapes) once,
    on its first dispatch; ``"always"`` every dispatch; ``"off"`` never.
    ``obs`` mirrors :attr:`stats` as ``ncore.codegen.*`` counters.
    """

    def __init__(self, oracle: str = "first", obs: Observation = NULL_OBSERVATION) -> None:
        if oracle not in ORACLE_MODES:
            raise ValueError(f"oracle must be one of {ORACLE_MODES}, got {oracle!r}")
        self.oracle = oracle
        self.obs = obs
        self.stats: dict[str, int] = {}
        #: (kernel name, input shapes) already verified under ``"first"``.
        self._checked: set[tuple[str, tuple[tuple[int, ...], ...]]] = set()

    def _due(self, kernel: MacroKernel, env: Env) -> bool:
        """Whether this dispatch owes an oracle check."""
        if self.oracle != "first":
            return self.oracle == "always"
        key = (kernel.name, tuple(tuple(env[name].shape) for name in kernel.inputs))
        if key in self._checked:
            return False
        self._checked.add(key)
        return True

    def dispatch(self, kernel: MacroKernel, env: Env, oracle_fn: OracleFn) -> None:
        """Run ``kernel`` against ``env`` in place."""
        note_stat(self.obs, "ncore.codegen", self.stats, "dispatches")
        kernel.run(env)
        if not self._due(kernel, env):
            return
        note_stat(self.obs, "ncore.codegen", self.stats, "oracle_checks")
        outputs = {name: env[name] for name in kernel.outputs}
        if not _outputs_equal(outputs, oracle_fn(env)):
            raise CodegenDivergence(
                f"macro-kernel {kernel.name!r} diverged from the "
                "interpreter oracle"
            )


__all__ = [
    "CodegenDivergence",
    "ConvStep",
    "KernelDispatcher",
    "MacroKernel",
    "MacroKernelSet",
    "NodeStep",
    "ORACLE_MODES",
    "RequantSpec",
    "UnsupportedSegment",
    "codegen_model",
    "compile_segment",
    "exact_dtype",
]
