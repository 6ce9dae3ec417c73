"""Tier-3 fastpath: ahead-of-time segment codegen with multi-variant dispatch.

Tier 1 (:mod:`repro.ncore.fastpath`) fuses hardware loops at *load* time;
the replay cache (Tier 2) skips byte-identical queries.  This module is
the *compile*-time tier: each kernel segment of a quantized graph is
lowered to one or more vectorized-numpy **macro-kernels** — whole
loop-nests collapsed into a handful of BLAS-backed array operations —
emitted as picklable :class:`MacroKernel` artifacts that the compile
cache stores alongside the Loadable (``repro.compiler.cache`` artifact
kind ``codegen``).

Bit-exactness is the contract: a macro-kernel computes byte-for-byte what
:func:`repro.runtime.qkernels.execute_quantized` computes.  Two levers
make the quantized matmuls fast without breaking it:

- **Exact float64 accumulation.**  Quantized conv/FC accumulators are
  bounded by ``max|x - zp| * sum|w - zp|`` which is far below ``2**53``
  for every representable uint8/int16 operand, so an f64 BLAS matmul over
  zero-offset operands is *exactly* the int64 matmul — 10-20x faster.
  The bound is checked per kernel at codegen time; kernels that could
  exceed it keep the int64 path.
- **Multi-variant dispatch** (the PyTorch-Inductor multi-kernel
  pattern): where several lowering strategies exist — a whole-loop-nest
  einsum/tensordot form vs. a fused per-tap row-sweep form — every
  variant is emitted, the :class:`MultiKernelDispatcher` benchmarks them
  once per (segment, input shapes), cross-checks their outputs
  byte-for-byte, and pins the winner; losers never run again.

The per-node interpreter stays on as the oracle: the executor verifies a
macro-kernel's outputs against it on first dispatch (``oracle="first"``,
the default policy), or on every dispatch (``oracle="always"``).

Only what is genuinely a second implementation lives here as its own
step class — the checks the oracle and the variant cross-check really
make: :class:`ConvStep` (f64-BLAS ``nest`` / ``rowsweep`` accumulation vs
the int64 ``qconv2d`` / ``qdepthwise`` / ``qfully_connected``) and
:class:`SeqFuseStep` / :class:`CellFuseStep` (chains of ``lstm_step`` or
same-weight ``lstm_cell`` nodes threading h/c state, computing each
chain's whole-sequence input projection once instead of once per
timestep, vs node-by-node LSTM).  Every other node — the rest of the
quantized family and the whole **bf16 float region** (GNMT's LSTM /
attention graph and the x86-resident float tails) — lowers to the generic
:class:`NodeStep`: a :class:`repro.runtime.qkernels.BoundNode` run through
the same op table, with the same bf16 write-back rounding, as the per-node
walk — the same function by construction, not an independent check
(``docs/simulator-performance.md`` has the table).  Bound nodes bake no
weights; they read constants from the executor-seeded environment, keeping
the pickled artifact small.  Only :class:`ConvStep` bakes zero-offset
weights.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np
import numpy.typing as npt

from repro.dtypes import QuantParams, dtype_info
from repro.graph.gir import Graph, Node
from repro.graph.loadable import NcoreLoadable
from repro.graph.partitioner import Segment
from repro.graph.reference import lstm_cell, lstm_step_combine, lstm_step_project
from repro.ncore.out import RequantSpec
from repro.obs.metrics import get_metrics

# repro.runtime's package init imports the executor, which imports this
# module: the kernel library is reached through the bound nodes at run
# time and imported inside the lowering functions at codegen time.
if TYPE_CHECKING:
    from repro.runtime.qkernels import BoundNode

Array = npt.NDArray[Any]
Env = dict[str, Array]

#: Artifact kind under which macro-kernel sets live in the compile cache.
CODEGEN_ARTIFACT_KIND = "codegen"

#: Largest integer magnitude float64 represents exactly.
_F64_EXACT_BOUND = 2**53

#: Variant strategy names (the lowering families emitted today).
STRATEGY_NEST = "nest"        # whole-loop-nest einsum/tensordot form
STRATEGY_ROWSWEEP = "rowsweep"  # fused per-tap row-sweep accumulation
STRATEGY_SEQFUSE = "seqfuse"  # fused LSTM timestep chains (float region)


def note_stat(stats: dict[str, int], key: str, amount: int = 1) -> None:
    """Bump a codegen statistic and mirror it to ``repro.obs`` metrics."""
    if amount <= 0:
        return
    stats[key] = stats.get(key, 0) + amount
    metrics = get_metrics()
    if metrics.enabled:
        metrics.counter(f"ncore.codegen.{key}").inc(amount)


class UnsupportedSegment(Exception):
    """Raised at codegen time when a segment has no macro-kernel form."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class CodegenDivergence(AssertionError):
    """A macro-kernel variant disagreed with its oracle (or a sibling
    variant) byte-for-byte — never expected; always a bug."""


# ----------------------------------------------------------------------
# Steps: what a variant's program is made of
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelStep:
    """One step of a variant's program: reads names from the environment,
    writes names back.  ``node`` / ``op`` label it (IR dumps, stats)."""

    node: str
    op: str

    def run(self, env: Env) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class NodeStep(KernelStep):
    """The generic step: one bound node, run through the op table the
    per-node walk runs it through (:meth:`BoundNode.run`)."""

    bound: BoundNode

    def run(self, env: Env) -> None:
        self.bound.run(env)


@dataclass(frozen=True)
class ConvStep(NodeStep):
    """Quantized conv2d / depthwise_conv2d / fully_connected with baked
    zero-offset weights: an accumulation independent of the table's int64
    kernels, which the oracle checks it against.

    ``strategy`` picks the loop-nest collapse; ``exact_f64`` records the
    codegen-time proof that every f64 partial sum stays below 2**53 (the
    int64 path is kept otherwise, still one whole-nest matmul).
    """

    strategy: str
    weights: Array
    bias: Array | None
    requant: RequantSpec
    exact_f64: bool

    # -- accumulation cores -------------------------------------------

    def _acc_dtype(self) -> type[np.floating[Any]] | type[np.signedinteger[Any]]:
        return np.float64 if self.exact_f64 else np.int64

    def _x_zp(self) -> int:
        return self.bound.in_qp(0).zero_point

    def _stride(self) -> tuple[int, int]:
        sh, sw = self.bound.attrs.get("stride", (1, 1))
        return sh, sw

    def _pad_input(self, x: Array) -> Array:
        (pt, pb), (pl, pr) = self.bound.attrs.get("padding", ((0, 0), (0, 0)))
        return np.asarray(np.pad(
            x.astype(self._acc_dtype()) - self._x_zp(),
            ((0, 0), (pt, pb), (pl, pr), (0, 0)),
        ))

    def _conv_nest(self, xq: Array) -> Array:
        kh, kw, _, _ = self.weights.shape
        sh, sw = self._stride()
        view = np.lib.stride_tricks.sliding_window_view(xq, (kh, kw), axis=(1, 2))
        view = view[:, ::sh, ::sw]
        # view: (n, oh, ow, cin, kh, kw) x weights (kh, kw, cin, cout)
        return np.asarray(np.tensordot(view, self.weights, axes=([3, 4, 5], [2, 0, 1])))

    def _conv_rowsweep(self, xq: Array) -> Array:
        kh, kw, cin, cout = self.weights.shape
        n, h, w, _ = xq.shape
        sh, sw = self._stride()
        oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
        acc = np.zeros((n * oh * ow, cout), dtype=xq.dtype)
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

    def _depthwise_rowsweep(self, xq: Array) -> Array:
        kh, kw, c = self.weights.shape
        n, h, w, _ = xq.shape
        sh, sw = self._stride()
        oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
        acc = np.zeros((n, oh, ow, c), dtype=xq.dtype)
        for i in range(kh):
            for j in range(kw):
                acc += xq[:, i: i + oh * sh: sh, j: j + ow * sw: sw, :] * self.weights[i, j]
        return acc

    def _accumulate(self, x: Array) -> Array:
        if self.op == "fully_connected":
            # nest: one f64 BLAS matmul; rowsweep: the int64 reference form.
            if self.strategy == STRATEGY_NEST and self.exact_f64:
                acc = (x.astype(np.float64) - self._x_zp()) @ self.weights
            else:
                acc = (x.astype(np.int64) - self._x_zp()) @ self.weights.astype(np.int64)
            return np.asarray(acc)
        xq = self._pad_input(x)
        if self.op == "depthwise_conv2d":
            if self.strategy == STRATEGY_NEST:
                return self._depthwise_nest(xq)
            return self._depthwise_rowsweep(xq)
        if self.strategy == STRATEGY_NEST:
            return self._conv_nest(xq)
        return self._conv_rowsweep(xq)

    def run(self, env: Env) -> None:
        bound = self.bound
        acc = self._accumulate(env[bound.inputs[0]]).astype(np.int64)
        if self.bias is not None:
            acc = acc + self.bias
        out = bound.clamp(self.requant.apply(acc), bound.attrs.get("activation"))
        env[bound.outputs[0]] = out


@dataclass(frozen=True)
class SeqFuseStep(KernelStep):
    """A fused chain of ``lstm_step`` nodes sharing (x_seq, wx, wh, bias).

    Computes the whole-sequence input projection **once** — the very same
    :func:`repro.graph.reference.lstm_step_project` call on the very same
    arrays each per-node reference makes — then threads the rounded h/c
    state through the per-step recurrent combines.  Because the projection
    and combine are the reference's own functions over identical operands,
    the chain's outputs are bit-identical to running it node by node; the
    fused form just stops re-projecting the sequence ``len(chain)`` times
    and dispatching ``len(chain)`` steps.
    """

    #: The fused nodes, in chain order.
    chain: tuple[BoundNode, ...]

    def run(self, env: Env) -> None:
        x_seq, wx, wh, bias, h, c = (env[name] for name in self.chain[0].inputs)
        xp = lstm_step_project(x_seq, wx)
        for bound in self.chain:
            t = int(bound.attrs["t"])
            h, c = bound.store(env, lstm_step_combine(xp[..., t, :], wh, bias, h, c))


@dataclass(frozen=True)
class CellFuseStep(KernelStep):
    """A fused chain of same-weight ``lstm_cell`` nodes threading h/c
    state: one step object per chain instead of one per timestep."""

    #: The fused nodes, in chain order.
    chain: tuple[BoundNode, ...]

    def run(self, env: Env) -> None:
        _, weights, bias, h, c = (env[name] for name in self.chain[0].inputs)
        for bound in self.chain:
            h, c = bound.store(env, lstm_cell(env[bound.inputs[0]], weights, bias, h, c))


# ----------------------------------------------------------------------
# The picklable artifacts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelVariant:
    """One lowering of a segment: an ordered step program."""

    strategy: str
    steps: tuple[KernelStep, ...]

    def run(self, env: Env) -> None:
        for step in self.steps:
            step.run(env)


@dataclass(frozen=True)
class MacroKernel:
    """The AOT-compiled form of one kernel segment.

    ``compute_cycles``/``macs`` are the cycle-exact counts recorded from
    the segment's Loadable at codegen time — the executor's timing model
    keeps using the Loadable schedules, so perf reports are byte-identical
    whichever tier executes.
    """

    name: str
    segment_index: int
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    variants: tuple[KernelVariant, ...]
    compute_cycles: int = 0
    macs: int = 0
    node_count: int = 0

    def strategies(self) -> list[str]:
        return [variant.strategy for variant in self.variants]


@dataclass
class MacroKernelSet:
    """Every macro-kernel of one compiled model, by segment index —
    the ``codegen`` artifact the compile cache stores under the model's
    content key (same fingerprint: graph + weights + NcoreConfig +
    pipeline)."""

    model_name: str
    kernels: dict[int, MacroKernel] = field(default_factory=dict)
    uncovered: dict[int, str] = field(default_factory=dict)

    @property
    def covered_segments(self) -> int:
        return len(self.kernels)

    @property
    def variant_count(self) -> int:
        return sum(len(k.variants) for k in self.kernels.values())

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
# Codegen: lower one segment's nodes into step programs
# ----------------------------------------------------------------------


def _input_magnitude(qp: QuantParams) -> int:
    """Largest ``|code - zero_point|`` the input dtype can represent."""
    info = dtype_info(qp.dtype)
    return max(
        abs(int(info.min_value) - qp.zero_point),
        abs(int(info.max_value) - qp.zero_point),
    )


def _tensor_qp(name: str, qp: QuantParams | None) -> QuantParams:
    if not isinstance(qp, QuantParams):
        raise UnsupportedSegment(f"tensor {name!r} lacks tensor quant params")
    return qp


def _constant(graph: Graph, name: str) -> Array:
    tensor = graph.tensor(name)
    if not tensor.is_constant:
        raise UnsupportedSegment(f"tensor {name!r} is not a bakeable constant")
    return np.asarray(tensor.data)


#: The quantized ops with per-strategy :class:`ConvStep` forms -> the
#: weight axes one output channel accumulates over (the f64 proof's sum).
_TAP_AXES: dict[str, tuple[int, ...]] = {
    "conv2d": (0, 1, 2), "depthwise_conv2d": (0, 1), "fully_connected": (0,),
}


def _matmul_steps(graph: Graph, node: Node, bound: BoundNode) -> tuple[ConvStep, ConvStep]:
    """Both variants of a conv2d / depthwise_conv2d / fully_connected."""
    from repro.runtime.qkernels import _weight_offsets

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
    # f64 exactness proof: the largest |partial sum| any accumulation
    # order can produce is max|x - zp| * sum|w - zp| per output channel.
    tap_sum = np.abs(wq).sum(axis=_TAP_AXES[node.op]).max() if wq.size else 0
    exact = _input_magnitude(x_qp) * int(tap_sum) < _F64_EXACT_BOUND
    if exact:
        wq = wq.astype(np.float64)
    requant = RequantSpec.build(x_qp.scale, w_qp, out_qp)
    nest, sweep = (
        ConvStep(node.name, node.op, bound, strategy, wq, bias, requant, exact)
        for strategy in (STRATEGY_NEST, STRATEGY_ROWSWEEP)
    )
    return nest, sweep


def _lower(graph: Graph, node: Node) -> tuple[NodeStep, NodeStep]:
    """The ``(nest, rowsweep)`` steps of one node: per-strategy
    :class:`ConvStep` forms for the quantized matmul ops, one shared
    :class:`NodeStep` for everything else the op tables cover.

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
    step = NodeStep(node.name, node.op, bound)
    return step, step


#: The fusable LSTM ops -> (fused step class, the input positions every
#: node of a chain shares, the position of the h-state input; c follows h).
_LSTM_CHAINS: dict[str, tuple[type[SeqFuseStep] | type[CellFuseStep], slice, int]] = {
    "lstm_step": (SeqFuseStep, slice(0, 4), 4),  # (x_seq, wx, wh, bias), h, c
    "lstm_cell": (CellFuseStep, slice(1, 3), 3),  # x, (weights, bias), h, c
}


def _chain_run(steps: Sequence[NodeStep], start: int) -> list[NodeStep]:
    """The maximal run of steps from ``start`` that one fused step can
    replace: the same LSTM op over the same shared operands, each node's
    h/c inputs being the previous node's outputs."""
    run = [steps[start]]
    if run[0].op in _LSTM_CHAINS:
        _, shared, h = _LSTM_CHAINS[run[0].op]
        for step in steps[start + 1:]:
            prev, bound = run[-1].bound, step.bound
            if not (
                bound.op == prev.op
                and bound.inputs[shared] == prev.inputs[shared]
                and bound.inputs[h:h + 2] == prev.outputs[:2]
            ):
                break
            run.append(step)
    return run


def _fuse_lstm_chains(steps: Sequence[NodeStep]) -> list[KernelStep] | None:
    """The seqfuse transform: collapse maximal consecutive runs of
    same-weight LSTM steps with threaded h/c state into single fused
    steps.  Returns ``None`` when no chain of length >= 2 exists (no
    seqfuse variant is emitted then)."""
    fused: list[KernelStep] = []
    i = 0
    while i < len(steps):
        run = _chain_run(steps, i)
        if len(run) >= 2:
            fused.append(_LSTM_CHAINS[run[0].op][0](
                f"{run[0].node}..{run[-1].node}", run[0].op,
                tuple(step.bound for step in run),
            ))
        else:
            fused.append(run[0])
        i += len(run)
    return fused if len(fused) < len(steps) else None


def compile_segment(
    graph: Graph,
    segment: Segment,
    index: int,
    name: str,
    loadable: NcoreLoadable | None = None,
) -> MacroKernel:
    """Lower one segment to a :class:`MacroKernel` (all variants).

    Raises :class:`UnsupportedSegment` when any node falls outside the
    quantized-kernel op set — the executor keeps the per-node interpreter
    for such segments, preserving bit-exactness everywhere.
    """
    if not segment.nodes:
        raise UnsupportedSegment("empty segment")
    nest_steps: list[NodeStep] = []
    sweep_steps: list[NodeStep] = []
    for node in segment.nodes:
        nest, sweep = _lower(graph, node)
        nest_steps.append(nest)
        sweep_steps.append(sweep)
    multi_variant = any(a is not b for a, b in zip(nest_steps, sweep_steps, strict=True))
    variants = [KernelVariant(STRATEGY_NEST, tuple(nest_steps))]
    if multi_variant:
        variants.append(KernelVariant(STRATEGY_ROWSWEEP, tuple(sweep_steps)))
    seqfuse_steps = _fuse_lstm_chains(nest_steps)
    if seqfuse_steps is not None:
        variants.append(KernelVariant(STRATEGY_SEQFUSE, tuple(seqfuse_steps)))
    return MacroKernel(
        name=name,
        segment_index=index,
        inputs=tuple(segment.input_tensors(graph)),
        outputs=tuple(segment.output_tensors(graph)),
        variants=tuple(variants),
        compute_cycles=loadable.compute_cycles if loadable is not None else 0,
        macs=sum(k.macs for k in loadable.kernels) if loadable is not None else 0,
        node_count=len(segment.nodes),
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
            note_stat(stats, "uncovered_segments")
            continue
        kset.kernels[index] = kernel
        note_stat(stats, "kernels")
        note_stat(stats, "variants", len(kernel.variants))
        note_stat(stats, "steps", sum(len(v.steps) for v in kernel.variants))
    return kset


# ----------------------------------------------------------------------
# Runtime: benchmark-and-pin multi-kernel dispatch
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


class MultiKernelDispatcher:
    """Benchmark a macro-kernel's variants once, pin the winner.

    The PyTorch-Inductor multi-kernel pattern: on the first dispatch of a
    (kernel, input-shapes) pair every variant runs on the same inputs,
    their outputs are cross-checked byte-for-byte, wall time picks the
    winner, and only the winner ever runs again.  ``oracle`` controls the
    interpreter differential: ``"first"`` verifies on the benchmark
    dispatch, ``"always"`` on every dispatch, ``"off"`` never.
    """

    def __init__(self, oracle: str = "first") -> None:
        if oracle not in ("off", "first", "always"):
            raise ValueError(f"unknown oracle mode {oracle!r}")
        self.oracle = oracle
        self.stats: dict[str, int] = {}
        #: (kernel name, shape key) -> winning variant index.
        self._winners: dict[tuple[str, tuple[tuple[int, ...], ...]], int] = {}
        #: (kernel name, strategy) -> times that variant actually ran.
        self.variant_runs: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------

    def _shape_key(self, kernel: MacroKernel, env: Env) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(env[name].shape) for name in kernel.inputs)

    def winner_for(self, kernel: MacroKernel, env: Env) -> str | None:
        """The pinned strategy for these input shapes (None = not yet)."""
        index = self._winners.get((kernel.name, self._shape_key(kernel, env)))
        return kernel.variants[index].strategy if index is not None else None

    def _note_run(self, kernel: MacroKernel, variant: KernelVariant) -> None:
        key = (kernel.name, variant.strategy)
        self.variant_runs[key] = self.variant_runs.get(key, 0) + 1

    def _check_oracle(
        self, kernel: MacroKernel, env: Env, outputs: dict[str, Array],
        oracle_fn: OracleFn | None,
    ) -> None:
        if oracle_fn is None:
            return
        note_stat(self.stats, "oracle_checks")
        expected = oracle_fn(env)
        if not _outputs_equal(outputs, expected):
            raise CodegenDivergence(
                f"macro-kernel {kernel.name!r} diverged from the "
                "interpreter oracle"
            )

    # ------------------------------------------------------------------

    def dispatch(
        self, kernel: MacroKernel, env: Env, oracle_fn: OracleFn | None = None
    ) -> None:
        """Run ``kernel`` against ``env`` in place (winner or benchmark)."""
        note_stat(self.stats, "dispatches")
        key = (kernel.name, self._shape_key(kernel, env))
        pinned = self._winners.get(key)
        if pinned is not None:
            variant = kernel.variants[pinned]
            self._note_run(kernel, variant)
            variant.run(env)
            if self.oracle == "always":
                outputs = {name: env[name] for name in kernel.outputs}
                self._check_oracle(kernel, env, outputs, oracle_fn)
            return
        self._winners[key] = self._benchmark(
            kernel, env, oracle_fn if self.oracle != "off" else None
        )

    def _benchmark(
        self, kernel: MacroKernel, env: Env, oracle_fn: OracleFn | None
    ) -> int:
        """First dispatch: time every variant, cross-check, commit winner."""
        note_stat(self.stats, "benchmarks")
        runs: list[tuple[float, Env]] = []
        for variant in kernel.variants:
            scratch = dict(env)
            start = time.perf_counter()
            variant.run(scratch)
            runs.append((time.perf_counter() - start, scratch))
            self._note_run(kernel, variant)
        first = {name: runs[0][1][name] for name in kernel.outputs}
        for seconds, scratch in runs[1:]:
            outputs = {name: scratch[name] for name in kernel.outputs}
            if not _outputs_equal(first, outputs):
                raise CodegenDivergence(
                    f"macro-kernel {kernel.name!r} variants disagree "
                    f"byte-for-byte ({kernel.strategies()})"
                )
        self._check_oracle(kernel, env, first, oracle_fn)
        winner = min(range(len(runs)), key=lambda i: runs[i][0])
        strategy = kernel.variants[winner].strategy
        note_stat(self.stats, f"wins.{strategy}")
        env.update(runs[winner][1])
        return winner


__all__ = [
    "CODEGEN_ARTIFACT_KIND",
    "CellFuseStep",
    "CodegenDivergence",
    "ConvStep",
    "KernelStep",
    "KernelVariant",
    "MacroKernel",
    "MacroKernelSet",
    "MultiKernelDispatcher",
    "NodeStep",
    "RequantSpec",
    "STRATEGY_NEST",
    "STRATEGY_ROWSWEEP",
    "STRATEGY_SEQFUSE",
    "SeqFuseStep",
    "UnsupportedSegment",
    "codegen_model",
    "compile_segment",
    "note_stat",
]
