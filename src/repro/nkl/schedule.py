"""Kernel schedules: the Fig. 7 mapping and its closed-form cycle counts.

The convolution dataflow (Fig. 7): "One spatial dimension (width or height)
is selected and rounded up to the nearest power-of-2 ... W x K is
parallelized over Ncore's 4096 SIMD width."  Concretely, each row is a set
of 64-lane broadcast groups (64 groups of 64 lanes at the shipped 16-slice
point); each group serves one output channel, and the 64 lanes of a group
cover a tile of spatial positions (several output rows at once when the
width is small — this is how "sufficient parallelism is maintained" as
spatial dims shrink and channel counts grow with depth).  The width
rounded is ``w_out`` plus the filter's rotation reach.

:func:`pass_plan` states that mapping once: the conv and depthwise
emitters stage and emit from it, and their schedules count the cycles of
the same program — one clock per tap (Fig. 6: one fused broadcast + MAC +
rotate at 8 bits), a 4-clock pass epilogue, the setup words and the halts
of the IRAM chunks.  The other kernels count their loop-nest volume plus a
per-pass epilogue and a per-layer setup estimate.

Every schedule function takes an optional :class:`NcoreConfig`; the group
*size* (64 lanes) is fixed by the broadcast network, while the group
*count* — the channel parallelism of a pass — and the row width scale with
``config.slices``.  Omitting the config yields the shipped CHA point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.dtypes import NcoreDType, dtype_info
from repro.ncore.config import BROADCAST_GROUP_LANES, NcoreConfig

BROADCAST_GROUP = BROADCAST_GROUP_LANES  # lanes per group (section IV-D.3)
PASS_EPILOGUE_CYCLES = 4        # requant + store + address bookkeeping
KERNEL_SETUP_CYCLES = 32        # per-layer estimate where no pass plan counts it

# The shipped configuration, used when a schedule is requested without an
# explicit config (4096 lanes, 64 broadcast groups).
_CHA = NcoreConfig()


class ProgramShapeError(ValueError):
    """The shape does not fit this program template's constraints."""


@dataclass(frozen=True)
class KernelSchedule:
    """The shape of one lowered kernel's execution."""

    kernel: str
    passes: int                  # output tiles: spatial x channel passes
    inner_cycles: int            # fused-instruction issues per pass
    epilogue_cycles: int         # per-pass requant/store overhead
    setup_cycles: int            # one-time per-layer overhead
    macs: int                    # useful MACs performed
    weight_bytes: int            # weight traffic if streamed
    dtype: NcoreDType = NcoreDType.INT8
    lanes: int = _CHA.lanes      # SIMD width the schedule was built for
    bank_halts: int = 0          # one halt per IRAM chunk after the first

    @property
    def cycles(self) -> int:
        """Total Ncore cycles for this kernel."""
        issue = dtype_info(self.dtype).npu_cycles
        return self.setup_cycles + self.bank_halts + self.passes * (
            self.inner_cycles * issue + self.epilogue_cycles
        )

    @property
    def utilization(self) -> float:
        """Fraction of peak MAC throughput achieved (at this dtype)."""
        if self.cycles == 0:
            return 0.0
        issue = dtype_info(self.dtype).npu_cycles
        peak = self.lanes * self.cycles / issue
        return min(1.0, self.macs / peak)


@dataclass(frozen=True)
class PassPlan:
    """Fig. 7's pass plan for a window kernel, and the size of the program
    that runs it (:func:`repro.nkl.programs.emit_conv2d_program`).

    A slot is ``tile_w`` lanes, the power of two covering ``w_out`` plus
    the rotation reach ``(kw - 1) // stride``, and a 64-lane group carries
    ``slots`` of them, one output row each; a reach past 64 lanes runs
    ``x_tiles`` one-slot tiles.  ``phase_taps`` holds the taps of each
    x-phase (phase p: input columns p, p + stride, ...), ``latch_taps``
    those of each latched input row of a pass, in walk order (filter row,
    channel, x-phase).
    """

    h_out: int
    w_out: int
    tile_w: int
    slots: int
    x_tiles: int
    passes: int                  # spatial passes: x-tiles x row passes
    stride: int
    kh: int
    phase_taps: tuple[int, ...]
    latch_taps: tuple[int, ...]

    #: Three address registers, the first latch, and the final halt.
    setup_words = 5

    @property
    def pass_words(self) -> int:
        """A latch's taps but its last are one repeat word, its last tap one
        more; then the clear, weight-index reset, requant and store."""
        return PASS_EPILOGUE_CYCLES + sum(1 + (t > 1) for t in self.latch_taps)

    def rows(self) -> np.ndarray:
        """The (passes, kh, slots) input-row grid: latch r of pass p holds,
        in slot s, input row ``(p * slots + s) * stride + r``."""
        out_rows = np.arange(self.passes * self.slots).reshape(-1, 1, self.slots)
        return out_rows * self.stride + np.arange(self.kh).reshape(1, self.kh, 1)


def pass_plan(h_out: int, w_out: int, kh: int, kw: int, stride: int, depth: int) -> PassPlan:
    """The pass plan of a ``kh x kw`` window at ``stride`` over ``depth``
    latched channels (cin, or 1 when depthwise); it lives inside one
    broadcast group, so it is independent of the slice count."""
    reach = (kw - 1) // stride
    if reach >= BROADCAST_GROUP:
        raise ProgramShapeError(f"a {kw}-wide filter at stride {stride} outreaches a group")
    tile_w = min(1 << (w_out + reach - 1).bit_length(), BROADCAST_GROUP)
    slots = BROADCAST_GROUP // tile_w
    x_tiles = -(-w_out // (BROADCAST_GROUP - reach))
    phase_taps = tuple(len(range(p, kw, stride)) for p in range(min(stride, kw)))
    passes = x_tiles * -(-h_out // slots)
    latches = phase_taps * (kh * depth)
    return PassPlan(h_out, w_out, tile_w, slots, x_tiles, passes, stride, kh, phase_taps, latches)


def conv2d_schedule(
    in_channels: int,
    out_channels: int,
    h_out: int,
    w_out: int,
    filter_h: int,
    filter_w: int,
    dtype: NcoreDType = NcoreDType.INT8,
    batch: int = 1,
    stride: int = 1,
    config: NcoreConfig | None = None,
) -> KernelSchedule:
    """Standard convolution on the W x K mapping: the cycles of its pass
    plan's program, one fused instruction per (filter_y, filter_x,
    in_channel) and pass, run per (image, broadcast group of output channels).
    ``run_streamed`` loads it in IRAM chunks of one bank less a word and
    ends every chunk but the last with a halt (``bank_halts``)."""
    config = config or _CHA
    plan = pass_plan(h_out, w_out, filter_h, filter_w, stride, in_channels)
    passes = batch * plan.passes * -(-out_channels // config.broadcast_groups)
    words = plan.setup_words + passes * plan.pass_words
    inner = filter_h * filter_w * in_channels
    return KernelSchedule(
        kernel="conv2d",
        passes=passes,
        inner_cycles=inner,
        epilogue_cycles=PASS_EPILOGUE_CYCLES,
        setup_cycles=plan.setup_words,
        macs=batch * h_out * w_out * out_channels * inner,
        weight_bytes=inner * out_channels * dtype_info(dtype).bytes_per_element,
        dtype=dtype,
        lanes=config.lanes,
        bank_halts=-(-words // (config.iram_instructions - 1)) - 1,
    )


def depthwise_schedule(
    channels: int,
    h_out: int,
    w_out: int,
    filter_h: int,
    filter_w: int,
    dtype: NcoreDType = NcoreDType.INT8,
    batch: int = 1,
    stride: int = 1,
    config: NcoreConfig | None = None,
) -> KernelSchedule:
    """Depthwise convolution: each group is one channel, so it is the
    convolution of one input channel per group — the inner loop covers
    only the filter taps."""
    conv = conv2d_schedule(
        1, channels, h_out, w_out, filter_h, filter_w, dtype, batch, stride, config
    )
    return replace(conv, kernel="depthwise_conv2d")


def matmul_schedule(
    rows: int,
    inner: int,
    cols: int,
    dtype: NcoreDType = NcoreDType.INT8,
    config: NcoreConfig | None = None,
) -> KernelSchedule:
    """Dense matmul (rows, inner) x (inner, cols).

    Two implementation strategies, as section IV-E allows ("a number of
    implementation strategies may be used"); the NKL picks the cheaper:

    - *tile mapping* (the 1x1-conv form): 64 rows x one group-count of
      columns per pass — efficient for GEMM-shaped work;
    - *vector-matrix mapping*: the data element is broadcast across the
      whole row and every lane holds a distinct output column — the
      right form for small-batch LSTM/projection steps (GNMT).
    """
    config = config or _CHA
    tile_passes = max(1, -(-rows // BROADCAST_GROUP)) * -(
        -cols // config.broadcast_groups
    )
    vector_passes = max(1, rows) * -(-cols // config.lanes)
    passes = min(tile_passes, vector_passes)
    element = dtype_info(dtype).bytes_per_element
    return KernelSchedule(
        kernel="matmul",
        passes=passes,
        inner_cycles=inner,
        epilogue_cycles=PASS_EPILOGUE_CYCLES,
        setup_cycles=KERNEL_SETUP_CYCLES,
        macs=rows * inner * cols,
        weight_bytes=inner * cols * element,
        dtype=dtype,
        lanes=config.lanes,
    )


def pool_schedule(
    channels: int,
    h_out: int,
    w_out: int,
    ksize_h: int,
    ksize_w: int,
    dtype: NcoreDType = NcoreDType.INT8,
    batch: int = 1,
    config: NcoreConfig | None = None,
) -> KernelSchedule:
    """Max/average pooling: one MIN/MAX/ADD per tap, on the pass plan at zero reach."""
    config = config or _CHA
    spatial_passes = pass_plan(h_out, w_out, 1, 1, 1, 1).passes
    channel_passes = -(-channels // config.broadcast_groups)
    return KernelSchedule(
        kernel="pool",
        passes=batch * spatial_passes * channel_passes,
        inner_cycles=ksize_h * ksize_w,
        epilogue_cycles=PASS_EPILOGUE_CYCLES,
        setup_cycles=KERNEL_SETUP_CYCLES,
        macs=0,
        weight_bytes=0,
        dtype=dtype,
        lanes=config.lanes,
    )


def elementwise_schedule(
    num_elements: int,
    dtype: NcoreDType = NcoreDType.INT8,
    ops_per_row: int = 1,
    config: NcoreConfig | None = None,
) -> KernelSchedule:
    """Elementwise add/mul/activation: streams full rows, one op per row."""
    config = config or _CHA
    element = dtype_info(dtype).bytes_per_element
    rows = max(1, -(-(num_elements * element) // config.row_bytes))
    return KernelSchedule(
        kernel="elementwise",
        passes=rows,
        inner_cycles=ops_per_row,
        epilogue_cycles=2,  # requant + store per row
        setup_cycles=KERNEL_SETUP_CYCLES,
        macs=0,
        weight_bytes=0,
        dtype=dtype,
        lanes=config.lanes,
    )


def lstm_schedule(
    batch: int,
    input_size: int,
    hidden: int,
    dtype: NcoreDType = NcoreDType.BF16,
    config: NcoreConfig | None = None,
) -> KernelSchedule:
    """One LSTM step: the stacked (in+hidden, 4*hidden) matmul plus the
    elementwise gate math (a handful of row ops)."""
    config = config or _CHA
    gates = matmul_schedule(batch, input_size + hidden, 4 * hidden, dtype, config=config)
    gate_rows = max(1, -(-(batch * 4 * hidden * 2) // config.row_bytes))
    return KernelSchedule(
        kernel="lstm_cell",
        passes=gates.passes,
        inner_cycles=gates.inner_cycles,
        epilogue_cycles=gates.epilogue_cycles,
        setup_cycles=KERNEL_SETUP_CYCLES + gate_rows * 8,  # gate elementwise
        macs=gates.macs,
        weight_bytes=gates.weight_bytes,
        dtype=dtype,
        lanes=config.lanes,
    )
