"""Instruction-program emission for representative kernels.

These builders emit *real* Ncore instruction programs for the W x K mapping
(Fig. 6 / Fig. 7) and the data-layout helpers that tile tensors into
4096-byte rows.  :mod:`repro.nkl.catalog` runs each at a zoo-layer shape on
the instruction-level simulator, bit-exactly against the numpy quantized
kernel of :mod:`repro.runtime.qkernels` — proving that the NKL's schedules
are implementable in the ISA, not just countable.

Layout convention (the "internal data layout optimized for Ncore"):

- A 4096-byte row is 64 broadcast groups of 64 lanes.
- *Data rows*: one row per input channel c; the 64-byte spatial tile of
  channel c is repeated across all 64 groups (periodic tiling is what lets
  a full-row rotation slide the spatial window for every output channel at
  once, as in Fig. 6).  The window programs pack ``64 // tile_w`` input
  rows into that tile, one ``tile_w``-lane slot per output row (Fig. 7).
- *Weight rows*: byte (g * 64 + idx) of a weight row holds the weight for
  output channel g at reduction index idx; ``broadcast64`` walks idx.

Each emitter stages RAM through the bus interface with numpy-built blocks,
one broadcast assignment per block, programs the OUT unit's configuration
registers, and emits its program as assembly text for
:func:`repro.isa.assemble`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dtypes import ChannelQuantParams, QuantParams, quantize, quantize_multiplier
from repro.isa import Instruction, SeqOp, SeqOpcode, assemble
from repro.ncore import Ncore
from repro.ncore.config import CHA_NCORE
from repro.nkl.schedule import BROADCAST_GROUP, PassPlan, ProgramShapeError, pass_plan

# The shipped CHA row width; per-machine programs read it from
# ``machine.config`` so a narrower or wider Ncore stages correctly.
ROW_BYTES = CHA_NCORE.row_bytes


def _configure_out(
    machine: Ncore,
    input_qp: QuantParams,
    weight_qp: QuantParams | ChannelQuantParams,
    output_qp: QuantParams,
    activation: str,
    channels: int | None,
) -> str:
    """Program the OUT unit through the slave interface, as the runtime
    does: zero offsets, requantize M = s_in * s_w / s_out and the activation
    clamp.  Returns the assembly suffix of the ``requant`` statement.

    Per-channel weight parameters program the per-lane registers (section
    IV-D.5): lane (g * 64 + m) carries output column g's M.  ``channels`` is
    the column count of a template whose weight axis 1 lands column g in
    broadcast group g (the W x K matmul); ``None`` takes per-tensor only.
    """
    if isinstance(weight_qp, ChannelQuantParams):
        if channels is None:
            raise ProgramShapeError("this template takes per-tensor weight parameters")
        if weight_qp.axis != 1 or weight_qp.num_channels != channels:
            raise ProgramShapeError("per-channel params must cover the N axis")
        if channels > machine.config.broadcast_groups:
            raise ProgramShapeError("per-channel params cover one pass of output columns")
        if len(set(weight_qp.zero_points)) != 1:
            raise ProgramShapeError(
                "the scalar weight zero-offset register needs one shared zero point"
            )
        mults = np.full(machine.config.lanes, 1 << 30, dtype=np.int64)
        shifts = np.full(machine.config.lanes, -1, dtype=np.int64)
        for g, scale in enumerate(weight_qp.scales):
            group = slice(g * BROADCAST_GROUP, (g + 1) * BROADCAST_GROUP)
            mults[group], shifts[group] = quantize_multiplier(
                input_qp.scale * scale / output_qp.scale
            )
        weight_zero = weight_qp.zero_points[0]
    else:
        mults, shifts = quantize_multiplier(
            input_qp.scale * weight_qp.scale / output_qp.scale
        )
        weight_zero = weight_qp.zero_point
    machine.set_requant(mults, shifts, output_qp.zero_point)
    machine.set_zero_offsets(data=input_qp.zero_point, weight=weight_zero)
    if activation == "relu6":
        machine.set_act_qmax(int(quantize(np.array(6.0), output_qp)))
    return {"none": "", "relu": " relu", "relu6": " relu6"}[activation]


def tile_data_row(values: np.ndarray, row_bytes: int = ROW_BYTES) -> np.ndarray:
    """Tile up to 64 spatial values of one channel across every group."""
    values = np.asarray(values, dtype=np.uint8)
    if values.size > BROADCAST_GROUP:
        raise ProgramShapeError("a data row tiles at most 64 spatial positions")
    tile = np.zeros(BROADCAST_GROUP, dtype=np.uint8)
    tile[: values.size] = values
    return np.tile(tile, row_bytes // BROADCAST_GROUP)


def pack_weight_row(weights: np.ndarray, row_bytes: int = ROW_BYTES) -> np.ndarray:
    """Pack a (out_channels, reduction<=64) weight block into one row; the
    channel count is bounded by the row's broadcast-group count."""
    weights = np.asarray(weights, dtype=np.uint8)
    groups = row_bytes // BROADCAST_GROUP
    if weights.ndim != 2 or weights.shape[0] > groups or weights.shape[1] > BROADCAST_GROUP:
        raise ProgramShapeError(
            f"weight blocks are at most {groups} x {BROADCAST_GROUP} per "
            f"{row_bytes}-byte row"
        )
    row = np.zeros((groups, BROADCAST_GROUP), dtype=np.uint8)
    k, c = weights.shape
    row[:k, :c] = weights
    return row.reshape(row_bytes)


def _stage_rows(machine: Ncore, ram: str, first_row: int, tiles: np.ndarray) -> None:
    """Write ``tiles`` (n, w), each tile repeated across a whole row, to the
    consecutive rows of the ``ram`` ("data" or "weight") from
    ``first_row``: one bus write, with its effects (the sanitizer's note
    of a host write, each written row's ECC re-encoded)."""
    memory = machine.data_ram if ram == "data" else machine.weight_ram
    if machine.sanitizer is not None:
        machine.sanitizer.on_host_write(
            ram, first_row * memory.row_bytes, len(tiles) * memory.row_bytes)
    memory.write_tiled(first_row, tiles)


def _data_tiles(data: np.ndarray) -> np.ndarray:
    """The (C, 64) data-row tiles of an (M <= 64, C) matrix: tile ci holds
    column ci, zero-filled past M (what :func:`tile_data_row` tiles)."""
    tiles = np.zeros((data.shape[1], BROADCAST_GROUP), dtype=np.uint8)
    tiles[:, : data.shape[0]] = data.T
    return tiles


def _pack_reduction_rows(cols: np.ndarray, row_bytes: int) -> np.ndarray:
    """Pack a (C, N) weight block into ceil(C / 64) weight rows: row r packs
    reduction indices r*64 .. r*64+63 of every column (see
    :func:`pack_weight_row`)."""
    return np.stack([
        pack_weight_row(cols[start : start + BROADCAST_GROUP].T, row_bytes)
        for start in range(0, cols.shape[0], BROADCAST_GROUP)
    ])

#: The data-RAM row the 1-D rotate conv pass stores into.
WK_OUTPUT_ROW = 64


@dataclass
class WkPassResult:
    """Where a W x K pass left its results."""

    output_row: int
    spatial: int
    out_channels: int

    def read(self, machine: Ncore) -> np.ndarray:
        """Read back the (spatial, out_channels) result tile."""
        row_bytes = machine.config.row_bytes
        row = np.frombuffer(
            machine.read_data_ram(self.output_row * row_bytes, row_bytes), np.uint8
        )
        # Group k holds output channel k's spatial values.
        return row.reshape(-1, BROADCAST_GROUP)[: self.out_channels, : self.spatial].T.copy()


def emit_conv1d_rotate_program(
    machine: Ncore,
    data: np.ndarray,
    weights: np.ndarray,
    input_qp: QuantParams,
    weight_qp: QuantParams,
    output_qp: QuantParams,
) -> tuple[list[Instruction], WkPassResult]:
    """A 1-D convolution using the Fig. 6 rotate idiom.

    ``data`` is (W + taps - 1,) quantized samples of one channel (already
    including the halo), ``weights`` is (out_channels <= 64, taps <= 64).
    Each tap is one fused (broadcast + MAC dlast + rotate) instruction,
    with the rotation sliding the input window under every accumulator
    group simultaneously — the exact inner loop of Fig. 6.
    """
    k, taps = weights.shape
    w_out = data.size - taps + 1
    row_bytes = machine.config.row_bytes
    groups = machine.config.broadcast_groups
    if w_out < 1 or data.size > BROADCAST_GROUP:
        raise ProgramShapeError("the halo'd input must fit one 64-lane tile")
    if k > groups:
        raise ProgramShapeError(f"at most {groups} output channels per pass")
    machine.write_data_ram(0, tile_data_row(data, row_bytes).tobytes())
    machine.write_weight_ram(0, pack_weight_row(weights, row_bytes).tobytes())
    _configure_out(machine, input_qp, weight_qp, output_qp, "none", None)
    source = f"""
    setaddr a0, 0
    setaddr a3, 0
    setaddr a5, 0
    bypass n0, dram[a0]        ; latch the input tile (arms dlast)
    loop {taps} {{
      broadcast64 n1, wtram[a3], a5, inc
      mac.uint8 dlast, n1, zoff
      rotl n0, n0, 1
    }}
    setaddr a6, {WK_OUTPUT_ROW}
    requant.uint8
    store a6
    halt
    """
    return assemble(source), WkPassResult(WK_OUTPUT_ROW, w_out, k)


@dataclass
class TiledMatmulResult:
    """Result placement of a multi-pass (tiled) matmul."""

    tiles: list[tuple[int, int, WkPassResult]]  # (m_base, n_base, pass)
    rows_total: int
    cols_total: int

    def read(self, machine: Ncore) -> np.ndarray:
        out = np.zeros((self.rows_total, self.cols_total), dtype=np.uint8)
        for m_base, n_base, tile in self.tiles:
            block = tile.read(machine)
            out[m_base : m_base + tile.spatial, n_base : n_base + tile.out_channels] = block
        return out


def emit_tiled_matmul_program(
    machine: Ncore,
    data: np.ndarray,
    weights: np.ndarray,
    input_qp: QuantParams,
    weight_qp: QuantParams | ChannelQuantParams,
    output_qp: QuantParams,
    activation: str = "none",
) -> tuple[list[Instruction], TiledMatmulResult]:
    """A full quantized matmul of arbitrary (M, C, N) via 64x64 passes.

    ``data`` is the quantized (M, C) activation matrix and ``weights`` the
    quantized (C, N) matrix.  The W x K template handles one 64-row x
    64-column tile per pass (Fig. 7); larger problems tile the output
    space, exactly how the NKL's channel/spatial passes cover a
    convolution.  Data rows for the tiles share the per-c staging; weight
    rows are packed per n-tile.  Each reduction step c is one fused
    (bypass + broadcast64 + MAC) instruction — one clock per c, the Fig. 6
    inner-loop form.  Per-channel weight parameters (``ChannelQuantParams``
    over the N axis) program the per-lane requantize registers, so they
    cover one n-tile (N <= 64).
    """
    m, c = data.shape
    c2, n = weights.shape
    row_bytes = machine.config.row_bytes
    groups = machine.config.broadcast_groups
    if c != c2:
        raise ProgramShapeError("matmul reduction dims disagree")
    weight_rows_per_tile = -(-c // BROADCAST_GROUP)
    m_tiles = -(-m // BROADCAST_GROUP)
    n_tiles = -(-n // groups)
    if m_tiles * (c + n_tiles) > machine.config.sram_rows:  # data + output rows
        raise ProgramShapeError("problem exceeds the data RAM")
    # Stage data: per m-tile, one row per reduction index.
    for mt in range(m_tiles):
        chunk = data[mt * BROADCAST_GROUP : (mt + 1) * BROADCAST_GROUP]
        _stage_rows(machine, "data", mt * c, _data_tiles(chunk))
    # Stage weights: per n-tile, packed reduction slices.
    for nt in range(n_tiles):
        cols = weights[:, nt * groups : (nt + 1) * groups]
        _stage_rows(
            machine, "weight", nt * weight_rows_per_tile, _pack_reduction_rows(cols, row_bytes)
        )
    act = _configure_out(machine, input_qp, weight_qp, output_qp, activation, n)
    lines: list[str] = []
    tiles: list[tuple[int, int, WkPassResult]] = []
    out_row = m_tiles * c  # the output rows follow the data rows
    for mt in range(m_tiles):
        m_size = min(BROADCAST_GROUP, m - mt * BROADCAST_GROUP)
        for nt in range(n_tiles):
            n_size = min(groups, n - nt * groups)
            # Zero the accumulators by a non-accumulating MAC with zero.
            lines.append("mac.uint8 zero, zero, noacc")
            lines.append(f"setaddr a0, {mt * c}")
            for r in range(weight_rows_per_tile):
                chunk = min(BROADCAST_GROUP, c - r * BROADCAST_GROUP)
                lines += [
                    f"setaddr a3, {nt * weight_rows_per_tile + r}",
                    "setaddr a5, 0",
                    f"loop {chunk} {{",
                    "  bypass n0, dram[a0++]",
                    "  broadcast64 n1, wtram[a3], a5, inc",
                    "  mac.uint8 n0, n1, zoff",
                    "}",
                ]
            lines += [
                f"setaddr a6, {out_row}",
                f"requant.uint8{act}",
                "store a6",
            ]
            tiles.append(
                (mt * BROADCAST_GROUP, nt * groups, WkPassResult(out_row, m_size, n_size))
            )
            out_row += 1
    lines.append("halt")
    return assemble("\n".join(lines)), TiledMatmulResult(tiles, m, n)


def _fold_rows_program(
    machine: Ncore, rows: np.ndarray, op: str, multiplier: int, shift: int
) -> tuple[list[Instruction], int]:
    """Fold each streamed row into the accumulators with ``op``, then
    requantize by ``(multiplier, shift)``.  Returns the program and the
    output row index (one past a gap row after the inputs)."""
    rows = np.asarray(rows, dtype=np.uint8)
    count, width = rows.shape
    row_bytes = machine.config.row_bytes
    if width != row_bytes:
        raise ProgramShapeError(f"pooling rows must be full {row_bytes}-byte rows")
    output_row = count + 1
    _stage_rows(machine, "data", 0, rows)
    machine.set_requant(multiplier, shift, 0)
    source = f"""
    setaddr a0, 0
    mac.uint8 zero, zero, noacc     ; clear accumulators
    loop {count} {{
      {op}.uint8 dram[a0++], zero
    }}
    setaddr a6, {output_row}
    requant.uint8
    store a6
    halt
    """
    return assemble(source), output_row


def emit_max_pool_rows_program(
    machine: Ncore,
    rows: np.ndarray,
) -> tuple[list[Instruction], int]:
    """Row-wise max reduction: out[j] = max_i rows[i][j].

    The pooling idiom on the NPU: MAX folds each streamed row against the
    accumulator (section IV-D.4 lists min/max among the NPU operations),
    and the requantize is the identity.
    """
    return _fold_rows_program(machine, rows, "max", 1 << 30, -1)


def emit_elementwise_add_program(
    machine: Ncore,
    a: np.ndarray,
    b: np.ndarray,
    qp: QuantParams,
    output_qp: QuantParams,
) -> tuple[list[Instruction], int]:
    """Quantized elementwise add of two rows sharing one scale.

    acc = (a - z) + (b - z), then requantized to the output parameters —
    the residual-add kernel for the common case where the compiler has
    already requantized both inputs to a common scale.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    row_bytes = machine.config.row_bytes
    if a.shape != (row_bytes,) or b.shape != (row_bytes,):
        raise ProgramShapeError(f"elementwise rows must be full {row_bytes}-byte rows")
    machine.write_data_ram(0, a.tobytes())
    machine.write_weight_ram(0, b.tobytes())
    mult, shift = quantize_multiplier(qp.scale / output_qp.scale)
    machine.set_zero_offsets(data=qp.zero_point, weight=qp.zero_point)
    machine.set_requant(mult, shift, output_qp.zero_point)
    source = f"""
    add.uint8 dram[a0], wtram[a1], noacc, zoff
    setaddr a6, 4
    requant.uint8
    store a6
    halt
    """
    return assemble(source), 4


@dataclass
class Conv2dResult:
    """Result placement of a row-packed window program (Fig. 7).

    Pass p stores one row at ``output_base + p``: slot s of group k (its
    lanes ``s * plan.tile_w`` on) holds output row ``p * plan.slots + s``
    of channel k.  :func:`_window_program` returns one for both window
    emitters.
    """

    output_base: int
    out_channels: int
    plan: PassPlan

    def read(self, machine: Ncore) -> np.ndarray:
        """The (1, h_out, w_out, out_channels) result, unpacked from the slots."""
        row_bytes = machine.config.row_bytes
        plan = self.plan
        rows = np.frombuffer(machine.read_data_ram(
            self.output_base * row_bytes, plan.passes * row_bytes), np.uint8)
        tiles = rows.reshape(plan.passes, -1, plan.slots, plan.tile_w)
        out = tiles[:, : self.out_channels, :, : plan.w_out].transpose(0, 2, 3, 1)
        return out.reshape(1, -1, plan.w_out, self.out_channels)[:, : plan.h_out].copy()


_TAP = "broadcast64 n1, wtram[a3], a5, inc | mac.uint8 dlast, n1, zoff"
_SLIDE, _LATCH = "rotl n0, n0, 1", "bypass n0, dram[a0++]"


def _window_program(
    machine: Ncore, plan: PassPlan, act: str, channels: int
) -> tuple[list[Instruction], Conv2dResult]:
    """The packed window program: ``plan.passes`` passes over the latch
    rows staged consecutively from data row 0, in the order of
    ``plan.latch_taps`` (the tap count of each latch of a pass); the
    output rows follow them.  It checks that the layer fits one program:
    one 64-lane tile, one weight index range (a pass's taps), a channel
    per broadcast group, and the data RAM.

    Every tap is one Fig. 6 word: broadcast the next weight byte, MAC
    ``dlast``, and slide the latched row one lane (``rotl``); a latch's
    taps but its last are one hardware repeat.  The last tap latches the
    next staged row instead (``bypass n0, dram[a0++]``: the MAC still
    reads the row ``dlast`` held entering the cycle), so a latch costs no
    issue of its own — the first is primed once, a pass's last tap
    latches the next pass's first row, and the program's last tap latches
    nothing.  A pass is the accumulator clear, the weight-index reset,
    one word per tap, then one ``requant`` + ``store a6, inc`` for all
    its output rows (:attr:`PassPlan.pass_words` counts them).
    """
    groups = machine.config.broadcast_groups
    if plan.x_tiles > 1:
        raise ProgramShapeError("output width plus the rotation reach must fit one 64-lane tile")
    if sum(plan.latch_taps) > BROADCAST_GROUP:
        raise ProgramShapeError("a pass's taps must fit one weight index range")
    if channels > groups:
        raise ProgramShapeError(f"at most {groups} output channels per pass")
    output_base = plan.passes * len(plan.latch_taps)
    if output_base + plan.passes > machine.config.sram_rows:
        raise ProgramShapeError("latch and output rows exceed the data RAM")

    def latch(taps: int, last_word: str) -> str:
        slides = f"loop {taps - 1} {{\n{_TAP}\n{_SLIDE}\n}}\n" if taps > 1 else ""
        return slides + last_word

    def pass_text(last: bool) -> str:
        words = [latch(taps, f"{_TAP} | {_LATCH}") for taps in plan.latch_taps]
        if last:
            words[-1] = latch(plan.latch_taps[-1], _TAP)
        lines = ["mac.uint8 zero, zero, noacc", "setaddr a5, 0", *words]
        return "\n".join(lines + [f"requant.uint8{act}", "store a6, inc"])

    # Every pass but the last is the same text: assemble it once, and repeat
    # its instructions.
    prologue = assemble(f"setaddr a0, 0\nsetaddr a3, 0\nsetaddr a6, {output_base}\n{_LATCH}")
    program = [*prologue, *assemble(pass_text(False)) * (plan.passes - 1),
               *assemble(f"{pass_text(True)}\nhalt")]
    return program, Conv2dResult(output_base, channels, plan)


def emit_conv2d_program(
    machine: Ncore,
    x: np.ndarray,
    weights: np.ndarray,
    input_qp: QuantParams,
    weight_qp: QuantParams,
    output_qp: QuantParams,
    padding: tuple = ((0, 0), (0, 0)),
    stride: tuple = (1, 1),
    activation: str = "none",
) -> tuple[list[Instruction], Conv2dResult]:
    """A full 2-D quantized convolution (stride 1 or 2) on the W x K mapping.

    Group k accumulates output channel k; its 64 lanes hold the slots of
    the layer's :func:`repro.nkl.schedule.pass_plan` (Fig. 7's row
    packing: ``tile_w`` covers ``w_out`` plus the rotation reach), and
    slot s of pass p computes output row ``p * slots + s``.  A latch
    row serves one (filter row, in-channel, x-phase) of one pass: its
    64-byte tile, slot s holding that input row's phase columns, repeats
    across every group.  The latch rows are staged in the order the
    program walks them, so each latch rides in the previous tap's word
    and every tap is one clock (see :func:`_window_program`, whose
    cycles :func:`repro.nkl.schedule.conv2d_schedule` counts).

    Strided convolutions stage *phase tiles* — the GCL's "data and code
    transformations such that the vector loads and stores operate on
    contiguous rows" (section IV-E): phase p holds input columns
    p, p+sw, p+2*sw, ...; tap s then reads phase (s % sw) rotated by
    (s // sw), so the inner loop keeps its one-clock-per-tap form.

    Constraints of this single-channel-pass template: output width plus
    the rotation reach <= 64, kh * kw * cin <= 64 (the weight row indexes
    all taps of one output channel), out_channels <= 64.  Larger shapes
    tile across passes (see the schedule model).
    """
    kh, kw, cin, cout = weights.shape
    (pt, pb), (pl, pr) = padding
    sh, sw = stride
    if sh != sw or sh not in (1, 2):
        raise ProgramShapeError("this template supports stride 1 or 2")
    n, h, w, _ = x.shape
    if n != 1:
        raise ProgramShapeError("this template runs one image per pass")
    w_pad = w + pl + pr
    h_pad = h + pt + pb
    h_out, w_out = (h_pad - kh) // sh + 1, (w_pad - kw) // sw + 1
    plan = pass_plan(h_out, w_out, kh, kw, sh, cin)
    row_bytes = machine.config.row_bytes
    act = _configure_out(machine, input_qp, weight_qp, output_qp, activation, None)
    program, result = _window_program(machine, plan, act, cout)  # checks the fit before any staging
    tile_w, in_rows = plan.tile_w, plan.rows()
    phases = range(len(plan.phase_taps))  # the x-phases that have a tap
    # Padded input, zp-filled down to the last row the last pass reads.
    zp = input_qp.zero_point & 0xFF
    padded = np.full((max(h_pad, in_rows.max() + 1), w_pad, cin), zp, dtype=np.uint8)
    padded[pt : pt + h, pl : pl + w, :] = x[0]
    # Phase p's slot holds columns p, p+sw, ... (tile_w of them), zp-filled.
    tiles = np.full((len(padded), cin, len(phases), tile_w), zp, dtype=np.uint8)
    for phase in phases:
        cols = padded[:, phase::sw, :][:, :tile_w, :]
        tiles[:, :, phase, : cols.shape[1]] = cols.transpose(0, 2, 1)
    # Latch rows in walk order (pass, filter_y, in_channel, phase); the
    # slots of one latch fill its 64-byte tile.
    latches = tiles[in_rows].transpose(0, 1, 3, 4, 2, 5)
    _stage_rows(machine, "data", 0, latches.reshape(-1, BROADCAST_GROUP))
    # Stage weights in the exact order the broadcast index walks them:
    # (filter_y, in_channel, phase, taps within the phase ascending).
    tap_order = [
        (r, c, s_tap)
        for r in range(kh)
        for c in range(cin)
        for phase in phases
        for s_tap in range(phase, kw, sw)
    ]
    r_idx, c_idx, s_idx = np.array(tap_order).T
    taps = weights[r_idx, s_idx, c_idx, :]  # (len(tap_order), cout)
    machine.write_weight_ram(0, pack_weight_row(taps.T, row_bytes).tobytes())
    return program, result


def _bank_cut(program: list[Instruction], position: int, room: int) -> int:
    """Where the chunk starting at ``position`` ends: at most ``room``
    instructions on, and never inside a ``loopn`` body — a loop's
    ``endloop`` jumps to a pc in the bank its ``loopn`` ran from, so the
    cut moves back to before the outermost loop still open there."""
    end = position + room
    if end >= len(program):
        return len(program)
    depth = 0
    outer = position  # pc of the outermost open loopn
    for pc in range(position, end):
        opcode = program[pc].seq.opcode
        if opcode is SeqOpcode.LOOP_BEGIN:
            if depth == 0:
                outer = pc
            depth += 1
        elif opcode is SeqOpcode.LOOP_END and depth:
            depth -= 1
    if depth == 0:
        return end
    if outer == position:
        raise ProgramShapeError(
            f"the loopn at pc {outer} has a body longer than one "
            f"{room}-instruction bank chunk"
        )
    return outer


def run_streamed(machine: Ncore, program: list[Instruction]):
    """Execute a program of any length through the double-buffered IRAM.

    Programs longer than one bank are split into chunks at loop depth 0;
    each chunk is loaded into the inactive bank and the banks are swapped —
    exactly the loading flow section IV-C.1 describes ("instruction RAM
    loading [does] not hinder Ncore's latency or throughput").  The
    machine's architectural state carries across swaps.  Returns the last
    chunk's MachineRunResult; raises :class:`ProgramShapeError` when one
    ``loopn`` body cannot fit a bank.
    """
    # Leave room for the bank-boundary halt we may need to append.
    room = machine.iram.bank_instructions - 1
    result = None
    position = 0
    while position < len(program):
        cut = _bank_cut(program, position, room)
        chunk = list(program[position:cut])
        position = cut
        if not chunk[-1].is_halt:
            chunk.append(Instruction(seq=SeqOp(SeqOpcode.HALT)))
        result = machine.execute_program(chunk)
        if not result.halted:
            break
    return result


def emit_depthwise_program(
    machine: Ncore,
    x: np.ndarray,
    weights: np.ndarray,
    input_qp: QuantParams,
    weight_qp: QuantParams,
    output_qp: QuantParams,
    padding: tuple = ((0, 0), (0, 0)),
    activation: str = "none",
) -> tuple[list[Instruction], Conv2dResult]:
    """A depthwise 2-D convolution (stride 1) on the per-channel-group map.

    Depthwise layers assign each 64-lane group its *own* channel (the
    mapping behind :func:`repro.nkl.schedule.depthwise_schedule`): latch
    row r of pass p holds, in slot s of group g, channel g's padded input
    row ``p * slots + s + r`` (the slots as in
    :func:`emit_conv2d_program`).  One fused word advances every channel's
    filter tap for every packed output row at once — kh * kw clocks per
    pass regardless of the channel count, the property that makes
    depthwise layers cheap in cycles but weak in MACs/cycle (the MobileNet
    utilization story).  The latches ride in the taps' words as in
    :func:`_window_program`.
    """
    kh, kw, c = weights.shape
    (pt, pb), (pl, pr) = padding
    n, h, w, _ = x.shape
    if n != 1:
        raise ProgramShapeError("this template runs one image per pass")
    w_pad = w + pl + pr
    h_pad = h + pt + pb
    h_out, w_out = h_pad - kh + 1, w_pad - kw + 1
    row_bytes = machine.config.row_bytes
    groups = machine.config.broadcast_groups
    plan = pass_plan(h_out, w_out, kh, kw, 1, 1)
    act = _configure_out(machine, input_qp, weight_qp, output_qp, activation, None)
    program, result = _window_program(machine, plan, act, c)  # checks the fit before any staging
    tile_w, in_rows = plan.tile_w, plan.rows()
    zp = input_qp.zero_point & 0xFF
    # padded[y, g, :w_pad] is channel g's padded input row y, zp-filled
    # down to the last row the last pass reads.
    padded = np.full((max(h_pad, in_rows.max() + 1), groups, tile_w), zp, dtype=np.uint8)
    padded[pt : pt + h, :c, pl : pl + w] = x[0].transpose(0, 2, 1)
    latches = padded[in_rows].transpose(0, 1, 3, 2, 4)  # (pass, r, group, slot, lane)
    _stage_rows(machine, "data", 0, latches.reshape(-1, row_bytes))
    # Weight row: byte [g*64 + (r*kw + s)] holds weight[r, s, g].
    taps = weights.reshape(kh * kw, c)
    machine.write_weight_ram(0, pack_weight_row(taps.T, row_bytes).tobytes())
    return program, result


def emit_avg_pool_program(
    machine: Ncore,
    rows: np.ndarray,
) -> tuple[list[Instruction], int]:
    """Row-wise average: out[j] ~= mean_i rows[i][j].

    ADD folds each streamed row into the accumulator; the OUT unit's
    requantization multiplies by 1/count — the average-pool idiom (input
    and output share quantization parameters, so plain code averaging is
    exact up to the requantizer's rounding).
    """
    return _fold_rows_program(machine, rows, "add", *quantize_multiplier(1.0 / len(rows)))
