"""The catalog of NKL machine programs: every program the instruction
machine runs outside the test suite, each defined once.

- :func:`build_kinds`: each :mod:`repro.nkl.programs` emitter at a
  zoo-layer shape, plus the Fig. 6 loop, with its ``qkernels`` reference;
- :func:`fig6_program`: the Fig. 6 fused convolution inner loop alone;
- :data:`MICROKERNEL`: the DMA + MAC-loop microkernel that ``repro run
  --trace`` profiles and ``repro run --sanitize`` verifies, with its DMA
  table and staging.

The performance ledger's ``machine_nkl`` workload keeps a frozen copy of
the ten kinds; ``tests/nkl/test_catalog.py`` holds the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.dtypes import NcoreDType, QuantParams, quantize_multiplier, requantize
from repro.isa import Instruction, assemble
from repro.ncore import DmaDescriptor, Ncore
from repro.nkl import programs as nkl
from repro.runtime import qkernels

#: Trip count of the Fig. 6 inner loop.
FIG6_TRIPS = 512
_FIG6_OUTPUT_ROW = 8


def _fig6_loop(trips: int) -> str:
    """The Fig. 6 fused convolution inner loop: latch one data row, then
    one (broadcast64 + MAC dlast + rotate) issue per trip."""
    return (
        "setaddr a0, 0\nsetaddr a3, 0\nsetaddr a5, 0\n"
        "bypass n0, dram[a0]\n"
        f"loop {trips} {{\n"
        "  broadcast64 n1, wtram[a3], a5, inc\n"
        "  mac.uint8 dlast, n1\n"
        "  rotl n0, n0, 64\n"
        "}\n"
    )


def fig6_program(trips: int) -> list[Instruction]:
    """The Fig. 6 inner loop of ``trips`` trips, then ``halt``."""
    return assemble(_fig6_loop(trips) + "halt")


@dataclass(frozen=True)
class Kind:
    """One NKL program at a fixed shape: ``emit(machine)`` stages RAM and
    returns ``(program, handle)``, ``read(machine, handle)`` fetches the
    result, and ``reference`` is the matching ``qkernels`` result (``None``
    where no bit-exact numpy kernel exists: the interpreter's output is
    then the reference)."""

    name: str
    emit: Callable[[Ncore], tuple[list[Instruction], Any]]
    read: Callable[[Ncore, Any], np.ndarray]
    reference: np.ndarray | None


def _qp(scale: float, zero_point: int) -> QuantParams:
    return QuantParams(scale=scale, zero_point=zero_point, dtype=NcoreDType.UINT8)


def _read_handle(machine: Ncore, handle: Any) -> np.ndarray:
    return handle.read(machine)


def _read_row(machine: Ncore, row: int) -> np.ndarray:
    row_bytes = machine.config.row_bytes
    return np.frombuffer(machine.read_data_ram(row * row_bytes, row_bytes), np.uint8)


def build_kinds(rng: np.random.Generator) -> list[Kind]:
    """The fixed table of ten kinds; ``rng`` only fills tensor values."""

    def u8(*shape: int) -> np.ndarray:
        return rng.integers(0, 255, size=shape).astype(np.uint8)

    row = nkl.ROW_BYTES
    x_qp, w_qp = _qp(0.02, 128), _qp(0.01, 120)
    kinds: list[Kind] = []

    def conv(name, h, w, cin, cout, k, stride, padding):
        x, wt, out_qp = u8(1, h, w, cin), u8(k, k, cin, cout), _qp(0.3, 5)
        kinds.append(Kind(
            name,
            lambda m: nkl.emit_conv2d_program(
                m, x, wt, x_qp, w_qp, out_qp, padding=padding,
                stride=(stride, stride), activation="relu",
            ),
            _read_handle,
            qkernels.qconv2d(
                x, wt, None, x_qp, w_qp, out_qp, stride=(stride, stride),
                padding=padding, activation="relu",
            ),
        ))

    same = ((1, 1), (1, 1))
    # A 3x3 conv row band at the deepest cin the single-pass template fits.
    conv("conv3x3_s1", 28, 28, 7, 64, 3, 1, same)
    # The MobileNet stem (3x3/2, cin=3, 32 filters) on a 16 x 112 band.
    conv("conv3x3_s2", 16, 112, 3, 32, 3, 2, ((0, 1), (0, 1)))
    # MobileNet pointwise 64 -> 64 at 14 x 14.
    conv("conv1x1", 14, 14, 64, 64, 1, 1, ((0, 0), (0, 0)))

    x, wt, out_qp = u8(1, 28, 28, 64), u8(3, 3, 64), _qp(0.5, 5)
    kinds.append(Kind(
        "depthwise3x3",
        lambda m: nkl.emit_depthwise_program(
            m, x, wt, x_qp, w_qp, out_qp, padding=same, activation="relu6"
        ),
        _read_handle,
        qkernels.qdepthwise(
            x, wt, None, x_qp, w_qp, out_qp, stride=(1, 1), padding=same,
            activation="relu6",
        ),
    ))

    data, fc_w = u8(128, 512), u8(512, 128)
    fc_in, fc_wq, fc_out = _qp(0.01, 128), _qp(0.01, 128), _qp(0.05, 8)
    kinds.append(Kind(
        "matmul_fc",
        lambda m: nkl.emit_tiled_matmul_program(m, data, fc_w, fc_in, fc_wq, fc_out, "relu"),
        _read_handle,
        qkernels.qfully_connected(data, fc_w, None, fc_in, fc_wq, fc_out, "relu"),
    ))

    pool_rows = u8(9, row)  # a 3x3 window, one full row per tap
    kinds.append(Kind(
        "maxpool_rows",
        lambda m: nkl.emit_max_pool_rows_program(m, pool_rows),
        _read_row,
        qkernels.qmax_pool(pool_rows.reshape(1, 9, 1, row), (9, 1), (1, 1)).reshape(-1),
    ))

    avg_rows = u8(49, row)  # the 7x7 global pool
    # The OUT unit's fixed-point 1/49 is within one code of qavg_pool's
    # round-half-up, not bit-equal: the interpreter's output is the reference.
    kinds.append(Kind(
        "avgpool", lambda m: nkl.emit_avg_pool_program(m, avg_rows), _read_row, None
    ))

    add_a, add_b = u8(row), u8(row)
    add_in, add_out = _qp(0.02, 128), _qp(0.05, 10)
    mult, shift = quantize_multiplier(add_in.scale / add_out.scale)
    acc = (add_a.astype(np.int64) - 128) + (add_b.astype(np.int64) - 128)
    kinds.append(Kind(
        "eltwise_add",
        lambda m: nkl.emit_elementwise_add_program(m, add_a, add_b, add_in, add_out),
        _read_row,
        requantize(acc.astype(np.int32), mult, shift, 10, NcoreDType.UINT8),
    ))

    taps, w_out, channels = 9, 56, 64
    signal, filt = u8(w_out + taps - 1), u8(channels, taps)
    c_in, c_w, c_out = _qp(0.02, 128), _qp(0.02, 128), _qp(0.1, 30)
    kinds.append(Kind(
        "conv1d_rotate",
        lambda m: nkl.emit_conv1d_rotate_program(m, signal, filt, c_in, c_w, c_out),
        _read_handle,
        qkernels.qconv2d(
            signal.reshape(1, 1, -1, 1), filt.T.reshape(1, taps, 1, channels),
            None, c_in, c_w, c_out,
        ).reshape(w_out, channels),
    ))

    fig6_data, fig6_weights = u8(row), u8(row)
    fig6_mult, fig6_shift = quantize_multiplier(1.0 / (FIG6_TRIPS * 128))

    def emit_fig6(machine: Ncore):
        machine.write_data_ram(0, fig6_data.tobytes())
        machine.write_weight_ram(0, fig6_weights.tobytes())
        machine.set_requant(fig6_mult, fig6_shift, 0)
        # An OUT-unit tail leaves an output row to compare.
        tail = f"setaddr a6, {_FIG6_OUTPUT_ROW}\nrequant.uint8\nstore a6\nhalt"
        return assemble(_fig6_loop(FIG6_TRIPS) + tail), _FIG6_OUTPUT_ROW

    kinds.append(Kind("fig6_loop", emit_fig6, _read_row, None))
    return kinds


#: The DMA + MAC-loop microkernel, as named regions: stage one weight row
#: through DMA (via the coherent L3 path), run a short MAC loop, write the
#: requantized row back.
MICROKERNEL = (
    ("stage_weights", "dmastart 0\ndmawait 1"),
    ("compute",
     "setaddr a0, 0\nsetaddr a3, 0\nsetaddr a5, 0\n"
     "loop 16 {\n"
     "  bypass n0, dram[a0]\n"
     "  broadcast64 n1, wtram[a3], a5, inc\n"
     "  mac.uint8 n0, n1\n"
     "}"),
    ("writeback", "setaddr a6, 64\nrequant.uint8 relu\nstore a6"),
)


#: The microkernel's DMA descriptor table.
MICROKERNEL_DMA = {
    0: DmaDescriptor(False, True, ram_row=0, rows=1, dram_addr=0, through_l3=True)
}


def stage_microkernel(machine: Ncore, dram_address: int) -> None:
    """Stage the microkernel's operands on ``machine``: one payload row in
    system memory at ``dram_address`` (the DMA source, window offset 0) and
    in data RAM row 0, plus the descriptor table."""
    payload = np.tile(np.arange(64, dtype=np.uint8), 64).tobytes()
    machine.memory.write(dram_address, payload)
    for index, descriptor in MICROKERNEL_DMA.items():
        machine.set_dma_descriptor(index, descriptor)
    machine.write_data_ram(0, payload)
