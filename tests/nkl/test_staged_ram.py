"""The RAM image and configuration each NKL emitter stages, pinned by digest.

The output checks in ``test_programs*.py`` see the staged bytes only
through the results a program computes from them; a staging change that
writes a byte no program reads (or a register no case exercises) slips
past them.  Here every emitter runs at a fixed seeded shape and the
SHA-256 of the whole data RAM, the whole weight RAM and the requant /
zero-offset / activation registers must equal the digest recorded from
the per-row, per-element staging these emitters used to do (the conv and
depthwise digests from a per-element staging of their row-packed latch
layout, cross-checked against the vectorized one).  Shapes are
chosen so the staging crosses block boundaries (more than 64 rows) and
leaves partial tiles (M, N and the reduction not multiples of 64).
"""

import hashlib

import numpy as np
import pytest

from repro.dtypes import ChannelQuantParams, NcoreDType, QuantParams
from repro.ncore import Ncore
from repro.nkl.programs import (
    emit_avg_pool_program,
    emit_conv1d_rotate_program,
    emit_conv2d_program,
    emit_depthwise_program,
    emit_elementwise_add_program,
    emit_max_pool_rows_program,
    emit_tiled_matmul_program,
)


def _qp(scale, zero_point):
    return QuantParams(scale=scale, zero_point=zero_point, dtype=NcoreDType.UINT8)


X_QP, W_QP, OUT_QP = _qp(0.02, 128), _qp(0.01, 120), _qp(0.3, 5)
SAME = ((1, 1), (1, 1))


def _u8(rng, *shape):
    return rng.integers(0, 256, size=shape).astype(np.uint8)


def _conv(h, w, cin, cout, k, stride, padding, activation):
    def emit(machine, rng):
        x, wt = _u8(rng, 1, h, w, cin), _u8(rng, k, k, cin, cout)
        return emit_conv2d_program(
            machine, x, wt, X_QP, W_QP, OUT_QP, padding=padding,
            stride=(stride, stride), activation=activation,
        )
    return emit


def _depthwise(machine, rng):
    x, wt = _u8(rng, 1, 10, 12, 45), _u8(rng, 3, 3, 45)
    return emit_depthwise_program(
        machine, x, wt, X_QP, W_QP, _qp(0.5, 5), padding=SAME, activation="relu6"
    )


def _matmul(machine, rng):
    return emit_tiled_matmul_program(
        machine, _u8(rng, 20, 130), _u8(rng, 130, 30), X_QP, W_QP, OUT_QP, "relu"
    )


def _matmul_per_channel(machine, rng):
    weight_qp = ChannelQuantParams(
        scales=tuple(0.01 + 0.001 * g for g in range(30)),
        zero_points=(120,) * 30,
        axis=1,
        dtype=NcoreDType.UINT8,
    )
    return emit_tiled_matmul_program(
        machine, _u8(rng, 20, 70), _u8(rng, 70, 30), X_QP, weight_qp, OUT_QP
    )


def _tiled_matmul(machine, rng):
    return emit_tiled_matmul_program(
        machine, _u8(rng, 70, 100), _u8(rng, 100, 70), X_QP, W_QP, OUT_QP, "relu6"
    )


def _conv1d_rotate(machine, rng):
    return emit_conv1d_rotate_program(
        machine, _u8(rng, 40), _u8(rng, 33, 9), X_QP, W_QP, OUT_QP
    )


def _max_pool(machine, rng):
    return emit_max_pool_rows_program(machine, _u8(rng, 9, 4096))


def _avg_pool(machine, rng):
    return emit_avg_pool_program(machine, _u8(rng, 70, 4096))


def _eltwise_add(machine, rng):
    return emit_elementwise_add_program(
        machine, _u8(rng, 4096), _u8(rng, 4096), X_QP, _qp(0.05, 10)
    )


#: name -> (emit(machine, rng), SHA-256 of the staged image).
CASES = {
    "conv3x3_s1": (
        _conv(12, 20, 7, 40, 3, 1, SAME, "relu"),
        "e2f7e39ad45c4c9d7f2e2f70e2fe0a177aa5c0aa64b94f910e0c9d672b2f4e28",
    ),
    "conv3x3_s2": (
        _conv(10, 40, 3, 32, 3, 2, ((0, 1), (0, 1)), "relu"),
        "42c0b56a22f527f6bd53aceb1c83c76a9f7bed60b233e67343c5d27a938fc3f6",
    ),
    "conv1x1": (
        _conv(3, 5, 64, 64, 1, 1, ((0, 0), (0, 0)), "none"),
        "5562c0400c7cfb66c39fea5591a339d535f034e33758dcde31142797366e6ef3",
    ),
    "conv5x5_s2_relu6": (
        _conv(9, 30, 2, 17, 5, 2, ((2, 2), (2, 2)), "relu6"),
        "ae6eec5bdf6a08bb57c69cead79c6e8c6df42801eef16851e8365ff1ab3ebed5",
    ),
    "depthwise3x3": (
        _depthwise,
        "98564fb495354462d8418eef40b2011c5a9d182d6e9ac69dc3e802f029bffaf3",
    ),
    "matmul": (
        _matmul,
        "aacbb8e461f82f03c2ccd17024a28a838b49462978d1e931be2a0f2a68332d6f",
    ),
    "matmul_per_channel": (
        _matmul_per_channel,
        "7dc29274ac31cc875fd0d7f3e86d9ee5174c510f93ab29fc7824ef4321c59e79",
    ),
    "tiled_matmul": (
        _tiled_matmul,
        "0f3f1aca4201b3cca8da9336c6067186db8736e569cdaf3a17dc53db3a8b1b00",
    ),
    "conv1d_rotate": (
        _conv1d_rotate,
        "29e00ccfe0b17c14e906836eacc074c7a2c0337c9db38870ec96018e9b2e58b4",
    ),
    "maxpool_rows": (
        _max_pool,
        "c3f6bab6a3eb1318849162e11874cf435d1014a147ec1099cd145a62c2327001",
    ),
    "avgpool": (
        _avg_pool,
        "29af811a98a971479a658ae6ccfd496a2ae0bbc02abda0740bb93c021e951020",
    ),
    "eltwise_add": (
        _eltwise_add,
        "9a9dc66d6d371b5e056abbc41fb2f8dc70f597bf00011d7bf34923f3e683c758",
    ),
}


def staged_digest(machine: Ncore) -> str:
    """SHA-256 over both RAMs and every register an emitter programs."""
    h = hashlib.sha256()
    for array in (
        machine.data_ram.data,
        machine.weight_ram.data,
        machine.requant_multiplier,
        machine.requant_shift,
        machine.requant_offset,
    ):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(
        repr((
            machine.data_zero_offset,
            machine.weight_zero_offset,
            machine.act_qmax,
            machine.float_scale,
            machine.act_lut,
        )).encode()
    )
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_staged_image_is_pinned(name):
    emit, expected = CASES[name]
    machine = Ncore()
    emit(machine, np.random.default_rng(sorted(CASES).index(name)))
    assert staged_digest(machine) == expected
