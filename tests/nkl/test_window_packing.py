"""The row-packed window programs over a sweep of shapes.

``emit_conv2d_program`` and ``emit_depthwise_program`` stage and emit
from the layer's ``schedule.pass_plan``: they pack its slots of output
rows into each 64-lane group (Fig. 7) and latch each staged row in the
previous tap's word (Fig. 6).  Every case here must be byte-equal to its
``qkernels`` reference on both machine modes, run one MAC clock per tap
plus one accumulator clear per pass, run exactly the cycles that
``conv2d_schedule`` / ``depthwise_schedule`` count for the same shape and
stride (one case spans two IRAM chunks, so the chunk's halt is counted),
and — on a sample — read no row the staging left uninitialized.
The widths sit on both sides of the 16 / 32 / 64-lane slot boundaries
(``w_out`` plus the rotation reach), and the heights leave a partial last
pass.
"""

import numpy as np
import pytest

from repro.dtypes import NcoreDType, QuantParams
from repro.ncore import Ncore
from repro.nkl.programs import (
    ProgramShapeError,
    emit_conv2d_program,
    emit_depthwise_program,
    run_streamed,
)
from repro.nkl.schedule import conv2d_schedule, depthwise_schedule
from repro.runtime.qkernels import qconv2d, qdepthwise


def _qp(scale, zero_point):
    return QuantParams(scale=scale, zero_point=zero_point, dtype=NcoreDType.UINT8)


X_QP, W_QP = _qp(0.02, 128), _qp(0.01, 120)


def _same(size, k, stride):
    """TF-style SAME padding (the extra pixel bottom / right)."""
    total = max((-(-size // stride) - 1) * stride + k - size, 0)
    return (total // 2, total - total // 2)


def _padding(h, w, k, stride, same):
    if not same:
        return ((0, 0), (0, 0))
    return (_same(h, k, stride), _same(w, k, stride))


#: (h, w, cin, cout, k, stride, same): every k in {1, 3, 5, 7} at both
#: strides and paddings, then widths whose tile reach (w_out plus the
#: rotation reach) sits at and just past 16 / 32 / 64 lanes.
CONV_CASES = [
    (h, w, 64 // (k * k) if k > 1 else 5, 6, k, stride, same)
    for k, (h, w) in {1: (9, 13), 3: (7, 12), 5: (9, 11), 7: (11, 15)}.items()
    for stride in (1, 2)
    for same in (True, False)
] + [
    (13, 14, 2, 8, 3, 1, True),    # reach 16: 4 slots, 13 % 4 rows in the last pass
    (13, 15, 2, 8, 3, 1, True),    # reach 17: 2 slots of 32
    (5, 30, 3, 8, 3, 1, True),     # reach 32
    (5, 31, 3, 8, 3, 1, True),     # reach 33: 1 slot of 64
    (3, 62, 2, 8, 3, 1, True),     # reach 64
    (9, 16, 4, 8, 1, 1, False),    # w_out 16 = tile_w
    (7, 32, 4, 8, 1, 1, False),    # w_out 32
    (3, 64, 4, 8, 1, 1, False),    # w_out 64
    (11, 30, 3, 8, 3, 2, True),    # stride 2, reach 16
    (11, 62, 3, 8, 3, 2, True),    # stride 2, reach 32
    (7, 125, 1, 4, 3, 2, True),    # stride 2, reach 64
    (29, 14, 7, 8, 3, 1, True),    # 8 passes of 63 taps: 373 words, two IRAM chunks
]

#: (h, w, channels, k): the same widths on the per-channel-group map.
DEPTHWISE_CASES = [
    (13, 14, 16, 3),   # padded width 16, partial last pass
    (13, 15, 16, 3),   # 17
    (5, 30, 64, 3),    # 32
    (5, 31, 64, 3),    # 33
    (3, 62, 40, 3),    # 64
    (9, 16, 8, 1),     # k = 1 at 16 / 32 / 64
    (7, 32, 8, 1),
    (3, 64, 8, 1),
    (9, 12, 8, 5),     # padded width 16
    (6, 10, 8, 7),     # padded width 16
]

#: One case in four also runs on a sanitized interpreter.
SANITIZED = 4


def _run(emit, reference, fastpath, schedule=None, sanitize=False):
    machine = Ncore(fastpath=fastpath)
    sanitizer = machine.arm_sanitizer(True) if sanitize else None
    program, result = emit(machine)
    assert run_streamed(machine, program).halted
    np.testing.assert_array_equal(result.read(machine), reference)
    if schedule is not None:
        assert machine.total_cycles == schedule(result.plan).cycles
    if sanitizer is not None:
        assert sanitizer.ok, [d.message for d in sanitizer.report]
        assert sanitizer.stats["reads_checked"] > 0
    return machine, result


def _check_clocks(machine, result, taps):
    """One MAC clock per tap of each pass, plus one clear per pass."""
    assert machine.total_macs == result.plan.passes * (taps + 1) * machine.config.lanes


@pytest.mark.parametrize("index", range(len(CONV_CASES)))
def test_conv2d_packs_rows(index):
    h, w, cin, cout, k, stride, same = CONV_CASES[index]
    rng = np.random.default_rng(index)
    x = rng.integers(0, 256, size=(1, h, w, cin)).astype(np.uint8)
    weights = rng.integers(0, 256, size=(k, k, cin, cout)).astype(np.uint8)
    padding = _padding(h, w, k, stride, same)
    out_qp = _qp(0.3, 5)
    reference = qconv2d(
        x, weights, None, X_QP, W_QP, out_qp, stride=(stride, stride),
        padding=padding, activation="relu",
    )

    def emit(machine):
        return emit_conv2d_program(
            machine, x, weights, X_QP, W_QP, out_qp, padding=padding,
            stride=(stride, stride), activation="relu",
        )

    def schedule(plan):
        return conv2d_schedule(cin, cout, plan.h_out, plan.w_out, k, k, stride=stride)

    for fastpath in (False, True):
        machine, result = _run(emit, reference, fastpath, schedule)
    _check_clocks(machine, result, k * k * cin)
    if index % SANITIZED == 0:
        _run(emit, reference, False, sanitize=True)


@pytest.mark.parametrize("index", range(len(DEPTHWISE_CASES)))
def test_depthwise_packs_rows(index):
    h, w, c, k = DEPTHWISE_CASES[index]
    rng = np.random.default_rng(100 + index)
    x = rng.integers(0, 256, size=(1, h, w, c)).astype(np.uint8)
    weights = rng.integers(0, 256, size=(k, k, c)).astype(np.uint8)
    padding = ((k // 2, k // 2), (k // 2, k // 2))
    out_qp = _qp(0.5, 5)
    reference = qdepthwise(
        x, weights, None, X_QP, W_QP, out_qp, stride=(1, 1), padding=padding,
        activation="relu6",
    )

    def emit(machine):
        return emit_depthwise_program(
            machine, x, weights, X_QP, W_QP, out_qp, padding=padding,
            activation="relu6",
        )

    def schedule(plan):
        return depthwise_schedule(c, plan.h_out, plan.w_out, k, k)

    for fastpath in (False, True):
        machine, result = _run(emit, reference, fastpath, schedule)
    _check_clocks(machine, result, k * k)
    if index % SANITIZED == 0:
        _run(emit, reference, False, sanitize=True)


def test_latch_rows_beyond_the_data_ram_raise_a_shape_error():
    # 40 one-row passes of 64 latches: 2 600 rows against 2 048.
    with pytest.raises(ProgramShapeError, match="data RAM"):
        emit_conv2d_program(
            Ncore(), np.zeros((1, 40, 64, 64), np.uint8),
            np.zeros((1, 1, 64, 8), np.uint8), X_QP, W_QP, X_QP,
        )
