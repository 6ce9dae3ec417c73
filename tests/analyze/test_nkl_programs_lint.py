"""The program verifier and the hazard analyzer over what the NKL emits.

Both passes were written for hand-emitted kernels; these are the kernels:
every ``emit_*`` of ``repro.nkl.programs`` at the zoo-layer shapes the
ledger's ``machine_nkl`` workload runs, plus its Fig. 6 loop.  Streamed
conv / depthwise programs exceed one IRAM bank by design (the runtime
double-buffers the banks), so ``isa.iram-overflow`` is the one finding
allowed.
"""

import pytest

from repro.analyze import analyze_program, analyze_program_hazards
from repro.isa import assemble
from repro.ncore import Ncore
from repro.nkl import programs as nkl

from tests.ncore.test_fastpath import _Q, _u8

_SAME = ((1, 1), (1, 1))

FIG6 = """
setaddr a0, 0
setaddr a3, 0
setaddr a5, 0
bypass n0, dram[a0]
loop 512 {
  broadcast64 n1, wtram[a3], a5, inc
  mac.uint8 dlast, n1
  rotl n0, n0, 64
}
setaddr a6, 8
requant.uint8
store a6
halt
"""


def _conv(h, w, cin, cout, k, stride, padding):
    return lambda m: nkl.emit_conv2d_program(
        m, _u8(1, h, w, cin), _u8(k, k, cin, cout), _Q, _Q, _Q,
        padding=padding, stride=(stride, stride), activation="relu",
    )


#: kind -> (emitter name, emit(machine) -> (program, handle)).
KINDS = {
    "conv3x3_s1": ("emit_conv2d_program", _conv(28, 28, 7, 64, 3, 1, _SAME)),
    "conv3x3_s2": ("emit_conv2d_program",
                   _conv(16, 112, 3, 32, 3, 2, ((0, 1), (0, 1)))),
    "conv1x1": ("emit_conv2d_program", _conv(14, 14, 64, 64, 1, 1, ((0, 0), (0, 0)))),
    "depthwise3x3": ("emit_depthwise_program", lambda m: nkl.emit_depthwise_program(
        m, _u8(1, 28, 28, 64), _u8(3, 3, 64), _Q, _Q, _Q,
        padding=_SAME, activation="relu6")),
    "matmul_fc": ("emit_tiled_matmul_program", lambda m: nkl.emit_tiled_matmul_program(
        m, _u8(128, 512), _u8(512, 128), _Q, _Q, _Q, "relu")),
    "matmul": ("emit_matmul_program", lambda m: nkl.emit_matmul_program(
        m, _u8(8, 32), _u8(32, 8), _Q, _Q, _Q)),
    "maxpool_rows": ("emit_max_pool_rows_program",
                     lambda m: nkl.emit_max_pool_rows_program(m, _u8(9, 4096))),
    "avgpool": ("emit_avg_pool_program",
                lambda m: nkl.emit_avg_pool_program(m, _u8(49, 4096))),
    "eltwise_add": ("emit_elementwise_add_program",
                    lambda m: nkl.emit_elementwise_add_program(
                        m, _u8(4096), _u8(4096), _Q, _Q)),
    "conv1d_rotate": ("emit_conv1d_rotate_program",
                      lambda m: nkl.emit_conv1d_rotate_program(
                          m, _u8(64), _u8(64, 9), _Q, _Q, _Q)),
    "fig6_loop": (None, lambda m: (assemble(FIG6), None)),
}


def test_every_emitter_is_linted():
    emitters = {name for name, _ in KINDS.values() if name}
    assert emitters == {n for n in dir(nkl) if n.startswith("emit_")}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_nkl_program_lints_clean(kind):
    program, _ = KINDS[kind][1](Ncore(fastpath=False))
    rules = {d.rule for d in analyze_program(program, name=kind)}
    assert rules <= {"isa.iram-overflow"}, rules
    hazards = analyze_program_hazards(program, name=kind)
    assert len(hazards) == 0, [d.message for d in hazards]
