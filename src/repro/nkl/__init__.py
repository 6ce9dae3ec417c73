"""The Ncore Kernel Library (NKL).

Section V-B: "the NKL is similar in spirit to popular vendor-optimized deep
learning libraries such as NVidia's cuDNN and Intel's MKL-DNN.  The NKL is
responsible for generating the complete kernel implementation at the
assembly level to maximize performance", using hand-tuned inner kernels and
internal data layouts optimized for Ncore.

Each kernel has two coupled products derived from one schedule:

- a *cycle count* (closed-form over the Fig. 7 W x K loop-nest mapping),
  used by the fast model for full networks, and
- an *instruction program* emitted for representative shapes and validated
  on the instruction-level simulator against numpy (see
  :mod:`repro.nkl.programs`).

For the window kernels (conv, depthwise) both come from one pass plan,
:func:`repro.nkl.schedule.pass_plan`: the Fig. 7 rounding of ``w_out``
plus the filter's rotation reach, and the program's words.  The schedule
counts the cycles of exactly the program the emitter runs.
"""

from repro.nkl.lower import UnsupportedOpError, lower_segment
from repro.nkl.schedule import (
    BROADCAST_GROUP,
    KernelSchedule,
    conv2d_schedule,
    depthwise_schedule,
    elementwise_schedule,
    lstm_schedule,
    matmul_schedule,
    pool_schedule,
)

__all__ = [
    "BROADCAST_GROUP",
    "KernelSchedule",
    "UnsupportedOpError",
    "conv2d_schedule",
    "depthwise_schedule",
    "elementwise_schedule",
    "lower_segment",
    "lstm_schedule",
    "matmul_schedule",
    "pool_schedule",
]
