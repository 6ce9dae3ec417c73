"""bfloat16 arithmetic support.

Ncore supports bfloat16 as a fallback datatype for models that need more
precision than int8 (section II-A.6 of the paper), and the GNMT submission
ran entirely in bfloat16.  numpy has no native bfloat16, so we represent
bfloat16 values as float32 arrays whose low 16 mantissa bits are zero, and
provide round-to-nearest-even conversion, exactly as truncating the float32
encoding would behave in hardware.
"""

from __future__ import annotations

import numpy as np

# Largest finite bfloat16 value: sign=0, exp=0xFE, mantissa=0x7F.
BF16_MAX = float(np.array([0x7F7F0000], dtype=np.uint32).view(np.float32)[0])
# Smallest positive normal bfloat16.
BF16_MIN_NORMAL = float(np.array([0x00800000], dtype=np.uint32).view(np.float32)[0])
# Machine epsilon for an 8-bit mantissa (7 explicit bits): 2**-7.
BF16_EPS = 2.0 ** -7


def to_bfloat16(x: np.ndarray | float) -> np.ndarray:
    """Round *x* to bfloat16 precision, returning float32 values.

    Uses round-to-nearest-even on the upper 16 bits of the IEEE-754 float32
    encoding, which is the rounding mode used by hardware bfloat16 units.
    NaN payloads are canonicalised, infinities pass through.
    """
    arr = np.asarray(x, dtype=np.float32)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    flat = arr.reshape(-1)
    bits = flat.view(np.uint32)
    # Round-to-nearest-even: add 0x7FFF plus the LSB of the part we keep.
    # uint32 wraparound can only occur for negative-NaN encodings, whose
    # lanes the NaN mask below overwrites, so no widening is needed.
    lsb = (bits >> np.uint32(16)) & np.uint32(1)
    rounded = (bits + (np.uint32(0x7FFF) + lsb)) & np.uint32(0xFFFF0000)
    out = rounded.view(np.float32)
    nan_mask = np.isnan(flat)
    if nan_mask.any():
        out[nan_mask] = np.nan
    return out.reshape(arr.shape)
