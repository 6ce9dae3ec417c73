"""The Neural Data Unit (NDU): data movement within and across rows.

Section IV-D.3: the NDU performs data bypass, data row rotation, data block
compression, byte broadcasting, and masked merge of input with output; up
to three of these per clock.  Each slice's NDU connects to its neighbours
so an entire 4 KB row can be rotated in either direction, up to 64 bytes
per clock cycle.

These are pure functions over 4096-byte rows (uint8 numpy arrays); the
machine resolves operand sources and commits results to the NDU registers.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instruction import RotateDirection

BROADCAST_GROUP = 64  # broadcast64 group size in bytes


def bypass(row: np.ndarray) -> np.ndarray:
    """Pass a row through unchanged."""
    return row.copy()


def rotate(row: np.ndarray, amount: int, direction: RotateDirection) -> np.ndarray:
    """Rotate a row by ``amount`` bytes (<= 64 per clock).

    Rotation is across slice boundaries, with wraparound at row ends;
    "left" moves byte *i* to position *i - amount* (data slides toward
    lane 0), which is the direction Fig. 6's ``rotate_left`` uses to bring
    the next input element under each accumulator group.
    """
    if not 0 <= amount <= 64:
        raise ValueError(f"rotate amount {amount} exceeds 64 bytes/clock")
    split = (amount if direction is RotateDirection.LEFT else -amount) % row.size
    return np.concatenate((row[split:], row[:split]))


def broadcast64(row: np.ndarray, byte_index: int) -> np.ndarray:
    """Broadcast one byte across each 64-byte group.

    The row is divided into ``row_bytes / 64`` groups; group *g* is filled
    with the byte at ``row[g * 64 + byte_index]``.  This is the
    ``broadcast64(wtram[addr], addr_idx, increment)`` operation of Fig. 6,
    used to put one weight under each group of 64 accumulators (Fig. 7).
    """
    if row.size % BROADCAST_GROUP:
        raise ValueError("row size must be a multiple of the broadcast group")
    index = byte_index % BROADCAST_GROUP
    groups = row.reshape(-1, BROADCAST_GROUP)
    return groups[:, index].repeat(BROADCAST_GROUP)


def expand(row: np.ndarray, width: int, zero: int = 0) -> np.ndarray:
    """Decompress one zero-compressed weight block into a full row.

    Ncore "includes a hardware decompression engine for sparse weights"
    (section VII).  The scheme modelled is byte-wise zero run-length
    coding: the stream is (bitmap byte, nonzero payload...) per 8-byte
    group — a bitmap bit of 1 means the next payload byte, 0 means the
    ``zero`` byte.  For quantized weights the hardware fills with the
    configured weight zero offset, so that a pruned weight decompresses to
    exactly the code the NPU's zero-offset subtraction turns into 0.
    The input row holds the compressed stream; decompression stops when
    ``width`` output bytes have been produced.  Streams that do not expand
    to exactly one row are a kernel bug and raise ValueError.
    """
    out = np.full(width, zero & 0xFF, dtype=np.uint8)
    pos = 0
    produced = 0
    stream = row
    while produced < width:
        if pos >= stream.size:
            raise ValueError("compressed stream exhausted before filling a row")
        bitmap = int(stream[pos])
        pos += 1
        for bit in range(8):
            if produced >= width:
                break
            if bitmap & (1 << bit):
                if pos >= stream.size:
                    raise ValueError("compressed stream truncated payload")
                out[produced] = stream[pos]
                pos += 1
            produced += 1
    return out


def compress(row: np.ndarray) -> np.ndarray:
    """Software-side encoder matching :func:`expand` (used by the NKL).

    Returns the compressed stream as a uint8 array; zero bytes are
    elided.  The hardware only decompresses; compression
    happens at model-conversion time.
    """
    out: list[int] = []
    data = np.asarray(row, dtype=np.uint8)
    for start in range(0, data.size, 8):
        group = data[start : start + 8]
        bitmap = 0
        payload: list[int] = []
        for bit, value in enumerate(group):
            if value:
                bitmap |= 1 << bit
                payload.append(int(value))
        out.append(bitmap)
        out.extend(payload)
    return np.array(out, dtype=np.uint8)


def masked_merge(update: np.ndarray, previous: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Merge ``update`` into ``previous`` where the mask byte is nonzero."""
    return np.where(mask != 0, update, previous).astype(np.uint8)
