"""Sliding-window geometry of the GIR's conv, depthwise and pool ops: where
padding goes, the output size and the strided view each filter tap reads.

The float reference, the quantized kernels, the shape rule, the model
builder and the TF frontend read it.  Codegen's ``ConvStep`` nests and the
NKL emitters keep their own index arithmetic: they are the independent
implementations the codegen oracle and the catalog differential check it by.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

Padding = tuple[tuple[int, int], tuple[int, int]]
NO_PADDING: Padding = ((0, 0), (0, 0))


def same_padding(size: int, k: int, stride: int) -> tuple[int, int]:
    """TF 'SAME' for one dimension: the total padding split with the extra
    pixel after (bottom/right), a cross-framework difference the GCL
    normalizes (section V-B)."""
    total = max((-(-size // stride) - 1) * stride + k - size, 0)
    return total // 2, total - total // 2


def resolve_padding(spec, size, ksize, stride) -> Padding:
    """``"same"`` / ``"valid"`` (either case) or explicit ``((t, b), (l, r))``
    pads of a ``ksize`` window over a spatial ``size`` input."""
    if isinstance(spec, str) and spec.lower() == "valid":
        return NO_PADDING
    if isinstance(spec, str) and spec.lower() == "same":
        return tuple(same_padding(*dim) for dim in zip(size, ksize, stride, strict=True))
    (t, b), (l, r) = spec
    return ((int(t), int(b)), (int(l), int(r)))


def out_size(size, ksize, stride, padding: Padding = NO_PADDING) -> tuple[int, int]:
    """Output height and width of the walk; ``ValueError`` when the window
    does not fit the padded input or a stride is not positive."""
    if min(stride) < 1:
        raise ValueError(f"stride {tuple(stride)} is not positive")
    padded = [n + sum(pad) for n, pad in zip(size, padding, strict=True)]
    if ksize[0] > padded[0] or ksize[1] > padded[1]:
        raise ValueError(f"a {ksize[0]}x{ksize[1]} window does not fit the padded "
                         f"{padded[0]}x{padded[1]} input")
    return (padded[0] - ksize[0]) // stride[0] + 1, (padded[1] - ksize[1]) // stride[1] + 1


def pad_nhwc(x: np.ndarray, padding: Padding, value=0) -> np.ndarray:
    (top, bottom), (left, right) = padding
    return np.pad(x, ((0, 0), (top, bottom), (left, right), (0, 0)), constant_values=value)


def taps(x: np.ndarray, ksize, stride) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(i, j, view)`` per filter tap over the padded NHWC ``x``:
    ``view[:, y, z]`` is what tap ``(i, j)`` of output pixel ``(y, z)`` reads."""
    (kh, kw), (sh, sw) = ksize, stride
    oh, ow = out_size(x.shape[1:3], ksize, stride)
    for i in range(kh):
        for j in range(kw):
            yield i, j, x[:, i : i + oh * sh : sh, j : j + ow * sw : sw, :]
