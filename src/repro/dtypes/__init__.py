"""Numerics substrate: Ncore datatypes, bfloat16, and quantization math."""

from repro.dtypes.bfloat16 import (
    BF16_EPS,
    BF16_MAX,
    BF16_MIN_NORMAL,
    to_bfloat16,
)
from repro.dtypes.fixedpoint import (
    ACC_MAX,
    ACC_MIN,
    DTypeInfo,
    NcoreDType,
    dtype_info,
    saturate,
)
from repro.dtypes.quantization import (
    ChannelQuantParams,
    QuantParams,
    Requantizer,
    choose_channel_quant_params,
    choose_quant_params,
    dequantize,
    quantize,
    quantize_multiplier,
    requantize,
    rounding_right_shift,
)

__all__ = [
    "ACC_MAX",
    "ACC_MIN",
    "BF16_EPS",
    "BF16_MAX",
    "BF16_MIN_NORMAL",
    "ChannelQuantParams",
    "DTypeInfo",
    "NcoreDType",
    "QuantParams",
    "Requantizer",
    "choose_channel_quant_params",
    "choose_quant_params",
    "dequantize",
    "dtype_info",
    "quantize",
    "quantize_multiplier",
    "requantize",
    "rounding_right_shift",
    "saturate",
    "to_bfloat16",
]
