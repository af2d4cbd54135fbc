"""Tensor substrate: device tags, dtypes and flat-buffer partitioning.

This package substitutes the parts of ``torch`` that ZeRO-Infinity's data
plane relies on: half/full precision dtypes, device placement tags
(GPU / CPU / NVMe), contiguous flat buffers, and the partitioning arithmetic
that splits a flat buffer evenly across data-parallel ranks.
"""

from repro.tensor.device import Device, DeviceKind, CPU, gpu, nvme
from repro.tensor.dtypes import DType, FP16, FP32, FP64, dtype_of
from repro.tensor.flat import (
    pad_flat,
    pad_to_multiple,
    partition_bounds,
    partition_padded_size,
    same_buffer,
)

__all__ = [
    "Device",
    "DeviceKind",
    "CPU",
    "gpu",
    "nvme",
    "DType",
    "FP16",
    "FP32",
    "FP64",
    "dtype_of",
    "pad_flat",
    "pad_to_multiple",
    "partition_bounds",
    "partition_padded_size",
    "same_buffer",
]
