"""Device placement tags.

The functional layer runs entirely in host memory, but every tensor carries a
:class:`Device` tag identifying where it *logically* lives — GPU HBM, CPU
DRAM, or NVMe.  The ZeRO-Infinity engine moves tensors between these tiers
exactly like the real system; capacity accounting and the performance
simulator interpret the tags against hardware models.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class DeviceKind(str, Enum):
    """The three memory tiers ZeRO-Infinity spans (paper Sec. 5.1)."""

    GPU = "gpu"
    CPU = "cpu"
    NVME = "nvme"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


@dataclass(frozen=True, slots=True)
class Device:
    """A memory tier plus an index (GPU rank or NVMe drive id).

    CPU memory is shared per node so its index is always 0.
    """

    kind: DeviceKind
    index: int = 0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"device index must be >= 0, got {self.index}")
        if self.kind is DeviceKind.CPU and self.index != 0:
            raise ValueError("CPU device is singular per node; index must be 0")

    @property
    def is_cpu(self) -> bool:
        return self.kind is DeviceKind.CPU

    def __str__(self) -> str:
        if self.kind is DeviceKind.CPU:
            return "cpu"
        return f"{self.kind.value}:{self.index}"

    @staticmethod
    def parse(text: str) -> "Device":
        """Parse ``"gpu:3"``, ``"cpu"`` or ``"nvme:0"``."""
        kind, _, idx = text.partition(":")
        try:
            k = DeviceKind(kind)
        except ValueError as e:
            raise ValueError(f"unknown device kind in {text!r}") from e
        return Device(k, int(idx) if idx else 0)


CPU = Device(DeviceKind.CPU)


@lru_cache(maxsize=None)
def gpu(index: int) -> Device:
    """The GPU device with the given rank-local index."""
    return Device(DeviceKind.GPU, index)


@lru_cache(maxsize=None)
def nvme(index: int = 0) -> Device:
    """The NVMe device with the given drive index."""
    return Device(DeviceKind.NVME, index)
