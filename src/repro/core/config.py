"""Configuration for ZeRO stages, offload placement, and strategies.

:class:`Strategy` enumerates the rows of the paper's Table 2 — the device
placement and partitioning options compared in Fig. 6a — and
``STRATEGY_PRESETS`` maps each to a concrete :class:`ZeroConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum, IntEnum
from typing import Optional

from repro.check.config import CheckConfig
from repro.utils.units import GB


class ZeroStage(IntEnum):
    """Which model states are partitioned (Sec. 2, 'ZeRO' background)."""

    NONE = 0  # classic data parallelism: everything replicated
    OPTIMIZER = 1  # ZeRO-1: optimizer states partitioned
    GRADIENTS = 2  # ZeRO-2: + gradients partitioned
    PARAMETERS = 3  # ZeRO-3: + parameters partitioned


class OffloadDevice(str, Enum):
    """Where a partitioned model state lives between uses."""

    NONE = "gpu"  # stays in GPU memory
    CPU = "cpu"
    NVME = "nvme"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


@dataclass(frozen=True)
class OffloadConfig:
    """Placement of the three model states plus staging-buffer budgets."""

    param_device: OffloadDevice = OffloadDevice.NONE
    grad_device: OffloadDevice = OffloadDevice.NONE
    optimizer_device: OffloadDevice = OffloadDevice.NONE
    activation_device: OffloadDevice = OffloadDevice.NONE  # checkpoint offload
    pinned_budget_bytes: int = 2 * GB  # pinned staging pool (Sec. 6.3)
    nvme_dir: Optional[str] = None  # spool directory; temp dir when None
    # Optimizer sub-group size: consecutive state shards pack up to this
    # many elements per sub-group; an NVMe shard larger than it streams in
    # equal spans no longer than it.
    optimizer_chunk_numel: int = 1 << 20

    @property
    def any_nvme(self) -> bool:
        return OffloadDevice.NVME in (
            self.param_device,
            self.grad_device,
            self.optimizer_device,
            self.activation_device,
        )


@dataclass(frozen=True)
class ZeroConfig:
    """Full engine configuration."""

    world_size: int = 1
    stage: ZeroStage = ZeroStage.PARAMETERS
    offload: OffloadConfig = field(default_factory=OffloadConfig)
    # Overlap-centric design (Sec. 6.2).
    prefetch_depth: int = 2  # 0 disables prefetching
    # Gradient bucketing (ZeRO's reduce_bucket_size): harvested gradients
    # accumulate into fixed-capacity flat buckets that reduce-scatter as one
    # collective when full (and at step boundaries), so the collective count
    # is O(numel / bucket) instead of O(#params).  A gradient larger than
    # the capacity reduces alone.
    reduce_bucket_numel: int = 500_000
    # Mixed precision.
    loss_scale: Optional[float] = None  # None => dynamic scaling
    # Memory-centric tiling default applied by the engine to oversized linears.
    tile_linear_threshold_numel: Optional[int] = None
    tile_factor: int = 1
    # Step-level recovery (docs/resilience.md): how many times the engine
    # replays a step whose forward/backward died of a recoverable I/O or
    # memory fault before giving up.  0 disables replay.
    step_retries: int = 1
    # Correctness checking (repro.check): which sanitizer passes the engine
    # runs.  All off by default; see docs/checking.md.
    check: CheckConfig = field(default_factory=CheckConfig)

    def __post_init__(self) -> None:
        if self.world_size <= 0:
            raise ValueError("world_size must be positive")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be non-negative")
        if self.reduce_bucket_numel <= 0:
            raise ValueError("reduce_bucket_numel must be positive")
        if self.stage < ZeroStage.PARAMETERS:
            if self.offload.param_device is not OffloadDevice.NONE:
                raise ValueError(
                    "parameter offload requires ZeRO stage 3 (parameters"
                    " must be partitioned before they can be offloaded)"
                )
        if self.tile_factor < 1:
            raise ValueError("tile_factor must be >= 1")
        if self.step_retries < 0:
            raise ValueError("step_retries must be >= 0 (0 disables replay)")

    def validate(self) -> "ZeroConfig":
        """Reject contradictory option combinations with actionable messages.

        ``__post_init__`` checks individual fields; this checks the
        *cross-field* combinations that would otherwise silently disable a
        feature or misbehave at runtime.  The engine calls it once at
        construction; configs built by hand can call it directly.
        """
        if self.loss_scale is not None and self.loss_scale <= 0:
            raise ValueError(
                f"loss_scale={self.loss_scale} disables every gradient:"
                " use a positive static scale, or None for dynamic scaling"
            )
        if self.tile_factor > 1 and self.tile_linear_threshold_numel is None:
            raise ValueError(
                f"tile_factor={self.tile_factor} does nothing without"
                " tile_linear_threshold_numel: set the threshold that"
                " selects which linears to tile, or leave tile_factor=1"
            )
        off = self.offload
        if off.pinned_budget_bytes <= 0:
            raise ValueError(
                "offload.pinned_budget_bytes must be positive — the pinned"
                " staging pool cannot be empty when any state is offloaded"
            )
        if off.optimizer_chunk_numel <= 0:
            raise ValueError(
                "offload.optimizer_chunk_numel must be positive: it is the"
                " NVMe streaming granularity of the optimizer step"
            )
        return self


class Strategy(str, Enum):
    """Table 2 rows: named placement + partitioning strategies."""

    DATA_PARALLEL = "data-parallel"
    ZERO_2 = "zero-2"
    ZERO_OFFLOAD = "zero-offload"
    THREED = "3d-parallelism"
    ZERO_3 = "zero-3"
    ZERO_INF_CPU = "zero-inf-cpu"
    ZERO_INF_NVME = "zero-inf-nvme"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.value


def _preset(stage: ZeroStage, offload: OffloadConfig, **kw) -> ZeroConfig:
    return ZeroConfig(stage=stage, offload=offload, **kw)


#: Concrete engine configs per Table 2 strategy (3D parallelism is a
#: baseline cost model, not an engine config — see repro.baselines.threed).
STRATEGY_PRESETS: dict[Strategy, ZeroConfig] = {
    Strategy.DATA_PARALLEL: _preset(ZeroStage.NONE, OffloadConfig()),
    Strategy.ZERO_2: _preset(ZeroStage.GRADIENTS, OffloadConfig()),
    Strategy.ZERO_OFFLOAD: _preset(
        ZeroStage.GRADIENTS,
        OffloadConfig(
            grad_device=OffloadDevice.CPU, optimizer_device=OffloadDevice.CPU
        ),
    ),
    Strategy.ZERO_3: _preset(ZeroStage.PARAMETERS, OffloadConfig()),
    Strategy.ZERO_INF_CPU: _preset(
        ZeroStage.PARAMETERS,
        OffloadConfig(
            param_device=OffloadDevice.CPU,
            grad_device=OffloadDevice.CPU,
            optimizer_device=OffloadDevice.CPU,
        ),
    ),
    Strategy.ZERO_INF_NVME: _preset(
        ZeroStage.PARAMETERS,
        OffloadConfig(
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
        ),
    ),
}


def config_for_strategy(
    strategy: Strategy, *, world_size: int, **overrides
) -> ZeroConfig:
    """A :class:`ZeroConfig` for a Table 2 strategy at a given world size."""
    if strategy is Strategy.THREED:
        raise ValueError(
            "3D parallelism is modeled by repro.baselines.threed, not by the"
            " ZeRO engine"
        )
    base = STRATEGY_PRESETS[strategy]
    return replace(base, world_size=world_size, **overrides)
