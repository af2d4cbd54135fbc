"""Learning-rate schedule: linear warmup into a constant.

A schedule is a pure ``step -> lr`` function plus an ``apply`` helper that
writes into any optimizer exposing a mutable ``lr`` (both
:class:`repro.optim.Adam` and the ZeRO partitioned optimizer do).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConstantSchedule:
    """Optionally warmed-up constant learning rate."""

    lr: float
    warmup_steps: int = 0

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be non-negative")

    def __call__(self, step: int) -> float:
        if self.warmup_steps and step < self.warmup_steps:
            return self.lr * (step + 1) / self.warmup_steps
        return self.lr

    def apply(self, optimizer, step: int) -> float:
        lr = self(step)
        optimizer.lr = lr
        return lr
