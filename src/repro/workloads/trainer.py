"""A training loop over the ZeRO-Infinity engine.

Composes the engine with a data iterator, a learning-rate schedule,
gradient accumulation, periodic evaluation and sharded checkpointing — the
surface a user "fine-tuning a trillion parameter model on a single DGX-2
node" would actually drive.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.core.checkpoint_io import save_checkpoint
from repro.core.engine import ZeroInfinityEngine
from repro.obs.tracer import trace_span


@dataclass
class TrainerConfig:
    total_steps: int
    grad_accumulation: int = 1
    log_every: int = 10
    eval_every: int = 0  # 0 disables periodic eval
    checkpoint_every: int = 0  # 0 disables checkpointing
    checkpoint_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.grad_accumulation < 1:
            raise ValueError("grad_accumulation must be >= 1")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ValueError("checkpoint_every requires checkpoint_dir")


@dataclass
class TrainHistory:
    """What happened, step by step."""

    losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    eval_losses: dict[int, float] = field(default_factory=dict)
    skipped_steps: list[int] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise ValueError("no steps recorded")
        return self.losses[-1]


class Trainer:
    """Drive an engine through ``config.total_steps`` optimizer steps."""

    def __init__(
        self,
        engine: ZeroInfinityEngine,
        data: Iterator,
        config: TrainerConfig,
        *,
        schedule=None,
        eval_fn: Optional[Callable[[ZeroInfinityEngine], float]] = None,
        metrics=None,
    ) -> None:
        self.engine = engine
        self.data = data
        self.config = config
        self.schedule = schedule
        self.eval_fn = eval_fn
        self.metrics = metrics  # optional MetricsLogger
        self.history = TrainHistory()

    def _next_rounds(self):
        return [next(self.data) for _ in range(self.config.grad_accumulation)]

    def fit(self) -> TrainHistory:
        cfg = self.config
        start = time.perf_counter()
        for step in range(self.engine.steps_taken, cfg.total_steps):
            if self.schedule is not None:
                lr = self.schedule.apply(self.engine.optimizer, step)
            else:
                lr = self.engine.optimizer.lr
            with trace_span("trainer:step", cat="engine", step=step):
                result = self.engine.train_step_accumulated(self._next_rounds())
            self.history.losses.append(result.mean_loss)
            self.history.lrs.append(lr)
            if result.skipped:
                self.history.skipped_steps.append(step)
            if self.metrics is not None:
                self.metrics.log_step(
                    step,
                    result.mean_loss,
                    lr,
                    skipped=result.skipped,
                    loss_scale=result.loss_scale,
                )
            if cfg.log_every and (step + 1) % cfg.log_every == 0:
                print(
                    f"step {step + 1}/{cfg.total_steps}"
                    f"  loss {result.mean_loss:.4f}  lr {lr:.2e}"
                    + ("  [skipped]" if result.skipped else "")
                )
            if cfg.eval_every and (step + 1) % cfg.eval_every == 0 and self.eval_fn:
                ev = float(self.eval_fn(self.engine))
                self.history.eval_losses[step + 1] = ev
                print(f"step {step + 1}  eval loss {ev:.4f}")
            if cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
                path = os.path.join(cfg.checkpoint_dir, f"step{step + 1}")
                save_checkpoint(self.engine, path)
                print(f"step {step + 1}  checkpoint -> {path}")
        self.history.wall_seconds = time.perf_counter() - start
        return self.history
