"""Loss scaling for fp16 training.

fp16 gradients underflow for small loss values; standard practice (Micikevicius
et al., cited by the paper as its mixed-precision recipe) multiplies the loss
by a scale before backward and divides gradients before the update, skipping
steps whose scaled gradients overflowed.
"""

from __future__ import annotations


class StaticLossScaler:
    """A fixed loss scale (useful for deterministic equivalence tests)."""

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("loss scale must be positive")
        self.scale = scale

    @property
    def loss_scale(self) -> float:
        return self.scale

    def update(self, overflowed: bool) -> None:
        """No-op for static scaling."""


class DynamicLossScaler:
    """Grow-until-overflow, back-off-on-overflow dynamic scaling.

    The scale doubles every ``growth_interval`` consecutive good steps and
    halves (down to ``min_scale``) on any step whose gradients contain
    inf/NaN.  Steps that overflow must be skipped by the caller.
    """

    def __init__(
        self,
        *,
        init_scale: float = 2.0**16,
        growth_factor: float = 2.0,
        backoff_factor: float = 0.5,
        growth_interval: int = 2000,
        min_scale: float = 1.0,
    ) -> None:
        if init_scale <= 0:
            raise ValueError("init_scale must be positive")
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must exceed 1")
        if not 0.0 < backoff_factor < 1.0:
            raise ValueError("backoff_factor must be in (0, 1)")
        self.scale = init_scale
        self.growth_factor = growth_factor
        self.backoff_factor = backoff_factor
        self.growth_interval = growth_interval
        self.min_scale = min_scale
        self._good_steps = 0

    @property
    def loss_scale(self) -> float:
        return self.scale

    def update(self, overflowed: bool) -> None:
        """Advance scaler state after a step attempt."""
        if overflowed:
            self.scale = max(self.scale * self.backoff_factor, self.min_scale)
            self._good_steps = 0
        else:
            self._good_steps += 1
            if self._good_steps >= self.growth_interval:
                self.scale *= self.growth_factor
                self._good_steps = 0
