"""Bounded retry-with-backoff over the deterministic virtual clock.

The shared recovery primitive of the resilience tiers: aio block ops,
checksum re-fetches and chunked-swap staging all loop through
:func:`run_with_retries`, which never sleeps — backoff advances the
process-global :class:`~repro.faults.clock.VirtualClock`, and each retry
is a ``faults:retry`` trace instant; the caller's ``on_retry`` counts it
(the aio engine's ``IOStats``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from repro.faults.clock import virtual_clock
from repro.obs.tracer import trace_instant

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Per-site retry budget: ``attempts`` retries after the first try."""

    attempts: int = 2
    backoff_us: int = 200
    backoff_mult: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 0:
            raise ValueError("attempts must be >= 0")
        if self.backoff_us < 0:
            raise ValueError("backoff_us must be >= 0")
        if self.backoff_mult <= 0:
            raise ValueError("backoff_mult must be positive")

    def delay_us(self, retry_index: int) -> int:
        """Virtual backoff before retry ``retry_index`` (0-based)."""
        return int(self.backoff_us * self.backoff_mult**retry_index)


def run_with_retries(
    site: str,
    fn: Callable[[], T],
    *,
    policy: RetryPolicy,
    key: str = "",
    on_retry: Optional[Callable[[], None]] = None,
) -> T:
    """Run ``fn`` with up to ``policy.attempts`` retries on ``OSError``.

    Each retry advances the virtual clock by the policy's exponential
    backoff and calls ``on_retry``; the final failure is
    re-raised unchanged so callers keep the original error type (a deleted
    shard still surfaces as ``OSError``, not a wrapper).
    """
    attempt = 0
    while True:
        try:
            return fn()
        except OSError as e:
            if attempt >= policy.attempts:
                raise
            delay = policy.delay_us(attempt)
            attempt += 1
            virtual_clock().advance(delay)
            trace_instant(
                "faults:retry", cat="faults",
                site=site, attempt=attempt, key=key, error=type(e).__name__,
            )
            if on_retry is not None:
                on_retry()
