"""The virtual clock: deterministic time for injected delays and backoff.

Injected slow completions and retry backoff *advance* this clock instead
of sleeping, so recovery schedules are a pure function of the fault seed
and chaos tests run at full speed.  The flight recorder stamps its
canonical events with it.  This module imports nothing of the repo, so
the fault plane and the observability planes can both read it.
"""

from __future__ import annotations

import threading


class VirtualClock:
    """Deterministic microsecond counter standing in for time.sleep.

    Backoff delays and injected slow-completions *advance* the clock
    instead of sleeping, so recovery schedules are reproducible and free.
    """

    def __init__(self) -> None:
        self._us = 0
        self._lock = threading.Lock()

    def advance(self, us: int) -> int:
        """Add ``us`` microseconds; returns the new reading."""
        with self._lock:
            self._us += int(us)
            return self._us

    def now_us(self) -> int:
        with self._lock:
            return self._us


_virtual_clock = VirtualClock()


def virtual_clock() -> VirtualClock:
    """The process-global virtual backoff clock."""
    return _virtual_clock
