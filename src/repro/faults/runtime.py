"""Fault-plane runtime: the fault plane and its no-op fast path.

The installed plane is the ``faults`` plane of :mod:`repro.obs.planes`:
instrumented hot-path code reads ``planes.faults`` and does nothing when it
is ``None``, so the disabled configuration costs one attribute load plus an
``is None`` test per site — the <2% budget of the ``faults`` row in
:mod:`repro.obs.overhead`.

Enablement routes, all independent:

* ``repro train-demo --faults "io_error@aio.read:times=2"`` — the CLI
  installs a plane for the run and prints its summary;
* ``REPRO_FAULTS=<spec>`` (+ optional ``REPRO_FAULTS_SEED=N``) in the
  environment — the plane table installs a plane at import time, so an
  unmodified tier-1 run becomes a chaos run;
* :func:`use_faults` — scoped installation for tests.

Time never comes from the wall clock: injected delays and retry backoff
advance the process-global :class:`~repro.faults.clock.VirtualClock`, so
chaos schedules are a pure function of the seed and chaos tests run at
full speed.
"""

from __future__ import annotations

import threading
import zlib
from typing import ContextManager, Optional, Union

import numpy as np

from repro.faults.clock import virtual_clock
from repro.faults.errors import (
    InjectedExhaustion,
    InjectedIOError,
    InjectedTornWrite,
)
from repro.faults.spec import FaultRule, parse_faults
from repro.obs import planes
from repro.obs.tracer import trace_instant


def _stable_unit(seed: int, rule_index: int, occurrence: int) -> float:
    """Deterministic hash of (seed, rule, occurrence) onto [0, 1)."""
    h = zlib.crc32(f"{seed}|{rule_index}|{occurrence}".encode())
    return h / 2**32


class FaultPlane:
    """One seeded fault schedule plus its injection bookkeeping.

    Thread-safe: decision state is lock-protected, and probability rules
    draw from a stable hash of the per-rule occurrence index, never from
    shared RNG state — two runs with the same seed inject identically.
    """

    def __init__(
        self, rules: Union[str, tuple[FaultRule, ...]], *, seed: int = 0
    ) -> None:
        if isinstance(rules, str):
            rules = parse_faults(rules)
        self.rules = tuple(rules)
        self.seed = int(seed)
        self.clock = virtual_clock()
        self._lock = threading.Lock()
        self._seen = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)
        self.events = 0
        self.injected: dict[str, int] = {}  # "kind@site" -> count
        # cumulative injected virtual delay per rank — the live watchdog's
        # straggler signal (stragglers advance only the virtual clock, so
        # wall-clock deadlines alone can never see them)
        self.delay_us_by_rank: dict[int, int] = {}

    # --- decision ---------------------------------------------------------------
    def _matches(
        self, rule: FaultRule, site: str, key: Optional[str], rank: Optional[int]
    ) -> bool:
        if rule.site != site:
            return False
        if rule.rank is not None and rank != rule.rank:
            return False
        if rule.key is not None and rule.key not in (key or ""):
            return False
        return True

    def _decide(self, index: int, rule: FaultRule) -> bool:
        """Consume one matching occurrence of ``rule``; True = inject."""
        with self._lock:
            occurrence = self._seen[index]
            self._seen[index] += 1
            cap = rule.max_fires
            if cap is not None and self._fired[index] >= cap:
                return False
            if occurrence < rule.after:
                return False
            if rule.at is not None and occurrence != rule.at:
                return False
            if rule.p < 1.0 and _stable_unit(self.seed, index, occurrence) >= rule.p:
                return False
            self._fired[index] += 1
        return True

    def _record(
        self, rule: FaultRule, key: Optional[str], rank: Optional[int] = None
    ) -> None:
        label = f"{rule.kind}@{rule.site}"
        with self._lock:
            self.injected[label] = self.injected.get(label, 0) + 1
        trace_instant(
            "faults:inject", cat="faults",
            kind=rule.kind, site=rule.site, key=key or "",
        )
        fr = planes.flightrec
        if fr is not None:
            fr.record(
                "fault", label, rank=rank, key=key or "",
                delay_us=rule.delay_us if rule.kind in ("slow", "straggler") else 0,
            )

    # --- event sites ------------------------------------------------------------
    def on_event(
        self,
        site: str,
        *,
        key: Optional[str] = None,
        rank: Optional[int] = None,
        nbytes: Optional[int] = None,
    ) -> None:
        """Hot-path hook: may raise an injected error or advance the clock.

        ``key`` is the offload key or file path the event concerns (for
        ``key=`` filters and error attribution); ``rank`` the simulated
        rank, when the site has one.
        """
        self.events += 1
        for i, rule in enumerate(self.rules):
            if rule.kind == "bit_flip" or not self._matches(rule, site, key, rank):
                continue
            if not self._decide(i, rule):
                continue
            self._record(rule, key, rank)
            where = f"at {site}" + (f" on {key!r}" if key else "")
            if rule.kind == "io_error":
                raise InjectedIOError(
                    f"injected I/O error {where}", site=site, key=key or ""
                )
            if rule.kind == "torn_write":
                raise InjectedTornWrite(
                    f"injected torn write {where}", site=site, key=key or ""
                )
            if rule.kind == "pinned_exhaustion":
                raise InjectedExhaustion(
                    f"injected pinned exhaustion {where}", site=site, key=key or ""
                )
            # slow / straggler: virtual latency only
            self.clock.advance(rule.delay_us)
            if rank is not None:
                with self._lock:
                    self.delay_us_by_rank[rank] = (
                        self.delay_us_by_rank.get(rank, 0) + rule.delay_us
                    )

    def corrupt(
        self, site: str, buffer: np.ndarray, *, key: Optional[str] = None
    ) -> bool:
        """Bit-flip hook for read paths: corrupt ``buffer`` in place.

        Returns True when a flip was injected.  The flipped byte index is
        hash-chosen, so the same schedule corrupts the same byte.  Each call
        counts one event, as :meth:`on_event` does.
        """
        self.events += 1
        flipped = False
        for i, rule in enumerate(self.rules):
            if rule.kind != "bit_flip" or not self._matches(rule, site, key, None):
                continue
            if not self._decide(i, rule):
                continue
            view = memoryview(buffer).cast("B")
            if len(view) == 0:
                continue
            pos = zlib.crc32(f"{self.seed}|pos|{i}|{key}".encode()) % len(view)
            view[pos] ^= 0xFF
            self._record(rule, key)
            flipped = True
        return flipped

    # --- reporting --------------------------------------------------------------
    def summary(self) -> str:
        """One-line post-run report for the CLI."""
        with self._lock:
            injected = dict(self.injected)
        head = f"faults [seed {self.seed}, {len(self.rules)} rule(s)]"
        if not injected:
            return f"{head}: no injections ({self.events} events seen)"
        detail = ", ".join(
            f"{label} x{n}" for label, n in sorted(injected.items())
        )
        return (
            f"{head}: {sum(injected.values())} injection(s) — {detail};"
            f" virtual clock {self.clock.now_us()} us"
        )


def use_faults(
    spec: Union[str, tuple[FaultRule, ...], FaultPlane], *, seed: int = 0
) -> ContextManager[FaultPlane]:
    """Scoped installation of a fault plane (tests, demos).

    Accepts a spec string, parsed rules, or an existing plane.  Restores
    the previous plane on exit.
    """
    plane = spec if isinstance(spec, FaultPlane) else FaultPlane(spec, seed=seed)
    return planes.installed("faults", plane)
