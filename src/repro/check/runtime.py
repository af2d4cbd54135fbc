"""Checker runtime: the checker context and its no-op fast path.

The installed context is the ``checker`` plane of :mod:`repro.obs.planes`:
instrumented code reads ``planes.checker`` and does nothing when it is
``None``, so the disabled configuration costs one attribute load plus an
``is None`` test per event site — the <2% budget of the ``check`` row in
:mod:`repro.obs.overhead`.

Enablement routes, all independent:

* ``ZeroConfig(check=CheckConfig(zerosan=True, ...))`` — the engine builds
  a private :class:`CheckContext` and threads it through its subsystems;
* ``REPRO_CHECK=all`` (or a comma list of passes) in the environment —
  the plane table installs a context at import time, so an unmodified
  tier-1 run becomes a sanitized run (``REPRO_CHECK_MODE=record`` to
  collect instead of raise);
* :func:`use_checker` — scoped installation for tests and the bug corpus.

Violations flow through :meth:`CheckContext.report`: each one emits a
``check:violation`` trace instant through ``repro.obs`` before raising
(mode ``"raise"``) or being recorded on the context's ``violations`` (mode
``"record"``).
"""

from __future__ import annotations

import threading
from typing import ContextManager, Iterable, Optional, Union

from repro.check.config import CheckConfig
from repro.check.races import AioRaceDetector
from repro.check.violations import CheckViolation
from repro.check.zerosan import ZeroSan
from repro.obs import planes
from repro.obs.tracer import trace_instant


class CheckContext:
    """One configured set of runtime checker passes.

    Disabled passes are ``None`` attributes, so instrumentation gates are
    ``ctx.zerosan is not None``-shaped and a context never pays for passes
    it did not enable.
    """

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        self.zerosan: Optional[ZeroSan] = ZeroSan(self) if config.zerosan else None
        self.races: Optional[AioRaceDetector] = (
            AioRaceDetector(self) if config.races else None
        )
        self.violations: list[CheckViolation] = []
        self._lock = threading.Lock()
        self._force_record = False

    # --- violation funnel -------------------------------------------------------
    def report(self, kind: str, message: str, **details) -> CheckViolation:
        violation = CheckViolation(kind, message, **details)
        trace_instant("check:violation", cat="check", kind=kind)
        if self.config.mode == "raise" and not self._force_record:
            raise violation
        with self._lock:
            self.violations.append(violation)
        return violation

    def violation_counts(self) -> dict[str, int]:
        """Recorded violations by kind (mode ``"record"``)."""
        counts: dict[str, int] = {}
        with self._lock:
            for v in self.violations:
                counts[v.kind] = counts.get(v.kind, 0) + 1
        return counts

    def summary(self) -> str:
        """One-line post-run report for the CLI."""
        passes = ", ".join(self.config.enabled_passes) or "none"
        counts = self.violation_counts()
        if not counts:
            return f"checks [{passes}]: no violations"
        detail = ", ".join(f"{k} x{n}" for k, n in sorted(counts.items()))
        return f"checks [{passes}]: {sum(counts.values())} violation(s) — {detail}"

    # --- composite events --------------------------------------------------------
    def on_step_boundary(self, param_ids: Optional[Iterable[int]] = None) -> None:
        """Engine step boundary: lifecycle leak sweep."""
        if self.zerosan is not None:
            self.zerosan.on_step_boundary(param_ids)

    def on_step_abort(self, param_ids: Optional[Iterable[int]] = None) -> None:
        """Exception unwind: sweep with raising suppressed.

        The propagating exception is the root cause; a ``stuck-gather``
        raised from the unwind would mask it.  Violations are recorded
        (even in mode ``"raise"``) and the shadow entries cleared, so the
        next step starts from a consistent slate.
        """
        if self.zerosan is not None:
            self._force_record = True
            try:
                self.zerosan.on_step_boundary(param_ids)
            finally:
                self._force_record = False


def context_from_config(config: CheckConfig) -> Optional[CheckContext]:
    """A fresh context for a config, or ``None`` when no runtime pass is on."""
    return CheckContext(config) if config.any_runtime else None


def use_checker(
    config: Union[CheckConfig, CheckContext, str, None] = None,
) -> ContextManager[CheckContext]:
    """Scoped installation of a checker context (tests, corpus, demos).

    Accepts a :class:`CheckConfig`, an existing context, a spec string
    (``"all"``, ``"zerosan,races"``), or ``None`` for all passes in raise
    mode.  Restores the previous context on exit.
    """
    if config is None:
        config = CheckConfig.from_spec("all")
    if isinstance(config, str):
        config = CheckConfig.from_spec(config)
    ctx = config if isinstance(config, CheckContext) else CheckContext(config)
    return planes.installed("checker", ctx)
