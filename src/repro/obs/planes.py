"""The plane table: every process-global instrumentation plane, in one place.

Cross-cutting instrumentation (collectives, the async I/O engine, the
pinned pool, the engine's phase marks) cannot thread its planes through
every call, so hot-path code reads them from this module — the
nvtx/torch.profiler pattern, once for all seven planes.  Switched off, the
tracer and the memory scope are disabled instances and the rest are
``None``:

* ``tracer`` — :class:`~repro.obs.tracer.Tracer`;
* ``memscope`` — :class:`~repro.obs.memscope.MemScope`;
* ``live`` — :class:`~repro.obs.live.LivePlane`;
* ``flightrec`` — :class:`~repro.obs.flightrec.FlightRecorder`;
* ``checker`` — :class:`~repro.check.runtime.CheckContext`;
* ``faults`` — :class:`~repro.faults.runtime.FaultPlane`;
* ``schedule`` — :class:`~repro.check.static.record.ScheduleRecorder`.

A site reads its plane with one attribute load and one test, which is the
whole cost of a plane that is off::

    fp = planes.faults
    if fp is not None:
        fp.on_event("aio.read", key=key)

:func:`installed` is the one way to switch a plane: it scopes a plane to a
with-block and puts the previous one back on exit.  Each plane's
``use_*`` helper (``use_tracer``, ``use_checker``, ...) is that call
after parsing the plane's own input.  Two environment switches install a
plane when this module is imported, so an unmodified run becomes a
sanitized or a chaos run:

* ``REPRO_CHECK=all`` (or a comma list of passes; ``REPRO_CHECK_MODE=record``
  collects instead of raising) installs a checker;
* ``REPRO_FAULTS=<spec>`` (seeded by ``REPRO_FAULTS_SEED``) installs a
  fault plane.

An unset, empty, ``0``, ``none`` or ``off`` switch installs nothing.

Modules whose classes this table holds import it as a module
(``from repro.obs import planes``) and read it only when called, so this
module must be the first of them to load: ``repro/__init__.py`` and
``repro/obs/__init__.py`` import it before anything else.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, TypeVar

from repro.check.config import CheckConfig
from repro.check.runtime import CheckContext, context_from_config
from repro.faults.runtime import FaultPlane
from repro.obs.memscope import MemScope
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.check.static.record import ScheduleRecorder
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.live import LivePlane

#: The plane names, in table order.
NAMES = ("tracer", "memscope", "live", "flightrec", "checker", "faults", "schedule")

P = TypeVar("P")


def _switch(name: str) -> Optional[str]:
    """The spec an environment switch names, or None when it is off."""
    spec = os.environ.get(name, "").strip()
    return None if spec.lower() in ("", "0", "none", "off") else spec


def _checker_from_env() -> Optional[CheckContext]:
    spec = _switch("REPRO_CHECK")
    if spec is None:
        return None
    mode = os.environ.get("REPRO_CHECK_MODE", "raise").strip() or "raise"
    return context_from_config(CheckConfig.from_spec(spec, mode=mode))


def _faults_from_env() -> Optional[FaultPlane]:
    spec = _switch("REPRO_FAULTS")
    if spec is None:
        return None
    return FaultPlane(spec, seed=int(os.environ.get("REPRO_FAULTS_SEED", "0") or "0"))


tracer: Tracer = Tracer(enabled=False)
memscope: MemScope = MemScope(enabled=False)
live: Optional[LivePlane] = None
flightrec: Optional[FlightRecorder] = None
checker: Optional[CheckContext] = _checker_from_env()
faults: Optional[FaultPlane] = _faults_from_env()
schedule: Optional[ScheduleRecorder] = None


@contextmanager
def installed(name: str, plane: P) -> Iterator[P]:
    """Install ``plane`` as the ``name`` plane for a with-block.

    The plane that was installed before comes back on exit, however the
    block ends, so scopes nest.
    """
    if name not in NAMES:
        raise ValueError(f"unknown plane {name!r}; planes are {', '.join(NAMES)}")
    table = globals()
    previous = table[name]
    table[name] = plane
    try:
        yield plane
    finally:
        table[name] = previous
