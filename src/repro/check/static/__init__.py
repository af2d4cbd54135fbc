"""Static SPMD schedule verification (`repro check-static`).

Proves properties of the communication schedule *before* a rank process
ever launches, complementing the runtime checkers beside it in
:mod:`repro.check`:

* :mod:`~repro.check.static.extract` — a symbolic dry-run interpreter
  that executes one training step per rank with shape-only payloads and
  emits a typed per-rank schedule IR;
* :mod:`~repro.check.static.verify` — cross-rank model checking over
  that IR: collective matching, deadlock freedom via the rendezvous
  happens-before graph (including abort/REPLAY/TERMINAL release edges),
  and lock discipline;
* :mod:`~repro.check.static.driver` — the matrix runner behind the
  ``repro check-static`` CLI and ``tools/static_gate.py``.

The interprocedural source passes (`rank-divergent-collective`,
`readonly-view-escape`, `shm-use-after-unlink`) live in
:mod:`repro.check.lint` with the pattern rules they extend.

See ``docs/checking.md`` ("Static verification") for the IR format and
the guarantees/incompleteness ledger.

This package exports only the IR and the recorder, which the production
hooks (the pinned pool, the gradient buckets) consult; ``extract``,
``verify`` and ``driver`` are imported by their paths.
"""

from repro.check.static.ir import (
    EVENT_KINDS,
    RENDEZVOUS_KINDS,
    STATIC_FINDING_KINDS,
    RankSchedule,
    ScheduleEvent,
    ScheduleIR,
    StaticFinding,
)
from repro.check.static.record import ScheduleRecorder, use_static_recorder

__all__ = [
    "EVENT_KINDS",
    "RENDEZVOUS_KINDS",
    "STATIC_FINDING_KINDS",
    "RankSchedule",
    "ScheduleEvent",
    "ScheduleIR",
    "StaticFinding",
    "ScheduleRecorder",
    "use_static_recorder",
]
