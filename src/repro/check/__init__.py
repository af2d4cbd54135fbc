"""repro.check: runtime sanitizers, static lint, and schedule verification.

Three cooperating passes over one violation taxonomy
(:class:`~repro.check.violations.CheckViolation`):

* :mod:`repro.check.zerosan` — parameter-lifecycle state machine and
  zero-copy view sanitizer (use-after-release, double-gather,
  gather-leak, writable-shared-view);
* :mod:`repro.check.races` — happens-before race detector for the
  threaded aio engine and the pinned-buffer pool;
* :mod:`repro.check.lint` — AST lint enforcing repo invariants statically
  (no raw collectives, no wall-clock/global-RNG numerics, no silent
  float64 upcasts, no writeable-flag flips) plus the interprocedural
  SPMD-discipline rules (rank-divergent collectives, read-only view
  escapes, shm use-after-unlink).

And one *static* subsystem, :mod:`repro.check.static`, which proves
collective matching, deadlock freedom, and lock discipline of the
communication schedule before a rank process launches
(``repro check-static`` / ``tools/static_gate.py``).  At runtime the
collective stream is checked by the mp transport itself: every
rendezvous header carries a digest of the signatures the rank has
issued, and a mismatch raises
:class:`~repro.comm.backend.CommDivergence`.

Enable the runtime passes via ``ZeroConfig(check=CheckConfig(...))``,
``--check`` on the CLI, ``REPRO_CHECK=all`` in the environment, or
:func:`use_checker` in tests.  Everything is off by default and the
disabled fast path is one global load plus an ``is None`` test per event
site ("Overhead contract" in ``docs/observability.md``, ``check`` row).
"""

from repro.check.config import PASS_NAMES, CheckConfig
from repro.check.lint import LintFinding, LintReport, lint_source, run_lint
from repro.check.races import AioRaceDetector
from repro.check.runtime import (
    CheckContext,
    context_from_config,
    get_checker,
    install_checker,
    use_checker,
)
from repro.check.violations import VIOLATION_KINDS, CheckViolation
from repro.check.zerosan import ZeroSan

# imported last: repro.check.static.extract reaches back into repro.comm,
# which in turn imports repro.check.runtime (already bound above)
from repro.check.static import (
    STATIC_FINDING_KINDS,
    ScheduleEvent,
    ScheduleIR,
    ScheduleSpec,
    StaticFinding,
    SymbolicBackend,
    extract_schedule,
    run_static_check,
    verify_schedule,
)

__all__ = [
    "AioRaceDetector",
    "CheckConfig",
    "CheckContext",
    "CheckViolation",
    "LintFinding",
    "LintReport",
    "PASS_NAMES",
    "STATIC_FINDING_KINDS",
    "ScheduleEvent",
    "ScheduleIR",
    "ScheduleSpec",
    "StaticFinding",
    "SymbolicBackend",
    "VIOLATION_KINDS",
    "ZeroSan",
    "context_from_config",
    "extract_schedule",
    "get_checker",
    "install_checker",
    "lint_source",
    "run_lint",
    "run_static_check",
    "use_checker",
    "verify_schedule",
]
