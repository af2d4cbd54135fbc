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
  escapes, shm use-after-unlink).  A tool, not a runtime pass: import it
  by its path.

And one *static* subsystem, :mod:`repro.check.static`, which proves
collective matching, deadlock freedom, and lock discipline of the
communication schedule before a rank process launches
(``repro check-static`` / ``tools/static_gate.py``).  At runtime the
collective stream is checked by the mp transport itself: every
rendezvous header carries a digest of the signatures the rank has
issued, and a mismatch raises
:class:`~repro.comm.backend.CommDivergence`.  Like the lint, the static
subsystem is imported by its path, so a production import of this package
loads neither.

Enable the runtime passes via ``ZeroConfig(check=CheckConfig(...))``,
``--check`` on the CLI, ``REPRO_CHECK=all`` in the environment, or
:func:`use_checker` in tests.  Everything is off by default and the
disabled fast path is one attribute load of the plane table
(:mod:`repro.obs.planes`) plus an ``is None`` test per event site
("Overhead contract" in ``docs/observability.md``, ``check`` row).
"""

from repro.check.config import PASS_NAMES, CheckConfig
from repro.check.races import AioRaceDetector
from repro.check.runtime import CheckContext, context_from_config, use_checker
from repro.check.violations import VIOLATION_KINDS, CheckViolation
from repro.check.zerosan import ZeroSan

__all__ = [
    "AioRaceDetector",
    "CheckConfig",
    "CheckContext",
    "CheckViolation",
    "PASS_NAMES",
    "VIOLATION_KINDS",
    "ZeroSan",
    "context_from_config",
    "use_checker",
]
