"""Structured violation taxonomy for the checking subsystem.

Every checker pass reports problems as :class:`CheckViolation` — an
exception carrying a machine-readable ``kind`` plus arbitrary context, so a
violation can be raised at the point of cause (the default), recorded for a
post-run report, asserted on in tests, and exported through the telemetry
layer as a counter and trace event.

The kinds (see ``docs/checking.md`` for the full taxonomy):

ZeroSan (parameter lifecycle)
    ``use-after-release``        compute touched a released parameter
    ``stale-gather-alias``       an alias of a gathered tensor outlived its release
    ``stale-grad-alias``         an alias of a gradient array outlived its reduce
    ``double-gather``            a parameter gathered while already resident
    ``release-without-gather``   release of a never-gathered parameter
    ``gather-leak``              parameter still AVAILABLE at a step boundary
    ``stuck-gather``             parameter left mid-gather at a step boundary
    ``writable-shared-view``     a collective returned a writable view

Aio happens-before races
    ``aio-double-submit``            two in-flight I/Os into one buffer
    ``aio-race``                     read/write overlap without a wait between
    ``buffer-release-while-inflight``  pinned buffer freed under pending I/O

Collective ordering is no runtime kind: ranks issuing different
collective streams are caught by the mp transport's digest
(:class:`~repro.comm.backend.CommDivergence`) and, before launch, by
:mod:`repro.check.static`; a call whose ranks disagree on the payload is
refused by the functional collective (``ValueError``).
"""

from __future__ import annotations

from typing import Any

#: Every kind a checker pass may report, for validation and docs.
VIOLATION_KINDS: tuple[str, ...] = (
    # ZeroSan
    "use-after-release",
    "stale-gather-alias",
    "stale-grad-alias",
    "double-gather",
    "release-without-gather",
    "gather-leak",
    "stuck-gather",
    "writable-shared-view",
    # aio happens-before
    "aio-double-submit",
    "aio-race",
    "buffer-release-while-inflight",
)


class CheckViolation(AssertionError):
    """A structured correctness violation found by a checker pass.

    Subclasses :class:`AssertionError` so sanitized test runs fail loudly,
    while ``kind`` / ``details`` stay machine-readable for corpus tests and
    the post-run report.
    """

    def __init__(self, kind: str, message: str, **details: Any) -> None:
        if kind not in VIOLATION_KINDS:
            raise ValueError(f"unknown violation kind {kind!r}")
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.message = message
        self.details = details

    def __reduce__(self):  # pragma: no cover - pickling across workers
        return (self.__class__, (self.kind, self.message))
