"""Fault taxonomy: injected failures and the terminal structured error.

Every injected fault is a :class:`FaultError` subclass that *also* inherits
the exception type the equivalent real failure would raise (``OSError`` for
device errors, ``MemoryError`` for pinned exhaustion), so the production
retry/fallback paths treat injected and organic faults identically — the
whole point of the chaos harness.

:class:`FaultUnrecoverable` is the one way resilience gives up: a structured,
attributed error naming the site, fault kind, key and attempt count, raised
only after every recovery tier (aio retry, checksum re-fetch, pinned
fallback, step replay) has been exhausted or is semantically unsafe
(mid-optimizer mutation).  "Never a hang, never silent corruption" — a
failing run ends in exactly one of these.
"""

from __future__ import annotations


class FaultError(Exception):
    """Base class of everything raised by the fault-injection plane."""


class InjectedIOError(FaultError, OSError):
    """Injected device/file I/O failure (``io_error`` kind).

    An ``OSError`` subclass so the bounded-retry machinery in
    :mod:`repro.nvme.aio` handles it exactly like a real ``pread``/``pwrite``
    failure.
    """

    def __init__(self, message: str, *, site: str = "", key: str = "") -> None:
        super().__init__(message)
        self.site = site
        self.key = key


class InjectedTornWrite(InjectedIOError):
    """Injected crash between spool flush and commit (``torn_write`` kind)."""


class InjectedExhaustion(FaultError, MemoryError):
    """Injected transient pinned-pool exhaustion (``pinned_exhaustion``).

    A ``MemoryError`` so the unpinned-fallback path (prefetch and optimizer
    staging) catches it exactly like a real
    :class:`~repro.nvme.buffers.PinnedBudgetExceeded`.
    """

    def __init__(self, message: str, *, site: str = "", key: str = "") -> None:
        super().__init__(message)
        self.site = site
        self.key = key


class ChecksumMismatch(FaultError):
    """A stored record's bytes no longer match its recorded CRC.

    Internal signal of the verify-on-fetch path; bounded re-fetches run
    first, and only persistent corruption escalates to
    :class:`FaultUnrecoverable`.  Deliberately *not* an ``OSError`` so the
    I/O retry tiers never mistake corruption for a transient device error.
    """

    def __init__(
        self, key: str, *, expected: int, actual: int, attempts: int = 0
    ) -> None:
        super().__init__(
            f"checksum mismatch for {key!r}: stored crc32 {expected:#010x},"
            f" read back {actual:#010x} ({attempts} re-fetch(es))"
        )
        self.key = key
        self.expected = expected
        self.actual = actual
        self.attempts = attempts


class FaultUnrecoverable(FaultError):
    """Terminal, attributed failure after recovery tiers are exhausted.

    Attributes
    ----------
    site:
        The named injection/recovery site that gave up
        (``"store.read"``, ``"engine.optimizer"``, ...).
    kind:
        Fault classification (``"checksum"``, ``"io_error"``, ...).
    key:
        The offload key or path involved, when one is attributable.
    attempts:
        How many recovery attempts ran before giving up.
    """

    def __init__(
        self,
        message: str,
        *,
        site: str,
        kind: str,
        key: str = "",
        attempts: int = 0,
    ) -> None:
        detail = f"[site={site} kind={kind}"
        if key:
            detail += f" key={key}"
        detail += f" attempts={attempts}]"
        super().__init__(f"{message} {detail}")
        self.site = site
        self.kind = kind
        self.key = key
        self.attempts = attempts
