"""Happens-before race detector for the threaded aio engine.

The async I/O engine (``repro.nvme.aio``) executes reads and writes on a
thread pool; its contract is the pinned-buffer discipline of real async
I/O: between submit and completion, the caller must not touch the buffer,
and the only synchronization edge is an explicit completion wait
(``IORequest.wait`` / ``synchronize``).

This detector models that contract as a per-buffer clock: every in-flight
request is an outstanding event on the memory it touches (and on the file
range it covers); ``wait`` joins the event into the caller's timeline and
retires it.  A new submit (or a pinned-buffer release) that overlaps an
outstanding event *without* such a join is a race:

* ``aio-double-submit`` — two in-flight reads landing in overlapping
  buffer memory (whichever finishes last wins, nondeterministically);
* ``aio-race`` — an in-flight read racing a write of the same memory, or
  overlapping file ranges with a writer involved (torn bytes);
* ``buffer-release-while-inflight`` — a pinned buffer returned to the pool
  (hence eligible for reuse) while I/O still targets it.

Overlap is established with ``np.shares_memory`` so views, pool slices and
dtype reinterpretations are all caught.  Requests whose completion is
already observable (``done()``) are retired lazily: the bytes have landed,
so later submits are ordered after them by the engine's own tracking.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class _PendingOp:
    """One outstanding I/O event on the per-buffer clock."""

    key: int  # request identity (joins retire by key)
    writes_buffer: bool  # True: a read landing in memory; False: a write reading it
    buffer: np.ndarray
    path: Optional[str]
    file_lo: int
    file_hi: int
    done: Optional[Callable[[], bool]]

    def describe(self) -> str:
        verb = "read into" if self.writes_buffer else "write from"
        where = f" ({self.path}[{self.file_lo}:{self.file_hi}])" if self.path else ""
        return f"{verb} {self.buffer.nbytes}B buffer{where}"


class AioRaceDetector:
    """Tracks in-flight I/O events; owned by a ``CheckContext``."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        self._ops: list[_PendingOp] = []
        self._lock = threading.Lock()

    # --- event intake -----------------------------------------------------------
    def on_submit_read(
        self,
        key: int,
        out: np.ndarray,
        *,
        path: Optional[str] = None,
        file_lo: int = 0,
        file_hi: int = 0,
        done: Optional[Callable[[], bool]] = None,
    ) -> None:
        """An async read was submitted: I/O will *write into* ``out``."""
        self._admit(
            _PendingOp(key, True, out, path, file_lo, file_hi, done)
        )

    def on_submit_write(
        self,
        key: int,
        src: np.ndarray,
        *,
        path: Optional[str] = None,
        file_lo: int = 0,
        file_hi: int = 0,
        done: Optional[Callable[[], bool]] = None,
    ) -> None:
        """An async write was submitted: I/O will *read from* ``src``."""
        self._admit(
            _PendingOp(key, False, src, path, file_lo, file_hi, done)
        )

    def on_wait(self, key: int) -> None:
        """A completion wait: the join edge that retires the request."""
        with self._lock:
            self._ops = [op for op in self._ops if op.key != key]

    def on_buffer_release(self, storage: np.ndarray) -> None:
        """A pinned buffer went back to the pool; must have no pending I/O."""
        with self._lock:
            self._prune()
            conflict = self._find_overlap(storage)
        if conflict is not None:
            self._ctx.report(
                "buffer-release-while-inflight",
                f"pinned buffer released while an in-flight"
                f" {conflict.describe()} still targets it; wait on the"
                f" request before release",
                nbytes=int(storage.nbytes),
            )

    # --- conflict detection -----------------------------------------------------
    def _admit(self, op: _PendingOp) -> None:
        with self._lock:
            self._prune()
            conflict = self._conflict_for(op)
            self._ops.append(op)
        if conflict is None:
            return
        kind, earlier = conflict
        self._ctx.report(
            kind,
            f"new {op.describe()} overlaps in-flight {earlier.describe()}"
            f" with no completion wait between them",
            new=op.describe(),
            pending=earlier.describe(),
        )

    def _prune(self) -> None:
        self._ops = [
            op for op in self._ops if op.done is None or not op.done()
        ]

    def _find_overlap(self, array: np.ndarray) -> Optional[_PendingOp]:
        for op in self._ops:
            if np.shares_memory(array, op.buffer):
                return op
        return None

    def _conflict_for(self, op: _PendingOp) -> Optional[tuple[str, _PendingOp]]:
        for other in self._ops:
            if other.key == op.key:
                continue
            # memory overlap: any pair involving a buffer-writer races
            if np.shares_memory(op.buffer, other.buffer):
                if op.writes_buffer and other.writes_buffer:
                    return "aio-double-submit", other
                if op.writes_buffer or other.writes_buffer:
                    return "aio-race", other
            # file-range overlap on the same path with a file-writer involved
            if (
                op.path is not None
                and op.path == other.path
                and op.file_lo < other.file_hi
                and other.file_lo < op.file_hi
            ):
                op_writes_file = not op.writes_buffer
                other_writes_file = not other.writes_buffer
                if op_writes_file or other_writes_file:
                    return "aio-race", other
        return None
