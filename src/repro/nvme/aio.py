"""Asynchronous file I/O engine.

Mirrors DeepNVMe's interface (Sec. 6.3): *bulk* read/write requests — one
submit, one handle, many ``(path, buffer, offset)`` records — complete
asynchronously and can be awaited individually (``IORequest.wait``) or
flushed together (``AsyncIOEngine.synchronize``).  A request's records are
cut into sub-blocks of at most ``block_bytes`` and the blocks are packed
into worker tasks of about a MiB each: many small records ride one pool
hand-off, large records fan out across the pool — the Python
analogue of DeepNVMe's "aggressive parallelization of I/O requests", which
is what lets a single logical request saturate a multi-queue NVMe device.

Reads land directly in caller-provided buffers (``os.preadv``, no data
copying), which is how the pinned-buffer layer achieves its zero-copy
staging.  With ``checksum=True`` the worker also computes each record's
crc32 — as the tail of a read, as the head of a write — so integrity
checking never runs on the submitting thread.
"""

from __future__ import annotations

import itertools
import os
import threading
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.check.runtime import CheckContext, get_checker
from repro.faults.retry import RetryPolicy, run_with_retries
from repro.faults.runtime import get_faults
from repro.obs.perfscope import stall_span
from repro.obs.tracer import trace_counter, trace_span
from repro.utils.units import MIB

#: process-wide request tokens: the happens-before edge label that ties an
#: ``nvme:submit_*`` span to its worker-lane blocks and to whichever stall
#: span later waited on the request (perfscope's critical-path extraction)
_REQ_TOKENS = itertools.count(1)

#: one record of a bulk request: ``(path, buffer, file_offset)``
Block = tuple[str, np.ndarray, int]

#: A bulk request's blocks are packed into worker tasks of about this many
#: bytes: enough I/O per pool hand-off (tens of µs) to make the hand-off
#: noise, small enough that a request of a few large records still fans
#: out across the workers.
_TASK_BYTES = MIB

#: virtual backoff before the first retry of a failed block (doubles per
#: retry); advances the deterministic virtual clock, never the wall clock
RETRY_BACKOFF_US = 200


@dataclass
class IOStats:
    """Engine-lifetime counters."""

    read_requests: int = 0
    write_requests: int = 0
    read_retries: int = 0
    write_retries: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add_read(self) -> None:
        with self._lock:
            self.read_requests += 1

    def add_write(self) -> None:
        with self._lock:
            self.write_requests += 1

    def add_retry(self, kind: str) -> None:
        with self._lock:
            if kind == "read":
                self.read_retries += 1
            else:
                self.write_retries += 1


class IORequest:
    """Handle for an in-flight bulk read or write.

    ``checksums[i]`` is the crc32 of record ``i``'s bytes once the request
    has completed, when the submitter asked for checksums (else ``None``).
    """

    def __init__(
        self, kind: str, records: list[memoryview], token: int = -1
    ) -> None:
        self.kind = kind
        self.nbytes = sum(len(r) for r in records)
        self.token = token  # perfscope happens-before edge label
        self.checksums: list[Optional[int]] = [None] * len(records)
        self._records = records  # whole-record byte views, for the crc
        self._future: Future = Future()
        self._observed = False
        self._races = None  # AioRaceDetector watching this request, if any
        self._engine: Optional["AsyncIOEngine"] = None
        # worker-side progress, guarded by _lock
        self._lock = threading.Lock()
        self._tasks_left = 0
        self._blocks_left: list[int] = []
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._future.done()

    def add_done_callback(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` once the request completes (at once if it has)."""
        self._future.add_done_callback(lambda _: fn())

    def wait(self) -> None:
        """Block until the request completes; re-raises worker exceptions.

        A failure is re-raised on every explicit ``wait`` but reported only
        once through ``AsyncIOEngine.synchronize`` — an error already seen
        by the caller does not poison engine shutdown.
        """
        self._observed = True
        if self._races is not None:
            # the join edge: this request is now ordered before the caller
            self._races.on_wait(id(self))
        try:
            self._future.result()
        except BaseException:
            # seen by the caller: nothing left for synchronize() to report
            if self._engine is not None:
                self._engine._forget(self)
            raise


#: worker-side completion hook of a write: called once, with the request
#: and the first block error (``None`` when every block landed), before the
#: handle resolves; what it raises fails the request
DoneHook = Callable[[IORequest, Optional[BaseException]], None]


class AsyncIOEngine:
    """Thread-pool async read/write over ordinary files.

    Parameters
    ----------
    num_threads:
        Worker threads — the analogue of NVMe queue pairs.
    block_bytes:
        Records larger than this are split into parallel sub-operations.
    retries:
        Bounded per-block retry budget on ``OSError`` (transient device
        faults); backoff advances the deterministic virtual clock, never
        the wall clock, by ``RETRY_BACKOFF_US`` doubling per retry.
    """

    def __init__(
        self,
        *,
        num_threads: int = 4,
        block_bytes: int = 8 * MIB,
        check: CheckContext | None = None,
        retries: int = 2,
    ) -> None:
        if num_threads <= 0:
            raise ValueError("num_threads must be positive")
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        self.num_threads = num_threads
        self.block_bytes = block_bytes
        self.retry_policy = RetryPolicy(
            attempts=retries, backoff_us=RETRY_BACKOFF_US
        )
        self._check = check if check is not None else get_checker()
        self._pool = ThreadPoolExecutor(
            max_workers=num_threads, thread_name_prefix="repro-aio"
        )
        # submission-ordered; a request leaves when it completes cleanly,
        # a failed one stays until synchronize() has reported it
        self._inflight: dict[int, IORequest] = {}
        self._lock = threading.Lock()
        #: requests submitted and not yet completed (guarded by ``_lock``)
        self.queue_depth = 0
        self.stats = IOStats()
        self._closed = False

    # --- internal block ops ------------------------------------------------------
    @staticmethod
    def _pwrite(path: str, data: memoryview, offset: int) -> None:
        # pwrite at an absolute offset extends the file as needed, so
        # parallel writes of disjoint ranges need no pre-sizing
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            written = 0
            while written < len(data):
                written += os.pwrite(fd, data[written:], offset + written)
        finally:
            os.close(fd)

    @staticmethod
    def _pread(path: str, out: memoryview, offset: int) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            got = 0
            while got < len(out):
                n = os.preadv(fd, [out[got:]], offset + got)
                if not n:
                    raise IOError(
                        f"short read from {path} at offset {offset + got}:"
                        f" wanted {len(out) - got} more bytes"
                    )
                got += n
        finally:
            os.close(fd)

    def _split(self, nbytes: int) -> list[tuple[int, int]]:
        """(offset, length) sub-blocks covering [0, nbytes)."""
        blocks = []
        off = 0
        while off < nbytes:
            length = min(self.block_bytes, nbytes - off)
            blocks.append((off, length))
            off += length
        return blocks or [(0, 0)]

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("AsyncIOEngine is closed")

    # --- request execution -------------------------------------------------------
    def _start(
        self,
        req: IORequest,
        blocks: Sequence[Block],
        checksum: bool,
        on_done: Optional[DoneHook],
    ) -> IORequest:
        """Cut ``req``'s records into tasks and hand them to the pool."""
        # a task is a list of (record index, offset in record, path, bytes,
        # file offset)
        tasks: list[list[tuple[int, int, str, memoryview, int]]] = []
        cur: list[tuple[int, int, str, memoryview, int]] = []
        cur_bytes = 0
        task_bytes = min(self.block_bytes, _TASK_BYTES)
        for i, ((path, _, file_offset), view) in enumerate(
            zip(blocks, req._records)
        ):
            parts = self._split(len(view))
            req._blocks_left.append(len(parts))
            for off, n in parts:
                if cur and cur_bytes + n > task_bytes:
                    tasks.append(cur)
                    cur, cur_bytes = [], 0
                cur.append((i, off, path, view[off : off + n], file_offset + off))
                cur_bytes += n
        tasks.append(cur)
        req._tasks_left = len(tasks)
        req._engine = self
        # Queue depth rises on submit and falls when the request's last
        # task finishes; a Chrome counter track (``aio.inflight``) samples
        # both edges so Perfetto shows the realized queue next to the span
        # lanes.
        with self._lock:
            self._inflight[id(req)] = req
            self.queue_depth += 1
            depth = self.queue_depth
        trace_counter("aio.inflight", cat="nvme", depth=depth)
        for task in tasks:
            self._pool.submit(self._run_task, req, task, checksum, on_done)
        ck = self._check
        if ck is not None and ck.races is not None:
            # every record goes to the race detector under one request key
            races = ck.races
            watch = (
                races.on_submit_read
                if req.kind == "read"
                else races.on_submit_write
            )
            for (path, buffer, file_offset), view in zip(blocks, req._records):
                watch(
                    id(req), buffer, path=path, file_lo=file_offset,
                    file_hi=file_offset + len(view), done=req.done,
                )
            req._races = races
        return req

    def _forget(self, req: IORequest) -> None:
        with self._lock:
            self._inflight.pop(id(req), None)

    def _run_task(
        self,
        req: IORequest,
        task: list[tuple[int, int, str, memoryview, int]],
        checksum: bool,
        on_done: Optional[DoneHook],
    ) -> None:
        """One pool hand-off: the task's blocks in order, on this worker.

        The record checksum rides the transfer: a write checksums the
        source buffer ahead of the record's first block, a read checksums
        the record once its last block has landed (after the fault plane's
        bit-flip hook, so a transfer-path flip is in the checksummed bytes).
        """
        read = req.kind == "read"
        run_block = self._read_block if read else self._write_block
        try:
            for i, off, path, view, file_offset in task:
                if req._error is not None:
                    break  # a sibling block already failed the request
                if checksum and not read and off == 0:
                    req.checksums[i] = zlib.crc32(req._records[i])
                run_block(path, view, file_offset, req.token)
                if checksum and read:
                    with req._lock:
                        req._blocks_left[i] -= 1
                        landed = req._blocks_left[i] == 0
                    if landed:
                        req.checksums[i] = zlib.crc32(req._records[i])
        except BaseException as e:  # noqa: BLE001 - resolved into the handle
            with req._lock:
                if req._error is None:
                    req._error = e
        with req._lock:
            req._tasks_left -= 1
            last = req._tasks_left == 0
        if last:
            self._complete(req, on_done)

    def _complete(self, req: IORequest, on_done: Optional[DoneHook]) -> None:
        """Last task out: run the owner's hook, meter, resolve the handle."""
        error = req._error
        if on_done is not None:
            try:
                on_done(req, error)
            except BaseException as e:  # noqa: BLE001 - resolved into the handle
                error = error or e
        with self._lock:
            self.queue_depth -= 1
            depth = self.queue_depth
        trace_counter("aio.inflight", cat="nvme", depth=depth)
        if error is None:
            req._future.set_result(None)
            self._forget(req)
        else:
            # stays in flight until wait() or synchronize() has reported it
            req._future.set_exception(error)

    def _write_block(
        self, path: str, data: memoryview, offset: int, token: int = -1
    ) -> None:
        """One sub-block write on a worker thread, span on its own lane.

        Retries transient ``OSError`` failures up to the engine's policy;
        pwrite at an absolute offset is idempotent, so a retry after a
        partial write simply rewrites the block.  Re-attempts run inside a
        ``stall:retry`` span so the recovery time is attributed to the
        fault site instead of blending into ordinary I/O.
        """
        with trace_span("nvme:pwrite", cat="nvme", bytes=len(data), req=token):
            tries = [0]

            def attempt() -> None:
                ctx = (
                    stall_span("retry", owner=path, kind="write", req=token)
                    if tries[0]
                    else nullcontext()
                )
                tries[0] += 1
                with ctx:
                    fp = get_faults()
                    if fp is not None:
                        fp.on_event("aio.write", key=path, nbytes=len(data))
                    self._pwrite(path, data, offset)

            run_with_retries(
                "aio.write", attempt, policy=self.retry_policy, key=path,
                on_retry=lambda: self.stats.add_retry("write"),
            )

    def _read_block(
        self, path: str, out: memoryview, offset: int, token: int = -1
    ) -> None:
        """One sub-block read on a worker thread, span on its own lane.

        Retries like :meth:`_write_block` (re-attempts inside a
        ``stall:retry`` span).  The bit-flip corruption hook runs *after*
        a successful read — modeling a transfer-path flip the checksum
        layer (TensorStore verify-on-fetch) must catch, since no amount of
        device-level retrying can observe it here.
        """
        with trace_span("nvme:pread", cat="nvme", bytes=len(out), req=token):
            tries = [0]

            def attempt() -> None:
                ctx = (
                    stall_span("retry", owner=path, kind="read", req=token)
                    if tries[0]
                    else nullcontext()
                )
                tries[0] += 1
                with ctx:
                    fp = get_faults()
                    if fp is not None:
                        fp.on_event("aio.read", key=path, nbytes=len(out))
                    self._pread(path, out, offset)

            run_with_retries(
                "aio.read", attempt, policy=self.retry_policy, key=path,
                on_retry=lambda: self.stats.add_retry("read"),
            )
            fp = get_faults()
            if fp is not None:
                fp.corrupt("aio.read", out, key=path)

    # --- public API ----------------------------------------------------------
    def submit_write(
        self,
        path: Union[str, Sequence[Block]],
        array: Optional[np.ndarray] = None,
        *,
        file_offset: int = 0,
        checksum: bool = False,
        on_done: Optional[DoneHook] = None,
    ) -> IORequest:
        """Begin writing ``array``'s bytes to ``path`` at ``file_offset``.

        ``path`` may instead be a list of ``(path, array, file_offset)``
        records: one bulk request, one handle.  The caller must not mutate
        the arrays until the request completes — the same contract as real
        asynchronous I/O on pinned buffers.

        ``on_done(request, error)`` runs on the worker that finishes the
        request, before the handle resolves: the owner's commit point
        (TensorStore publishes record metadata there, or keeps the old
        record when ``error`` is set).
        """
        self._require_open()
        blocks = [(path, array, file_offset)] if isinstance(path, str) else path
        blocks = [(p, np.ascontiguousarray(a), o) for p, a, o in blocks]
        views = [memoryview(a).cast("B") for _, a, _ in blocks]
        req = IORequest("write", views, next(_REQ_TOKENS))
        with trace_span(
            "nvme:submit_write", cat="nvme", bytes=req.nbytes, req=req.token
        ):
            self.stats.add_write()
            return self._start(req, blocks, checksum, on_done)

    def submit_read(
        self,
        path: Union[str, Sequence[Block]],
        out: Optional[np.ndarray] = None,
        *,
        file_offset: int = 0,
        checksum: bool = False,
    ) -> IORequest:
        """Begin filling ``out`` (contiguous) from ``path`` at ``file_offset``.

        ``path`` may instead be a list of ``(path, out, file_offset)``
        records: one bulk request, one handle.
        """
        self._require_open()
        blocks = [(path, out, file_offset)] if isinstance(path, str) else path
        for _, target, _ in blocks:
            if not target.flags["C_CONTIGUOUS"]:
                raise ValueError(
                    "read target must be C-contiguous (pinned buffer)"
                )
        views = [memoryview(target).cast("B") for _, target, _ in blocks]
        req = IORequest("read", views, next(_REQ_TOKENS))
        with trace_span(
            "nvme:submit_read", cat="nvme", bytes=req.nbytes, req=req.token
        ):
            self.stats.add_read()
            return self._start(req, blocks, checksum, None)

    def write(self, path: str, array: np.ndarray, *, file_offset: int = 0) -> None:
        """Synchronous write (submit + wait)."""
        self.submit_write(path, array, file_offset=file_offset).wait()

    def read(self, path: str, out: np.ndarray, *, file_offset: int = 0) -> None:
        """Synchronous read (submit + wait)."""
        self.submit_read(path, out, file_offset=file_offset).wait()

    def synchronize(self) -> None:
        """Block until every in-flight request has completed.

        Re-raises the first failure among requests the caller has not
        already observed via ``IORequest.wait``.
        """
        with self._lock:
            pending = list(self._inflight.values())
            self._inflight.clear()
        first_error: Exception | None = None
        for req in pending:
            already_seen = req._observed
            try:
                req.wait()
            except Exception as e:  # noqa: BLE001 - re-raised below
                if not already_seen and first_error is None:
                    first_error = e
        if first_error is not None:
            raise first_error

    def close(self) -> None:
        if not self._closed:
            self.synchronize()
            self._pool.shutdown(wait=True)
            self._closed = True

    def __enter__(self) -> "AsyncIOEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
