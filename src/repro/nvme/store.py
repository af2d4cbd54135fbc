"""File-backed tensor swapping.

:class:`TensorStore` is the storage backend of NVMe offload: tensors are
written to per-key binary files in a spool directory and read back into
caller buffers (or pool-staged copies).  All I/O goes through the
:class:`~repro.nvme.aio.AsyncIOEngine`, so swaps can overlap compute exactly
as the overlap-centric design requires.  The streamed optimizer step of
Sec. 5.2.2 is built on the bulk and ranged requests here
(:meth:`TensorStore.read_range` / :meth:`TensorStore.write_range` into a
shadow record, then :meth:`TensorStore.promote`); see
:mod:`repro.core.zero_optimizer`.

Every record owns two slot files, ``<key>.bin`` and ``<key>.pipe.bin``, and
reuses them for its life, as DeepNVMe reuses a fixed set of buffers
(Sec. 6.3).  The record's metadata (``_Record.path``) names the live slot;
every write of the key — a whole one, or a shadow opened by
:meth:`TensorStore.create` and streamed with ranged writes — lands in
place in the other, idle one, whose pages the write before it already
allocated (only a ranged write of a live record lands in the live slot).
The write's commit point
flips the metadata under the store lock: :meth:`TensorStore.promote` for a
shadow (``.pipe``) record, the aio worker's commit for a live write.  A
steady-state write therefore creates, renames and unlinks no file, a
promote makes no system call, and there are no temp files.  What a fresh
file per write gave for free, the store keeps by rule:

* a slot is rewritten only after every read submitted on it has finished,
  checksum re-fetches included: the write waits for such a read itself;
* a live write of a key whose idle slot holds an unpromoted shadow record
  raises;
* :meth:`TensorStore.delete` of a key removes both its slots, of a shadow
  key the shadow's slot;
* :meth:`TensorStore.close` deletes every idle slot and renames a live
  ``.pipe.bin`` slot to ``<key>.bin``, leaving one ``<key>.bin`` per record;
* a slot that something else links is never reused.  The store links
  nothing; whatever hard-links a live slot (a checkpoint made of links)
  must first take that file out of the record's rotation, so the record's
  next write starts a fresh file instead of rewriting the linked one.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.faults.errors import ChecksumMismatch, FaultError, FaultUnrecoverable
from repro.faults.runtime import get_faults, virtual_clock
from repro.nvme.aio import AsyncIOEngine, IORequest
from repro.nvme.buffers import PinnedBufferPool
from repro.obs.memscope import attribution_for_key, get_memscope
from repro.obs.perfscope import stall_span
from repro.obs.tracer import trace_instant


#: Key suffix of the shadow (double-buffer) record a transactional writer
#: streams into before :meth:`TensorStore.promote` makes it the primary.
#: The suffix keeps shadow records out of every primary key's namespace and
#: names a record's second slot file.
SHADOW_SUFFIX = ".pipe"


def shadow_key(key: str) -> str:
    """The double-buffer key a transactional update of ``key`` writes to."""
    return key + SHADOW_SUFFIX


def _live_key(key: str) -> str:
    """The primary key whose slots ``key``'s record lives in."""
    return key[: -len(SHADOW_SUFFIX)] if key.endswith(SHADOW_SUFFIX) else key


#: one checksummed extent of a record: (byte offset, byte length, crc32)
Extent = tuple[int, int, int]


@dataclass(frozen=True, slots=True)
class _Record:
    path: str
    shape: tuple[int, ...]
    dtype: np.dtype
    nbytes: int
    # Checksummed extents, sorted and disjoint.  A whole-record write
    # leaves one extent covering the record (or several, laid out for the
    # ranged reader it names); ranged writes replace the extents they
    # overlap.  A read is verified over every byte range these tile
    # exactly, and not at all where they do not.
    crcs: tuple[Extent, ...] = ()

    def extents_tiling(self, lo: int, hi: int) -> list[Extent]:
        """The extents that exactly tile bytes [lo, hi), else ``[]``."""
        out: list[Extent] = []
        pos = lo
        for ext in self.crcs:
            start, nbytes, _ = ext
            if start + nbytes <= lo:
                continue
            if start != pos or start + nbytes > hi:
                return []
            out.append(ext)
            pos = start + nbytes
            if pos == hi:
                return out
        return []

    def without_extents(self, lo: int, hi: int) -> "_Record":
        """This record minus every extent overlapping bytes [lo, hi)."""
        kept = tuple(
            e for e in self.crcs if e[0] + e[1] <= lo or e[0] >= hi
        )
        return self if len(kept) == len(self.crcs) else replace(self, crcs=kept)


def _targets(single: bool, out, count: int) -> list[Optional[np.ndarray]]:
    """The ``out`` argument of a read as one optional target per record."""
    if single:
        return [out]
    return list(out) if out is not None else [None] * count


def _byte_view(array: np.ndarray) -> np.ndarray:
    """Flat uint8 view of a C-contiguous array (extents slice it)."""
    return array.reshape(-1).view(np.uint8)


class _PendingWrite(NamedTuple):
    """One record of an in-flight write request, until its commit point."""

    key: str
    rec: _Record  # published (with the worker's CRCs) at commit
    old: Optional[_Record]  # what stays published if the request fails
    gate: threading.Lock
    extents: list[tuple[int, int]]  # (byte offset, byte length) per aio block


class _Check(NamedTuple):
    """One block of a read request and the CRC it must arrive with."""

    key: str
    path: str
    file_offset: int
    crc: Optional[int]  # None: these bytes carry no checksum
    target: np.ndarray


class _VerifiedRead:
    """Read handle that checks each extent's CRC at wait time.

    Wraps the raw :class:`~repro.nvme.aio.IORequest`, whose blocks are the
    checksummed extents of the records being read.  The aio worker
    checksums every block as it lands, so a clean fetch costs the waiting
    thread one integer compare per extent; only a mismatch (bit-flip in
    the transfer path, torn on-disk state) does work here — bounded
    re-fetches of that extent with virtual backoff, and persistent
    corruption escalates to
    :class:`~repro.faults.errors.FaultUnrecoverable` — never a silently
    wrong tensor.  The outcome is kept: a write that must not reuse the
    slot before this read is through waits here first, and the read's
    owner, waiting later, gets the same bytes or the same error.
    """

    __slots__ = ("_store", "_checks", "_req", "_verified", "_error")

    def __init__(
        self,
        store: "TensorStore",
        checks: list[_Check],
        req: IORequest,
    ) -> None:
        self._store = store
        self._checks = checks  # one per request block
        self._req = req
        self._verified = False
        self._error: Optional[BaseException] = None

    @property
    def kind(self) -> str:
        return "read"

    @property
    def nbytes(self) -> int:
        return self._req.nbytes

    @property
    def token(self) -> int:
        return self._req.token

    def done(self) -> bool:
        return self._req.done()

    def wait(self) -> None:
        if self._error is not None:
            raise self._error
        try:
            self._req.wait()
            if self._verified:
                return
            for check, actual in zip(self._checks, self._req.checksums):
                if check.crc is not None and actual != check.crc:
                    self._refetch(check, actual)
        except Exception as e:
            self._error = e
            self._release()
            raise
        self._verified = True
        self._release()

    def _release(self) -> None:
        """Through with the files it read: a write may reuse them."""
        self._store._untrack(self, {c.path for c in self._checks})

    def _refetch(self, check: _Check, actual: Optional[int]) -> None:
        store = self._store
        key, expected = check.key, check.crc
        attempts = 0
        while actual != expected:
            if attempts >= store.refetch_retries:
                store._count_checksum(failure=True)
                raise FaultUnrecoverable(
                    f"persistent checksum mismatch reading {key!r}",
                    site="store.read",
                    kind="checksum",
                    key=key,
                    attempts=attempts,
                ) from ChecksumMismatch(
                    key, expected=expected, actual=actual, attempts=attempts
                )
            attempts += 1
            store._count_checksum(failure=False)
            trace_instant(
                "faults:checksum_refetch", cat="faults",
                key=key, attempt=attempts,
            )
            # re-fetch time is a stall owned by the fault site, not
            # ordinary I/O: the caller already paid for the first read
            with stall_span("checksum_refetch", owner=key, attempt=attempts):
                virtual_clock().advance(
                    store.engine.retry_policy.delay_us(attempts - 1)
                )
                req = store.engine.submit_read(
                    check.path,
                    check.target,
                    file_offset=check.file_offset,
                    checksum=True,
                )
                req.wait()
                actual = req.checksums[0]


class TensorStore:
    """Named tensor swap space over a spool directory.

    Thread-safe for the engine's usage pattern: one thread submits reads
    and writes while the aio workers commit writes and read metadata.  Keys
    are arbitrary strings; slashes are escaped so parameter paths like
    ``"blocks.3.attn.qkv.weight"`` map to flat files.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        engine: Optional[AsyncIOEngine] = None,
        pool: Optional[PinnedBufferPool] = None,
        check=None,
        refetch_retries: int = 2,
    ) -> None:
        if refetch_retries < 0:
            raise ValueError("refetch_retries must be >= 0")
        self._own_dir = directory is None
        self.directory = directory or tempfile.mkdtemp(prefix="repro-nvme-")
        os.makedirs(self.directory, exist_ok=True)
        self._own_engine = engine is None
        self.engine = engine or AsyncIOEngine(check=check)
        self.pool = pool
        self.refetch_retries = refetch_retries
        self.checksum_refetches = 0
        self.checksum_failures = 0
        self._records: dict[str, _Record] = {}
        # the slot files this store made, with the size it gave each
        self._files: dict[str, int] = {}
        # per slot file, the reads submitted on it that may still touch it
        self._reads: dict[str, list] = {}
        self._lock = threading.Lock()
        self._write_gates: dict[str, threading.Lock] = {}
        self._closed = False

    def _count_checksum(self, *, failure: bool) -> None:
        with self._lock:
            if failure:
                self.checksum_failures += 1
            else:
                self.checksum_refetches += 1

    def _write_gate(self, key: str) -> threading.Lock:
        with self._lock:
            gate = self._write_gates.get(key)
            if gate is None:
                gate = self._write_gates[key] = threading.Lock()
        return gate

    # --- paths and slots ------------------------------------------------------
    def _path_for(self, key: str) -> str:
        safe = key.replace(os.sep, "__")
        return os.path.join(self.directory, safe + ".bin")

    def _idle_slot(self, key: str) -> str:
        """The slot of primary ``key`` its live record does not name
        (caller holds the store lock)."""
        primary = self._path_for(key)
        live = self._records.get(key)
        if live is not None and live.path == primary:
            return self._path_for(shadow_key(key))
        return primary

    def _slot_for(self, key: str) -> tuple[str, Optional[_Record]]:
        """The slot ``key``'s next record lands in, and ``key``'s record
        now (caller holds the store lock)."""
        live = _live_key(key)
        if live == key and shadow_key(key) in self._records:
            raise RuntimeError(
                f"a live write of {key!r} would overwrite its unpromoted"
                " shadow record"
            )
        return self._idle_slot(live), self._records.get(key)

    def _quiesce(self, path: str) -> None:
        """Wait out every read submitted on ``path``; a failed one is its
        owner's to see when it waits."""
        with self._lock:
            pending = self._reads.pop(path, ())
        for read in pending:
            with suppress(OSError, FaultError):
                read.wait()

    def _claim(self, path: str, nbytes: int) -> None:
        """Ready slot ``path`` for a record of ``nbytes``: no read of it in
        flight, and the file exactly that long — no system call for a slot
        this store already sized so."""
        self._quiesce(path)
        with self._lock:
            sized = self._files.get(path) == nbytes
        if not sized:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
            try:
                os.ftruncate(fd, nbytes)
            finally:
                os.close(fd)
            with self._lock:
                self._files[path] = nbytes

    def _track(self, read, paths: set[str]) -> None:
        """Register ``read`` on the files it reads until it is through with
        them: verified or failed (a :class:`_VerifiedRead`), else done."""
        with self._lock:
            for path in paths:
                self._reads.setdefault(path, []).append(read)
        if not isinstance(read, _VerifiedRead):
            read.add_done_callback(lambda: self._untrack(read, paths))

    def _untrack(self, read, paths: set[str]) -> None:
        with self._lock:
            for path in paths:
                pending = self._reads.get(path)
                if pending is not None and read in pending:
                    pending.remove(read)

    # --- metadata ----------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._records)

    def nbytes(self, key: str) -> int:
        with self._lock:
            return self._records[key].nbytes

    def meta(self, key: str) -> tuple[tuple[int, ...], np.dtype, int]:
        """(shape, dtype, nbytes) of a stored tensor."""
        with self._lock:
            rec = self._records[key]
        return rec.shape, rec.dtype, rec.nbytes

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(r.nbytes for r in self._records.values())

    # --- write -------------------------------------------------------------------
    def write(self, key: str, array: np.ndarray) -> None:
        """Synchronously persist ``array`` under ``key`` (overwrites)."""
        self.write_async(key, array).wait()

    def write_async(
        self,
        key: Union[str, Sequence[str]],
        array: Union[np.ndarray, Sequence[np.ndarray]],
        *,
        crc_numel: Optional[int] = None,
    ) -> IORequest:
        """Begin persisting ``array``; caller must not mutate it until done.

        ``key`` and ``array`` may be parallel lists: one bulk request, one
        handle.  A record becomes visible — shape, dtype and CRCs together
        — at its commit point on the aio worker, once every byte of the
        request has landed; until then (and after a failed request) readers
        see the previously committed record.

        Every record lands in place in its key's idle slot, and a live key's
        commit flips the record to that slot, so a writer failure at any
        point leaves the previously committed bytes readable.  A shadow
        (``.pipe``) record lands in the same idle slot and goes live at
        :meth:`promote`.

        ``crc_numel`` checksums the record in consecutive extents of that
        many elements instead of as one: a reader that will stream it back
        with :meth:`read_range` in those spans gets every span verified.
        """
        single = isinstance(key, str)
        keys = [key] if single else list(key)
        arrays = [array] if single else list(array)
        writes: list[_PendingWrite] = []
        blocks = []
        try:
            for k, a in zip(keys, arrays):
                arr = np.ascontiguousarray(a)
                step = arr.nbytes
                if crc_numel is not None:
                    step = min(step, crc_numel * arr.dtype.itemsize)
                extents = [
                    (lo, min(step, arr.nbytes - lo))
                    for lo in range(0, arr.nbytes, step or 1)
                ] or [(0, 0)]
                w = self._open_write(k, arr, extents)
                writes.append(w)
                data = _byte_view(arr)
                blocks.extend(
                    (w.rec.path, data[lo : lo + n], lo) for lo, n in extents
                )
            return self.engine.submit_write(
                blocks,
                checksum=True,
                on_done=lambda req, error: self._close_writes(
                    writes, req.checksums, error
                ),
            )
        except BaseException as e:
            self._close_writes(writes, [None] * len(blocks), e)
            raise

    def _open_write(
        self, key: str, arr: np.ndarray, extents: list[tuple[int, int]]
    ) -> _PendingWrite:
        """Reserve ``key``'s next record: gate, idle slot, residency."""
        # The writes of a key and its shadow are serialized from submit to
        # commit, so each lands in the slot the one before left idle and
        # its ``old`` is the record the one before published.
        gate = self._write_gate(_live_key(key))
        gate.acquire()
        try:
            with self._lock:
                path, old = self._slot_for(key)
            rec = _Record(path, arr.shape, arr.dtype, int(arr.nbytes))
            self._claim(path, rec.nbytes)
            self._account(key, free=old, alloc=rec)
        except BaseException:
            gate.release()
            raise
        return _PendingWrite(key, rec, old, gate, extents)

    def _close_writes(
        self,
        writes: list[_PendingWrite],
        checksums: Sequence[Optional[int]],
        error: Optional[BaseException],
    ) -> None:
        """Commit point of a write request (aio worker thread).

        Publishes every record with the CRCs the worker computed — for a
        live key, the flip that makes its idle slot the live one — or, once
        anything has failed, leaves the remaining records as they were
        committed before: what landed stays in the idle slot, which nothing
        reads.  A commit failure is raised into the handle.
        """
        failed = error
        crcs = iter(checksums)
        try:
            for w in writes:
                extents = tuple(
                    (lo, n, crc)
                    for (lo, n), crc in zip(w.extents, crcs)
                    if crc is not None
                )
                if failed is None:
                    try:
                        fp = get_faults()
                        if fp is not None:
                            # the torn-write site: an injected crash lands
                            # between flush and publish, exactly the window
                            # atomic commits close — the published record
                            # stays the old bytes
                            fp.on_event("store.commit", key=w.rec.path)
                        with self._lock:
                            self._records[w.key] = replace(w.rec, crcs=extents)
                    except BaseException as e:  # noqa: BLE001 - raised below
                        failed = e
                    else:
                        continue
                # never published: metadata and residency stay the old record's
                self._account(w.key, free=w.rec, alloc=w.old)
        finally:
            for w in writes:
                w.gate.release()
        if failed is not error:
            raise failed

    def _account(
        self, key: str, *, free: Optional[_Record], alloc: Optional[_Record]
    ) -> None:
        """Residency delta on the nvme tier (memscope)."""
        scope = get_memscope()
        if scope.enabled:
            category, owner = attribution_for_key(key)
            if free is not None:
                scope.free("nvme", free.nbytes, category=category, owner=owner)
            if alloc is not None:
                scope.alloc("nvme", alloc.nbytes, category=category, owner=owner)

    # --- read ------------------------------------------------------------------
    def read(self, key: str, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Synchronously load ``key``; into ``out`` when provided."""
        out, req = self.read_async(key, out)
        req.wait()
        return out

    def read_async(
        self,
        key: Union[str, Sequence[str]],
        out: Union[None, np.ndarray, Sequence[Optional[np.ndarray]]] = None,
    ):
        """Begin loading ``key``; returns (target, handle).

        ``key`` may be a list (``out`` then a parallel list, or None): one
        bulk request, returning (targets, handle).
        """
        single = isinstance(key, str)
        keys = [key] if single else list(key)
        outs = _targets(single, out, len(keys))
        with self._lock:
            try:
                recs = [self._records[k] for k in keys]
            except KeyError as e:
                raise KeyError(f"tensor {e.args[0]!r} not in store") from e
        reads = []
        for k, rec, target in zip(keys, recs, outs):
            if target is None:
                target = np.empty(rec.shape, dtype=rec.dtype)  # lint: allow-rawalloc
            else:
                if target.nbytes != rec.nbytes:
                    raise ValueError(
                        f"target buffer holds {target.nbytes} bytes, record"
                        f" {k!r} holds {rec.nbytes}"
                    )
                if target.dtype != rec.dtype:
                    target = target.view(rec.dtype)
                if tuple(target.shape) != rec.shape:
                    target = target.reshape(rec.shape)
            reads.append((k, rec, 0, target))
        targets, req = self._submit_reads(reads)
        return (targets[0] if single else targets), req

    def _submit_reads(
        self, reads: list[tuple[str, _Record, int, np.ndarray]]
    ) -> tuple[list[np.ndarray], IORequest]:
        """One bulk request for ``(key, record, byte offset, target)`` reads.

        Where a record's checksummed extents tile the bytes being read,
        each extent goes down as its own block and is verified; bytes the
        extents do not tile (after an in-place ranged rewrite) are read as
        one unverified block.
        """
        blocks = []
        checks = []
        for key, rec, lo, target in reads:
            tiling = rec.extents_tiling(lo, lo + target.nbytes)
            if not tiling:
                blocks.append((rec.path, target, lo))
                checks.append(_Check(key, rec.path, lo, None, target))
                continue
            data = _byte_view(target)
            for start, nbytes, crc in tiling:
                part = data[start - lo : start - lo + nbytes]
                blocks.append((rec.path, part, start))
                checks.append(_Check(key, rec.path, start, crc, part))
        verify = any(check.crc is not None for check in checks)
        req: IORequest = self.engine.submit_read(blocks, checksum=verify)
        if verify:
            req = _VerifiedRead(self, checks, req)
        self._track(req, {rec.path for _, rec, _, _ in reads})
        return [target for _, _, _, target in reads], req

    # --- ranged access (optimizer streaming) -------------------------------------
    def _span(self, key: str, start: int, numel: int) -> tuple[_Record, int]:
        """``key``'s record and the byte offset of element ``start``."""
        with self._lock:
            rec = self._records[key]
        total = int(np.prod(rec.shape, dtype=np.int64))
        if start < 0 or numel < 0 or start + numel > total:
            raise ValueError(
                f"range [{start}, {start + numel}) out of bounds"
                f" for {key!r} with {total} elements"
            )
        return rec, start * rec.dtype.itemsize

    def read_range(
        self,
        key: Union[str, Sequence[tuple[str, int, int]]],
        start_numel: Optional[int] = None,
        numel: Optional[int] = None,
        out: Union[None, np.ndarray, Sequence[Optional[np.ndarray]]] = None,
    ):
        """Begin reading ``numel`` elements of flat ``key`` from ``start_numel``.

        Returns ``(target, handle)``.  ``key`` may instead be a list of
        ``(key, start_numel, numel)`` spans (``out`` then a parallel list,
        or None): one bulk request, returning (targets, handle).  Used by
        the optimizer pipeline to stream state shards through bounded
        staging buffers; a span is verified when it was written as one
        (:meth:`write_range`, or :meth:`write_async` with ``crc_numel``).
        """
        single = isinstance(key, str)
        spans = [(key, start_numel, numel)] if single else list(key)
        outs = _targets(single, out, len(spans))
        reads = []
        for (k, start, n), target in zip(spans, outs):
            rec, lo = self._span(k, start, n)
            if target is None:
                target = np.empty(n, dtype=rec.dtype)  # lint: allow-rawalloc
            elif target.dtype != rec.dtype or target.size != n:
                raise ValueError("range read target has wrong dtype or size")
            reads.append((k, rec, lo, target))
        targets, req = self._submit_reads(reads)
        return (targets[0] if single else targets), req

    def write_range(
        self,
        key: Union[str, Sequence[tuple[str, int, np.ndarray]]],
        start_numel: Optional[int] = None,
        array: Optional[np.ndarray] = None,
    ) -> IORequest:
        """Begin writing ``array`` into flat ``key`` at ``start_numel``.

        ``key`` may instead be a list of ``(key, start_numel, array)``
        spans: one bulk request, one handle.  The write lands in place in
        the record's slot (a shadow record's is the idle one), once every
        read submitted on that slot has finished; the extents it overlaps
        stop being verifiable at once, and each span becomes a checksummed
        extent of its own at the commit point.
        """
        spans = [(key, start_numel, array)] if isinstance(key, str) else key
        blocks = []
        landed = []
        for k, start, data in spans:
            rec, lo = self._span(k, start, np.size(data))
            arr = np.ascontiguousarray(data, dtype=rec.dtype).reshape(-1)
            with self._lock:
                self._records[k] = self._records[k].without_extents(
                    lo, lo + arr.nbytes
                )
            blocks.append((rec.path, arr, lo))
            landed.append((k, lo, arr.nbytes))
        for path in {path for path, _, _ in blocks}:
            self._quiesce(path)

        def publish(req: IORequest, error: Optional[BaseException]) -> None:
            if error is not None:
                return
            with self._lock:
                for (k, lo, nbytes), crc in zip(landed, req.checksums):
                    rec = self._records.get(k)
                    if rec is None or crc is None:
                        continue
                    rec = rec.without_extents(lo, lo + nbytes)
                    self._records[k] = replace(
                        rec, crcs=tuple(sorted(rec.crcs + ((lo, nbytes, crc),)))
                    )

        return self.engine.submit_write(
            blocks, checksum=True, on_done=publish
        )

    def create(
        self, key: str, shape: tuple[int, ...], dtype: np.dtype
    ) -> None:
        """Register an empty record sized for ranged writes (no data I/O).

        The record takes ``key``'s idle slot, sized so ``write_range`` calls
        can land anywhere in it; the CRC starts unknown (ranged writers
        never maintain one).  The double-buffered optimizer pipeline uses
        this to open a shadow record beside the live one before streaming
        into it.
        """
        dt = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        numel = int(np.prod(shape, dtype=np.int64)) if shape else 1
        with self._write_gate(_live_key(key)):
            with self._lock:
                path, old = self._slot_for(key)
            rec = _Record(path, shape, dt, numel * dt.itemsize)
            self._claim(path, rec.nbytes)
            with self._lock:
                self._records[key] = rec
        self._account(key, free=old, alloc=rec)

    def promote(self, src_key: str, dst_key: str) -> None:
        """Publish shadow record ``src_key`` (``shadow_key(dst_key)``) as
        ``dst_key``.

        The commit half of a double-buffered update.  The fully written
        shadow already sits in ``dst_key``'s idle slot, so the commit flips
        the metadata under the store lock — no system call, nothing that
        can fail — and the slot the old record leaves is the idle one.  No
        state can be observed half-updated — before the flip readers get
        the old record, after it the new — which is what makes a
        transactional optimizer step replayable (docs/resilience.md).
        """
        if src_key != shadow_key(dst_key):
            raise ValueError(f"{src_key!r} is not the shadow of {dst_key!r}")
        with self._lock:
            try:
                src = self._records.pop(src_key)
            except KeyError as e:
                raise KeyError(f"tensor {src_key!r} not in store") from e
            old = self._records.get(dst_key)
            self._records[dst_key] = src
        self._account(src_key, free=src, alloc=None)
        self._account(dst_key, free=old, alloc=src)

    # --- delete / lifecycle --------------------------------------------------------
    def delete(self, key: str) -> None:
        """Drop ``key``'s record and its slot files (idempotent).

        A primary key loses both slots and any shadow record in them, a
        shadow key its record and its slot.  The slot goes even when no
        record was ever published in it: a failed write leaves bytes behind
        that only this removes.
        """
        live = _live_key(key)
        with self._write_gate(live):
            with self._lock:
                gone = [(key, self._records.pop(key, None))]
                if key == live:
                    gone.append(
                        (shadow_key(key), self._records.pop(shadow_key(key), None))
                    )
                    slots = [self._path_for(key), self._path_for(shadow_key(key))]
                else:
                    slots = [self._idle_slot(live)]
            for path in slots:
                self._quiesce(path)
                with self._lock:
                    self._files.pop(path, None)
                with suppress(FileNotFoundError):
                    os.remove(path)
        for k, rec in gone:
            self._account(k, free=rec, alloc=None)

    def close(self) -> None:
        """Drain the engine, then leave one ``<key>.bin`` per primary
        record in a caller's spool directory (an owned one is removed)."""
        if self._closed:
            return
        self._closed = True
        scope = get_memscope()
        if scope.enabled:
            with self._lock:
                for key, rec in self._records.items():
                    category, owner = attribution_for_key(key)
                    scope.free("nvme", rec.nbytes, category=category, owner=owner)
        try:
            if self._own_engine:
                self.engine.close()
            else:
                self.engine.synchronize()
        finally:
            if self._own_dir:
                shutil.rmtree(self.directory, ignore_errors=True)
            else:
                self._settle()

    def _settle(self) -> None:
        """Delete every idle slot and every shadow record; rename a live
        ``.pipe.bin`` slot to its ``<key>.bin``."""
        with self._lock:
            for key in [k for k in self._records if k != _live_key(k)]:
                del self._records[key]
            live = {rec.path: key for key, rec in self._records.items()}
            made = list(self._files)
            self._files.clear()
        for path in made:
            if path not in live:
                with suppress(FileNotFoundError):
                    os.remove(path)
        for path, key in live.items():
            primary = self._path_for(key)
            if path != primary:
                with suppress(FileNotFoundError):
                    os.replace(path, primary)
                with self._lock:
                    self._records[key] = replace(self._records[key], path=primary)

    def __enter__(self) -> "TensorStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
