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

from repro.faults.errors import ChecksumMismatch, FaultUnrecoverable
from repro.faults.runtime import get_faults, virtual_clock
from repro.nvme.aio import AsyncIOEngine, IORequest
from repro.nvme.buffers import PinnedBufferPool
from repro.obs.memscope import attribution_for_key, get_memscope
from repro.obs.perfscope import stall_span
from repro.obs.tracer import trace_instant


#: Key suffix of the shadow (double-buffer) record a transactional writer
#: streams into before :meth:`TensorStore.promote` renames it onto the
#: primary.  The suffix keeps shadow files beside their primaries in the
#: spool directory and out of every primary key's namespace.
SHADOW_SUFFIX = ".pipe"


def shadow_key(key: str) -> str:
    """The double-buffer key a transactional update of ``key`` writes to."""
    return key + SHADOW_SUFFIX


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
    target: str  # rec.path, or the temp spool file renamed onto it
    gate: Optional[threading.Lock]
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
    wrong tensor.
    """

    __slots__ = ("_store", "_checks", "_req", "_verified")

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
        self._req.wait()
        if self._verified:
            return
        for check, actual in zip(self._checks, self._req.checksums):
            if check.crc is not None and actual != check.crc:
                self._refetch(check, actual)
        self._verified = True

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

    Thread-safe for the engine's usage pattern (async writes racing with
    metadata reads).  Keys are arbitrary strings; slashes are escaped so
    parameter paths like ``"blocks.3.attn.qkv.weight"`` map to flat files.
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
        self._tmp_seq = 0
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

    # --- paths ----------------------------------------------------------------
    def _path_for(self, key: str) -> str:
        safe = key.replace(os.sep, "__")
        return os.path.join(self.directory, safe + ".bin")

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

        A live key's bytes land in a temp spool file that is renamed onto
        the record's path at the commit point, so a writer failure at any
        point leaves the previously committed bytes readable.  A shadow
        (``.pipe``) record is not live by definition — nothing reads it
        before :meth:`promote` — so it is written in place.

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
                blocks.extend((w.target, data[lo : lo + n], lo) for lo, n in extents)
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
        """Reserve ``key``'s next record: gate, temp name, residency."""
        path = self._path_for(key)
        rec = _Record(path, arr.shape, arr.dtype, int(arr.nbytes))
        in_place = key.endswith(SHADOW_SUFFIX)
        # A live key's submit->rename window is serialized per key, so
        # racing overwrites commit in submission order and each one's
        # ``old`` is the record the previous one published.
        gate = None if in_place else self._write_gate(key)
        if gate is not None:
            gate.acquire()
        try:
            with self._lock:
                old = self._records.get(key)
                self._tmp_seq += 1
                target = path if in_place else f"{path}.tmp{self._tmp_seq}"
            if in_place and old is not None and old.nbytes != rec.nbytes:
                # shrinkage must truncate, or stale tail bytes survive
                with open(path, "wb"):
                    pass
            self._account(key, free=old, alloc=rec)
        except BaseException:
            if gate is not None:
                gate.release()
            raise
        return _PendingWrite(key, rec, old, target, gate, extents)

    def _close_writes(
        self,
        writes: list[_PendingWrite],
        checksums: Sequence[Optional[int]],
        error: Optional[BaseException],
    ) -> None:
        """Commit point of a write request (aio worker thread).

        Publishes every record with the CRCs the worker computed — after
        renaming its temp file into place, for live keys — or, once
        anything has failed, rolls the remaining records back to what was
        committed before.  A commit failure is raised into the handle.
        """
        failed = error
        crcs = iter(checksums)
        try:
            for w in writes:
                renames = w.target != w.rec.path
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
                            if renames:
                                os.replace(w.target, w.rec.path)
                            self._records[w.key] = replace(w.rec, crcs=extents)
                    except BaseException as e:  # noqa: BLE001 - raised below
                        failed = e
                    else:
                        continue
                # never published: metadata and residency stay the old record's
                self._account(w.key, free=w.rec, alloc=w.old)
                if renames:
                    with suppress(OSError):
                        os.unlink(w.target)
        finally:
            for w in writes:
                if w.gate is not None:
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
        spans: one bulk request, one handle.  The write lands in place; the
        extents it overlaps stop being verifiable at once, and each span
        becomes a checksummed extent of its own at the commit point.
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

        Pre-sizes the backing file so ``write_range`` calls can land
        anywhere in it; the CRC starts unknown (ranged writers never
        maintain one).  The double-buffered optimizer pipeline uses this to
        open a shadow record beside the live one before streaming into it.
        """
        dt = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        numel = int(np.prod(shape, dtype=np.int64)) if shape else 1
        path = self._path_for(key)
        rec = _Record(path, shape, dt, numel * dt.itemsize)
        with open(path, "wb") as f:
            f.truncate(rec.nbytes)
        with self._lock:
            old = self._records.get(key)
            self._records[key] = rec
        self._account(key, free=old, alloc=rec)

    def promote(self, src_key: str, dst_key: str) -> None:
        """Atomically publish ``src_key``'s bytes as ``dst_key``.

        The commit half of a double-buffered update: the fully written
        shadow file is renamed over the primary's path (``os.replace``,
        atomic within the spool directory) and the metadata moves with it.
        No data I/O happens here and no state can be observed half-updated
        — before the rename the primary holds the old bytes, after it the
        new — which is what makes a transactional optimizer step
        replayable (docs/resilience.md).
        """
        with self._lock:
            try:
                src = self._records[src_key]
            except KeyError as e:
                raise KeyError(f"tensor {src_key!r} not in store") from e
        dst_path = self._path_for(dst_key)
        os.replace(src.path, dst_path)
        with self._lock:
            self._records.pop(src_key, None)
            old = self._records.get(dst_key)
            self._records[dst_key] = replace(src, path=dst_path)
        self._account(src_key, free=src, alloc=None)
        self._account(dst_key, free=old, alloc=src)

    # --- delete / lifecycle --------------------------------------------------------
    def delete(self, key: str) -> None:
        """Drop ``key``'s record and its file (idempotent).

        The file goes even when no record was ever published for it: a
        write that failed in place (a shadow record's) leaves bytes behind
        that only this removes.
        """
        with self._lock:
            rec = self._records.pop(key, None)
        self._account(key, free=rec, alloc=None)
        with suppress(FileNotFoundError):
            os.remove(self._path_for(key))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        scope = get_memscope()
        if scope.enabled:
            with self._lock:
                for key, rec in self._records.items():
                    category, owner = attribution_for_key(key)
                    scope.free("nvme", rec.nbytes, category=category, owner=owner)
        if self._own_engine:
            self.engine.close()
        else:
            self.engine.synchronize()
        if self._own_dir:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "TensorStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
