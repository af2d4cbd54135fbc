"""The infinity offload engine (Sec. 6.3).

Routes named tensors — one record per parameter group, rank and state kind
(parameter, gradient and optimizer-state shards, keyed
``g{gid}.r{rank}.{kind}``: :mod:`repro.core.partition`) — to their
configured tier:

* ``NONE``  — kept in (simulated) GPU memory;
* ``CPU``   — kept in host arrays, crossing the owning GPU's host link;
* ``NVME``  — spooled to the file-backed :class:`~repro.nvme.store.TensorStore`
  through the async engine, staged via the pinned buffer pool.  A record
  keeps two slot files for its life; each write lands in the idle one and
  its commit — a live write's completion, :meth:`promote_staged` for the
  optimizer's shadow writes — flips the record's metadata to it, with no
  temp file and no rename.

Per-rank host-link byte counters make the bandwidth-centric argument
measurable: every parameter group is sharded over all ranks, so each
rank's link carries 1/dp of its bytes, where a single owner's link would
carry all of them (Sec. 6.1).

Every NVMe transfer is staged in the pinned buffer pool, and every staging
acquisition is one :class:`Staging` handle: the buffer (or an unpinned
fallback when the pool is out), the views cut from it and the requests
reading into or writing from it.  The buffer goes back to the pool only
once that I/O has drained — :meth:`Staging.release` after a wait, or
:meth:`Staging.abandon`, which drains tolerantly when the bytes will never
be used: a failure there is counted, not raised.

A parameter prefetch (:meth:`prefetch`, the nc-transfer leg of the
overlap-centric design, Sec. 6.2) reads a module's worth of records into
one staging with one bulk request, and a gradient flush (Sec. 5.1.1)
reduces a bucket's worth of shards into one staging: each record holds its
staging in one of three states.  Their moves, checked against ``_MOVES``:

* ``∅ → reading``: :meth:`prefetch` issues the read;
* ``reading → landed``: the key's first read, into pinned staging.  Its
  later reads — the tied head's gather, a checkpoint recompute, backward,
  the next simulated rank's turn — copy the verified bytes out of the
  staging, so each group's parameter record is read from NVMe once per
  step, as a node that reads only its own shard would (Sec. 6.1);
* ``reading → ∅``: a first read into unpinned staging or one that failed,
  or a drop;
* ``landed → taken``: :meth:`fetch_async` asks for the key — the optimizer
  reading an fp32 group's parameter record that is its own master.  The staging
  view itself is handed out under a hold (``Staging.lent``), as a dirty
  record's is, and the caller updates it in place and writes it to the
  key's shadow record: the record is read from NVMe once per step, by the
  gathers, where the optimizer used to read it a second time.  From here
  the bytes run ahead of the primary, so no read copies them out; a later
  span of the same record (a split shard's next sub-group) is lent the
  same view;
* ``landed → ∅``, ``taken → ∅``: a drop or a release;
* ``∅ → dirty``: :meth:`stash_staged` of a flush whose staging is pinned.
  The pinned pool is a write-back cache in front of NVMe, the gradient's
  home: the optimizer, the overflow check and the clip norm read the
  shard where it sits, and no write request is issued.  A copy of the key
  the store still holds — an earlier write-back — is superseded and
  deleted, so no later fetch can read an older step's gradient;
* ``dirty → ∅``: the step boundary (:meth:`end_step`: the optimizer
  committed, the step was skipped, or it aborted and will replay from
  scratch, recomputing every gradient), a drop, or a write-back — when a
  pinned acquisition does not fit even after the landed records went back,
  dirty records are written to their primaries, one bulk CRC'd write per
  flush, oldest first, until it does; only then does it fall back to
  unpinned memory.

A write or discard of the key (:meth:`stash`, :meth:`promote_staged` — the
optimizer commit —, :meth:`discard`, :meth:`close`) drops its record as
:meth:`Staging.abandon` would, so no later fetch sees a stale copy.  A
landed record the optimizer will take (:meth:`will_take`) lives until it
is taken or the step ends; any other goes back at the next acquisition
that is not a parameter prefetch, or that does not fit the pinned budget
(before any dirty record is written back).  The step boundary
(:meth:`end_step`) drops every landed, taken and dirty record, and a
rolled-back optimizer step the records it took (:meth:`release_taken`):
points every rank process reaches alike.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Container, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.core.config import OffloadConfig, OffloadDevice
from repro.faults.errors import FaultUnrecoverable
from repro.nvme.aio import IORequest
from repro.obs import planes
from repro.obs.memscope import attribution_for_key, mem_sample
from repro.obs.perfscope import stall_span
from repro.obs.tracer import trace_span
from repro.nvme.buffers import PinnedBuffer, PinnedBufferPool
from repro.nvme.store import TensorStore, shadow_key
from repro.tensor.device import CPU, gpu


def _aligned(nbytes: int) -> int:
    """Records share one staging buffer at offsets rounded up to 64 B."""
    return -(-nbytes // 64) * 64


def _carve(
    storage: np.ndarray, pieces: Sequence[tuple[np.dtype, int]]
) -> list[np.ndarray]:
    """Byte buffer ``storage`` cut into one flat array per ``(dtype,
    nbytes)`` piece, back to back at aligned offsets."""
    out, offset = [], 0
    for dtype, nbytes in pieces:
        out.append(storage[offset : offset + nbytes].view(dtype))
        offset += _aligned(nbytes)
    return out


@dataclass
class OffloadCounters:
    """Data-movement accounting for the offload tier."""

    host_link_bytes: dict[int, int] = field(default_factory=dict)  # per GPU rank
    nvme_read_bytes: int = 0
    nvme_write_bytes: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    # Resilience fallbacks (docs/resilience.md): staged degradations that
    # keep training going when the async path fails under it.
    pinned_fallbacks: int = 0  # pool exhausted -> unpinned staging buffer
    prefetch_fallbacks: int = 0  # prefetch read died -> sync re-read
    abandoned_prefetch_errors: int = 0  # failed reads drained on overwrite

    def add_link(self, rank: int, nbytes: int) -> None:
        self.host_link_bytes[rank] = self.host_link_bytes.get(rank, 0) + nbytes


def _land(src: np.ndarray, dest: Optional[np.ndarray]) -> np.ndarray:
    """``src``'s contents in flat ``dest``, or in a private copy."""
    if dest is None:
        return src.copy()
    np.copyto(dest, src.reshape(-1))
    return dest


class Span(NamedTuple):
    """One tensor of a bulk request, or a flat slice of it."""

    key: str
    rank: int  # whose host link the bytes cross
    start: int = 0
    numel: Optional[int] = None  # None: the whole tensor


class Staging:
    """One staging acquisition and the I/O that reads into or writes from it.

    ``arrays`` holds one flat array per span a fetch asked for, in request
    order.  NVMe-resident spans are views of the staging buffer — the
    caller may compute on them in place and write them out again without a
    copy.  Memory-resident spans are private copies, or the stored arrays
    themselves for a borrowing fetch.  ``scratch`` holds the extra views the
    caller asked for beside them.  ``requests`` is the I/O not yet waited
    on.  The buffer goes back to the pool when the last of its ``holders``
    releases; nothing may touch its views after that.  A handle with
    nothing on NVMe holds no buffer.  ``lent`` lists the dirty or taken
    records' stagings whose views it hands out, one hold on each, let go
    with it.
    """

    __slots__ = ("arrays", "scratch", "requests", "holders", "lent", "_pin")

    def __init__(
        self,
        pin: Optional[PinnedBuffer] = None,
        arrays: Sequence[np.ndarray] = (),
        scratch: Sequence[np.ndarray] = (),
    ) -> None:
        self.arrays = list(arrays)
        self.scratch = list(scratch)
        self.requests: list[IORequest] = []
        self.holders = 1
        self.lent: list[Staging] = []
        self._pin = pin

    @property
    def pinned(self) -> bool:
        """Whether the buffer is held and came from the pinned pool."""
        return self._pin is not None

    @property
    def nbytes(self) -> int:
        """Pinned bytes held."""
        return 0 if self._pin is None else self._pin.nbytes

    @property
    def pending(self) -> bool:
        """Whether any I/O has not been waited on."""
        return bool(self.requests)

    @property
    def token(self) -> Optional[int]:
        """perfscope edge label of the request the wait will block on."""
        return self.requests[-1].token if self.requests else None

    def wait(self) -> list[np.ndarray]:
        """``arrays``, once every request has completed (and left ``requests``)."""
        for req in self.requests:
            req.wait()
        self.requests.clear()
        return self.arrays

    def release(self) -> None:
        """Let go of one hold; every request must have completed."""
        self.holders -= 1
        if self.holders > 0:
            return
        if self._pin is not None:
            self._pin.release()
            self._pin = None
        for held in self.lent:
            held.release()
        self.lent.clear()

    def abandon(self) -> int:
        """Drain I/O whose bytes will never be used, then release.

        The rollback and overwrite path: the buffer must not return to the
        pool while a request is in flight on it, but its outcome no longer
        matters, so a failure is counted, not raised — the step is already
        dying of its root-cause fault, or the bytes are being replaced.
        Returns how many requests failed.
        """
        failed = 0
        for req in self.requests:
            try:
                req.wait()
            except (OSError, MemoryError, FaultUnrecoverable):
                failed += 1
        self.release()
        return failed


#: A record's states, and the moves between them (``None``: the key holds
#: no staging) — the table in the module docstring.
READING, LANDED, TAKEN, DIRTY = "reading", "landed", "taken", "dirty"
_MOVES = frozenset(
    {
        (None, READING),
        (READING, LANDED),
        (READING, None),
        (LANDED, TAKEN),
        (LANDED, None),
        (TAKEN, None),
        (None, DIRTY),
        (DIRTY, None),
    }
)


class InfinityOffloadEngine:
    """Tier-routing storage for every partitioned model state."""

    def __init__(
        self,
        config: OffloadConfig,
        *,
        check=None,
    ) -> None:
        self.config = config
        self.counters = OffloadCounters()
        # in-memory tiers: key -> (array, device_tag)
        self._mem: dict[str, tuple[np.ndarray, object]] = {}
        self.pool = PinnedBufferPool(config.pinned_budget_bytes, check=check)
        self.store: Optional[TensorStore] = (
            TensorStore(config.nvme_dir, pool=self.pool, check=check)
            if config.any_nvme
            else None
        )
        # records held in staging: key -> (state, view, staging)
        self._records: dict[str, tuple[str, np.ndarray, Staging]] = {}
        # keys a later fetch_async takes where they land (will_take)
        self._takes: set[str] = set()
        self._lock = threading.Lock()

    # --- helpers -----------------------------------------------------------------
    #
    # Residency accounting: the global memscope (when enabled) sees every
    # in-memory tier placement and drop at these two choke points.
    def _ledger(self, device_tag, nbytes: int, key: str, *, free=False) -> None:
        scope = planes.memscope
        if scope.enabled:
            category, owner = attribution_for_key(key)
            charge = scope.free if free else scope.alloc
            charge(device_tag.kind.value, nbytes, category=category, owner=owner)

    def _drop_mem(self, key: str) -> None:
        old = self._mem.pop(key, None)
        if old is not None:
            arr, tag = old
            self._ledger(tag, arr.nbytes, key, free=True)

    def _forget(self, key: str) -> None:
        """Drop ``key``'s staging and resident copy: it is being rewritten,
        maybe on another tier, or discarded."""
        self._drop(key)
        self._drop_mem(key)

    def _move(
        self,
        key: str,
        state: Optional[str],
        view: Optional[np.ndarray] = None,
        staging: Optional[Staging] = None,
    ) -> Optional[Staging]:
        """The one place a record's state changes: to ``state`` with
        ``view`` of ``staging``, or, for ``None``, out of the map.  A move
        not in ``_MOVES`` raises; a move out returns the staging the record
        held, for the caller to release or abandon."""
        with self._lock:
            old = self._records.get(key)
            if old is None and state is None:
                return None  # nothing held
            move = (None if old is None else old[0], state)
            if move not in _MOVES:
                raise RuntimeError(
                    f"record {key!r} cannot move from {move[0]} to {move[1]}"
                )
            if state is None:
                return self._records.pop(key)[2]
            self._records[key] = (state, view, staging)
            return None

    def _drop(self, key: str) -> None:
        """Let go of ``key``'s staging, draining a read still in flight:
        the key is being overwritten or discarded, or a release point was
        reached.  A failed read is harmless here, but it is still counted
        (silently swallowing I/O errors is a lint violation in this tree)."""
        staging = self._move(key, None)
        if staging is not None:
            self.counters.abandoned_prefetch_errors += staging.abandon()

    def release_landed(self) -> None:
        """Return every landed record's staging to the pool; the next read
        of such a key goes to NVMe again."""
        self._release(LANDED)

    def will_take(self, keys: Sequence[str]) -> None:
        """Name records a later :meth:`fetch_async` takes where they land
        — the parameter records that are their own optimizer masters.
        Only these stay landed past a staging acquisition that is not a
        prefetch."""
        self._takes.update(keys)

    def release_taken(self) -> None:
        """Drop every taken record: the optimizer step that updated them in
        place was rolled back, and its replay reads the primaries again."""
        self._release(TAKEN)

    def end_step(self) -> None:
        """The step boundary: every landed, taken and dirty record goes.
        The step that read, updated or flushed them has committed, was
        skipped, or is thrown away and recomputes them; a dirty gradient
        never reaches disk."""
        self._release(LANDED, TAKEN, DIRTY)

    def _release(self, *states: str, keep: Container[str] = ()) -> None:
        if not self._records:
            return
        with self._lock:
            keys = [
                k
                for k, rec in self._records.items()
                if rec[0] in states and k not in keep
            ]
        for key in keys:
            self._drop(key)

    def _held(self, key: str, *states: str) -> Optional[tuple[np.ndarray, Staging]]:
        """``key``'s view and the staging it sits in when its record is in
        one of ``states``, else ``None``."""
        if not self._records:
            return None
        with self._lock:
            record = self._records.get(key)
        return record[1:] if record is not None and record[0] in states else None

    def dirty(self, key: str) -> Optional[tuple[np.ndarray, Staging]]:
        """Dirty ``key``'s view and the staging it sits in, else ``None``.

        Uncharged: for the producer that adds a later accumulation round
        into the view where it sits.
        """
        return self._held(key, DIRTY)

    def lend(self, key: str) -> Optional[tuple[np.ndarray, Staging]]:
        """A dirty or taken ``key``'s view and its staging, with one more
        hold on the staging for the caller to release when done with the
        view: until then the bytes stay where they are, even if the record
        is written back or dropped."""
        held = self._held(key, TAKEN, DIRTY)
        if held is not None:
            held[1].holders += 1
        return held

    def _take(self, key: str) -> bool:
        """Whether :meth:`lend` serves ``key``, once a landed record has
        moved to taken."""
        landed = self._held(key, LANDED)
        if landed is not None:
            self._move(key, TAKEN, *landed)
        return self._held(key, TAKEN, DIRTY) is not None

    def _store_resident(self, key: str, arr: np.ndarray, tag) -> None:
        """Keep ``arr``'s contents under ``key`` on memory tier ``tag``.

        A key re-stashed with the shape, dtype and tier it already has (the
        steady state: gradient and parameter shards, every step) is copied
        into its existing buffer — no allocation, no ledger traffic — and
        not even copied when ``arr`` already *is* that buffer.
        """
        old = self._mem.get(key)
        if (
            old is not None
            and old[1] == tag
            and old[0].shape == arr.shape
            and old[0].dtype == arr.dtype
        ):
            if old[0] is not arr:
                np.copyto(old[0], arr)
            return
        self._drop_mem(key)
        self._mem[key] = (arr.copy(), tag)
        self._ledger(tag, arr.nbytes, key)

    def adopt(self, key: str, array: np.ndarray, *, rank: int) -> None:
        """Commit an update of memory-resident ``key`` by reference.

        ``array`` — the stored array itself, updated in place through a
        borrowing :meth:`fetch_async`, or an updated private copy of it —
        becomes the stored tensor without a copy.  Charged like the
        :meth:`stash` it replaces: the bytes written cross the same link.
        """
        stored, tag = self._mem[key]
        if array.shape != stored.shape or array.dtype != stored.dtype:
            raise ValueError(
                f"adopt of {key!r} changes its layout:"
                f" {stored.dtype}{stored.shape} -> {array.dtype}{array.shape}"
            )
        self._mem[key] = (array, tag)
        if tag.is_cpu:
            self.counters.add_link(rank, array.nbytes)

    # --- stash ------------------------------------------------------------------
    def stash(
        self,
        key: Union[str, Sequence[str]],
        array: Union[np.ndarray, Sequence[np.ndarray]],
        device: OffloadDevice,
        *,
        rank: Union[int, Sequence[int]],
        sync: bool = True,
        crc_numel: Optional[int] = None,
    ) -> Optional[IORequest]:
        """Place ``array`` under ``key`` on ``device``.

        ``rank`` identifies whose host link the bytes cross (for CPU/NVMe
        placement).  For NVMe, ``sync=False`` returns the in-flight write
        handle so gradient offload can overlap backward compute, and
        ``crc_numel`` checksums the record in spans of that many elements
        for a consumer that streams it back with ranged reads.

        ``key``, ``array`` and ``rank`` may be parallel lists — a bucket
        flush's worth of gradient shards: on NVMe they go down as one bulk
        write with one handle.
        """
        single = isinstance(key, str)
        keys = [key] if single else list(key)
        ranks = [rank] if single else list(rank)
        arrays = [np.ascontiguousarray(a) for a in ([array] if single else array)]
        nbytes = sum(a.nbytes for a in arrays)
        if device is OffloadDevice.NONE:
            for k, arr, r in zip(keys, arrays, ranks):
                self._store_resident(k, arr, gpu(r))
            return None
        if device is OffloadDevice.CPU:
            with trace_span(
                "offload:swap_out", cat="offload", tier="cpu",
                bytes=int(nbytes), rank=ranks[0],
            ):
                for k, arr, r in zip(keys, arrays, ranks):
                    self._store_resident(k, arr, CPU)
                    self.counters.add_link(r, arr.nbytes)
            mem_sample("swap_out:cpu")
            return None
        if device is OffloadDevice.NVME:
            if self.store is None:
                raise RuntimeError("NVMe placement configured without a store")
            with trace_span(
                "offload:swap_out", cat="offload", tier="nvme",
                bytes=int(nbytes), rank=ranks[0], sync=sync,
            ):
                for k, arr, r in zip(keys, arrays, ranks):
                    self._forget(k)
                    self.counters.add_link(r, arr.nbytes)
                self.counters.nvme_write_bytes += nbytes
                req = self.store.write_async(keys, arrays, crc_numel=crc_numel)
                mem_sample("swap_out:nvme")
                if sync:
                    req.wait()
                    return None
                return req
        raise ValueError(f"unknown offload device {device}")

    def stash_staged(
        self,
        keys: Sequence[str],
        arrays: Sequence[np.ndarray],
        staging: Staging,
        *,
        rank: Sequence[int],
    ) -> None:
        """Place NVMe records assembled in place in ``staging`` (``arrays``
        are its views) — a bucket flush's gradient shards.

        Pinned staging keeps them as dirty records, one hold each: readers
        use the views, and the bytes reach disk only if the pool needs them
        back (:meth:`_write_back`).  Unpinned staging writes them through as
        one bulk request, added to ``staging.requests``: wait on it before
        releasing.  Either way the bytes cross each rank's host link.
        """
        if not staging.pinned:
            staging.requests.append(
                self.stash(keys, arrays, OffloadDevice.NVME, rank=rank, sync=False)
            )
            return
        staging.holders = len(keys)  # one per record
        for k, arr, r in zip(keys, arrays, rank):
            self._forget(k)
            if k in self.store:  # an older write-back: superseded, not read
                self.store.delete(k)
            self.counters.add_link(r, arr.nbytes)
            self._move(k, DIRTY, arr, staging)

    def _make_room(self, nbytes: int) -> None:
        """If ``nbytes`` of pinned staging does not fit: landed records back
        to the pool; then, if it still does not, dirty records written
        back."""
        if self.pool.fits(nbytes):
            return
        self.release_landed()
        if not self.pool.fits(nbytes):
            self._write_back(nbytes)

    def _write_back(self, nbytes: int) -> None:
        """Write dirty records to their primaries until ``nbytes`` of
        pinned staging fits: the records of one staging (one flush) as one
        bulk, CRC'd write, oldest first, each record dropped once its write
        completed.  A staging a reader holds (:meth:`lend`) returns to the
        pool when the reader lets go; until then the reader's view stays
        valid."""
        if not self._records:
            return
        flushes: dict[int, tuple[list[str], list[np.ndarray]]] = {}
        with self._lock:
            for key, (state, view, staging) in self._records.items():
                if state == DIRTY:
                    keys, views = flushes.setdefault(id(staging), ([], []))
                    keys.append(key)
                    views.append(view)
        for keys, views in flushes.values():
            if self.pool.fits(nbytes):
                return
            written = sum(v.nbytes for v in views)
            with trace_span(
                "offload:write_back", cat="offload", tier="nvme",
                bytes=int(written), records=len(keys),
            ):
                self.counters.nvme_write_bytes += written
                self.store.write_async(keys, views).wait()
            for key in keys:
                self._move(key, None).release()

    # --- staged (double-buffered) NVMe updates ------------------------------------
    #
    # The transactional optimizer step never overwrites a live NVMe record
    # in place: fallible writes stream into the key's shadow record, in the
    # idle one of the record's two slot files, and only once every byte has
    # landed does ``promote_staged`` flip the key to it — an infallible
    # commit with no system call, so a fault at any point leaves the
    # primaries untouched and the step replayable.
    def stage_nvme(
        self, spans: Sequence[Span], arrays: Sequence[np.ndarray], staging: Staging
    ) -> None:
        """Begin writing ``arrays`` into the shadow records of ``spans``,
        adding the writes to ``staging`` (the handle whose views they are).

        One bulk request for the whole tensors and one for the flat slices
        (whose shadow record is opened, sized like the primary, on first
        touch).  Byte accounting matches :meth:`stash`'s NVMe path — the
        bytes cross the same host link whether they land in the primary or
        its shadow.  Commit each key with :meth:`promote_staged`, abandon
        with :meth:`discard_staged`.
        """
        if self.store is None:
            raise RuntimeError("NVMe staging requires a store")
        nbytes = sum(a.nbytes for a in arrays)
        with trace_span(
            "offload:swap_out", cat="offload", tier="nvme",
            bytes=int(nbytes), records=len(spans), staged=True,
        ):
            whole_keys, whole_arrays, ranged = [], [], []
            for span, arr in zip(spans, arrays):
                self.counters.add_link(span.rank, arr.nbytes)
                shadow = shadow_key(span.key)
                if span.numel is None:
                    whole_keys.append(shadow)
                    whole_arrays.append(arr)
                    continue
                if shadow not in self.store:
                    shape, dtype, _ = self.store.meta(span.key)
                    self.store.create(shadow, shape, dtype)
                ranged.append((shadow, span.start, arr))
            self.counters.nvme_write_bytes += nbytes
            if whole_keys:
                staging.requests.append(
                    self.store.write_async(whole_keys, whole_arrays)
                )
            if ranged:
                staging.requests.append(self.store.write_range(ranged))

    def promote_staged(self, key: str) -> None:
        """Make ``key``'s fully written shadow record the primary (a
        metadata flip, :meth:`TensorStore.promote`), the single source of
        truth: a prefetched record or resident copy of the key is dropped
        first."""
        if self.store is None:
            raise RuntimeError("NVMe staging requires a store")
        self._forget(key)
        self.store.promote(shadow_key(key), key)

    def discard_staged(self, key: str) -> None:
        """Drop ``key``'s shadow record and its slot file (transaction
        rollback path)."""
        if self.store is not None:
            self.store.delete(shadow_key(key))

    # --- fetch -------------------------------------------------------------------
    def fetch(self, key: str, *, rank: int) -> np.ndarray:
        """Load the tensor stored under ``key`` (waits on any prefetch)."""
        return self._read(key, None, rank)

    def fetch_into(self, key: str, dest: np.ndarray, *, rank: int) -> None:
        """Load ``key`` directly into ``dest`` — no intermediate allocation.

        The zero-copy sibling of :meth:`fetch` for callers that own a
        staging buffer (the group gather path): resident tiers copy
        straight from storage into ``dest``; the NVMe tier reads into it.
        """
        self._read(key, dest, rank)

    def _read(
        self, key: str, dest: Optional[np.ndarray], rank: int
    ) -> np.ndarray:
        """The one read path behind :meth:`fetch` and :meth:`fetch_into`.

        The bytes land in flat ``dest`` when given, else in a fresh array
        of the stored shape; routing, byte accounting, spans and watermark
        samples do not depend on which.
        """
        record = None
        if self._records:  # only ever populated when an NVMe tier exists
            with self._lock:
                record = self._records.get(key)
        if record is not None and record[0] in (LANDED, DIRTY):
            # read, verified and landed earlier in the step, or dirty since
            # its flush: only the copy into the caller's buffer crosses the
            # host link
            out = _land(record[1], dest)
            if record[0] == LANDED:
                self.counters.prefetch_hits += 1
            self.counters.add_link(rank, out.nbytes)
            return out
        if record is not None and record[0] == READING:
            _, view, staging = record
            with trace_span(
                "offload:swap_in", cat="offload", tier="nvme",
                prefetched=True, rank=rank,
            ):
                try:
                    landed = False
                    try:
                        staging.wait()
                        out = _land(view, dest)
                        landed = staging.pinned
                    finally:
                        if landed:
                            self._move(key, LANDED, view, staging)
                        else:
                            self._move(key, None).release()
                except OSError as err:
                    # Prefetch read died (aio retries already exhausted).
                    # The spool file is intact — only the staging transfer
                    # failed — so recover with a synchronous re-read.
                    # The request's future keeps ``err``, and its traceback
                    # would keep this frame and ``dest`` (a view of a gather
                    # buffer) alive until the cyclic GC runs.
                    err.__traceback__ = None
                    self.counters.prefetch_fallbacks += 1
                    out = self.store.read(key, dest)
            self.counters.prefetch_hits += 1
            self.counters.add_link(rank, out.nbytes)
            self.counters.nvme_read_bytes += out.nbytes
            mem_sample("swap_in:nvme")
            return out
        entry = self._mem.get(key)
        if entry is not None:
            arr, tag = entry
            if dest is not None and arr.size != dest.size:
                raise ValueError(
                    f"{key!r} has {arr.size} elements, destination {dest.size}"
                )
            if tag.is_cpu:
                with trace_span(
                    "offload:swap_in", cat="offload", tier="cpu",
                    bytes=int(arr.nbytes), rank=rank,
                ):
                    self.counters.add_link(rank, arr.nbytes)
                    return _land(arr, dest)
            return _land(arr, dest)
        if self.store is not None and key in self.store:
            self.counters.prefetch_misses += 1
            # demand fetch: the step blocks on a read the prefetcher missed
            with stall_span(
                "prefetch_miss", owner=attribution_for_key(key)[1], key=key
            ), trace_span(
                "offload:swap_in", cat="offload", tier="nvme",
                prefetched=False, rank=rank,
            ):
                out = self.store.read(key, dest)
            self.counters.add_link(rank, out.nbytes)
            self.counters.nvme_read_bytes += out.nbytes
            mem_sample("swap_in:nvme")
            return out
        raise KeyError(f"offload engine has no tensor {key!r}")

    def resident(self, key: str) -> Optional[np.ndarray]:
        """The stored array of a memory-resident ``key``, else ``None``.

        Uncharged: for a producer that assembles the key's next value in
        place and then stashes that very array — which moves nothing and
        charges the write.
        """
        entry = self._mem.get(key)
        return None if entry is None else entry[0]

    def peek(self, key: str, *, rank: int) -> np.ndarray:
        """``key``'s tensor for a caller that only reads it, on the spot.

        A memory-resident tensor is lent as a read-only view of the stored
        array (valid until the key is next stashed) instead of copied, and
        so is a dirty one's staging view (valid until it is dropped); any
        other NVMe one has to be read, so this is :meth:`fetch`.  Charged
        like :meth:`fetch` either way.
        """
        entry = self._mem.get(key)  # resident keys are never prefetched
        if entry is not None:
            arr, tag = entry
            if tag.is_cpu:
                self.counters.add_link(rank, arr.nbytes)
        else:
            held = self.dirty(key)
            if held is None:
                return self.fetch(key, rank=rank)
            arr = held[0]
            self.counters.add_link(rank, arr.nbytes)
        view = arr.view()
        view.flags.writeable = False
        return view

    def fetch_async(
        self,
        spans: Sequence[Span],
        *,
        borrow: bool = False,
        scratch: Sequence[tuple[int, np.dtype]] = (),
    ) -> Staging:
        """Begin loading many tensors (or flat slices of them) at once.

        The bulk, non-blocking sibling of :meth:`fetch` for a caller that
        streams state through in groups (the optimizer pipeline): resident
        tiers are copied out immediately; everything on NVMe goes down as
        one bulk read of the whole records plus one of the slices, into a
        single pinned staging buffer.  Byte accounting matches
        :meth:`fetch` exactly.  These reads are issued by their consumer,
        not predicted, so they count as neither prefetch hits nor misses.

        ``borrow=True`` lends resident tensors instead of copying them:
        the arrays handed out are the stored ones, so whatever the caller
        writes into them is the stored value from that instant —
        :meth:`adopt` then commits the update (and charges its bytes)
        without moving any.  For a caller with nothing to roll back to.

        ``scratch`` asks for extra ``(numel, dtype)`` arrays from the same
        staging acquisition (``Staging.scratch``): room for what the
        caller computes from the fetched state and writes out beside it.

        A dirty record is handed out as its staging view itself — no
        request, no staging bytes, no NVMe bytes — under a hold
        (``Staging.lent``) the returned handle lets go of.  Read it only:
        it is the record (a gradient nothing rewrites, so no rollback needs
        an undo copy of it).  A landed record is taken and handed out the
        same way, for the caller to update in place: from then on it is
        ahead of its primary until the caller's shadow write is promoted
        (:meth:`promote_staged`), or dropped (:meth:`release_taken`).
        """
        arrays: list[Optional[np.ndarray]] = [None] * len(spans)
        staged: list[int] = []  # indices of the spans read from NVMe
        lent_ix: list[int] = []  # indices of the spans held records serve
        for i, span in enumerate(spans):
            entry = self._mem.get(span.key)
            if entry is None:
                (lent_ix if self._take(span.key) else staged).append(i)
                continue
            arr, tag = entry
            flat = arr if arr.ndim == 1 else arr.reshape(-1)
            if span.numel is not None:
                flat = flat[span.start : span.start + span.numel]
            arrays[i] = flat if borrow else flat.copy()
            if tag is CPU or getattr(tag, "is_cpu", False):
                self.counters.add_link(span.rank, flat.nbytes)
        extra = [(np.dtype(d), n * np.dtype(d).itemsize) for n, d in scratch]
        pieces = [self._piece(spans[i]) for i in staged] + extra
        total = sum(_aligned(nbytes) for _, nbytes in pieces)
        if lent_ix and not self.pool.fits(total):
            # no room beside the records these spans would borrow: write
            # the dirty ones back before any is lent, and read them like
            # the rest
            self._make_room(total)
            back = [i for i in lent_ix if not self._take(spans[i].key)]
            if back:
                lent_ix = [i for i in lent_ix if i not in back]
                staged = sorted(staged + back)
                pieces = [self._piece(spans[i]) for i in staged] + extra
                total = sum(_aligned(nbytes) for _, nbytes in pieces)
        lent: list[Staging] = []
        for i in lent_ix:
            span = spans[i]
            flat, holder = self.lend(span.key)
            lent.append(holder)
            if span.numel is not None:
                flat = flat[span.start : span.start + span.numel]
            arrays[i] = flat
            self.counters.add_link(span.rank, flat.nbytes)
        if not pieces:
            staging = Staging(arrays=arrays)
            staging.lent = lent
            return staging
        with trace_span(
            "offload:swap_in", cat="offload", tier="nvme",
            bytes=int(total), records=len(staged), bulk=True,
        ):
            try:
                staging = self._acquire(total, pieces)
            except BaseException:
                for holder in lent:
                    holder.release()
                raise
            staging.lent = lent
            views = staging.arrays
            staging.arrays, staging.scratch = arrays, views[len(staged) :]
            whole_keys, whole_outs, ranged, ranged_outs = [], [], [], []
            for i, out in zip(staged, views):
                span = spans[i]
                arrays[i] = out
                if span.numel is None:
                    whole_keys.append(span.key)
                    whole_outs.append(out)
                else:
                    ranged.append((span.key, span.start, out.size))
                    ranged_outs.append(out)
                self.counters.add_link(span.rank, out.nbytes)
                self.counters.nvme_read_bytes += out.nbytes
            try:
                if whole_keys:
                    staging.requests.append(
                        self.store.read_async(whole_keys, whole_outs)[1]
                    )
                if ranged:
                    staging.requests.append(
                        self.store.read_range(ranged, out=ranged_outs)[1]
                    )
            except BaseException:
                staging.abandon()
                raise
            return staging

    def _piece(self, span: Span) -> tuple[np.dtype, int]:
        """``(dtype, nbytes)`` of the staging an NVMe ``span`` is read into."""
        if self.store is None or span.key not in self.store:
            raise KeyError(f"offload engine has no tensor {span.key!r}")
        shape, dtype, _ = self.store.meta(span.key)
        numel = span.numel
        if numel is None:
            numel = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return dtype, numel * dtype.itemsize

    def acquire_staging(self, numels: Sequence[int], dtype) -> Staging:
        """One staging acquisition cut into flat ``dtype`` arrays of
        ``numels`` elements (``Staging.arrays``), for a producer that
        assembles what it will write out (:meth:`stash`'s list form) in
        place.  Release it once the write has completed; with no elements
        nothing is acquired.
        """
        dtype = np.dtype(dtype)
        pieces = [(dtype, n * dtype.itemsize) for n in numels]
        if not pieces:
            return Staging()
        return self._acquire(sum(_aligned(nbytes) for _, nbytes in pieces), pieces)

    def _acquire(
        self,
        nbytes: int,
        pieces: Sequence[tuple[np.dtype, int]],
        *,
        prefetch: bool = False,
    ) -> Staging:
        """``nbytes`` of pinned staging, or unpinned when the pool is out,
        cut into one flat array per ``(dtype, nbytes)`` piece.

        Unless this is a parameter prefetch, landed records nothing will
        take go back to the pool first.  When the budget has no room for
        it, every landed record does; if that is not room enough, dirty
        records are written back until it is.
        """
        if not prefetch:
            self._release(LANDED, keep=self._takes)
        self._make_room(nbytes)
        try:
            pin = self.pool.acquire(nbytes, np.uint8)
            storage = pin.array
        except MemoryError:
            # Pinned pool exhausted: fall back to an unpinned staging buffer
            # rather than stalling the pipeline.  The fallback allocation
            # itself is time the budget cost us.
            with stall_span("pinned_wait", owner="pool", nbytes=nbytes):
                self.counters.pinned_fallbacks += 1
                pin = None
                storage = np.empty(nbytes, dtype=np.uint8)  # lint: allow-rawalloc
        return Staging(pin, _carve(storage, pieces))

    @property
    def can_prefetch(self) -> bool:
        """Whether async lookahead is possible at all (an NVMe tier exists)."""
        return self.store is not None

    def prefetch(
        self, key: Union[str, Sequence[str]], *, rank: Union[int, Sequence[int]]
    ) -> int:
        """Begin an async NVMe read of ``key``; no-op for resident tiers.

        ``key`` and ``rank`` may be parallel lists — a module's worth of
        shards: one pinned staging buffer, one bulk request, one handle
        shared by every record.  Keys that are resident, unknown or already
        in flight are skipped.  Returns how many reads were started.
        """
        if self.store is None:
            return 0
        single = isinstance(key, str)
        keys = [key] if single else key
        ranks = [rank] if single else rank
        with self._lock:
            wanted = {
                k: r
                for k, r in zip(keys, ranks)
                if k not in self._records and k not in self._mem and k in self.store
            }
        if not wanted:
            return 0
        metas = [self.store.meta(k) for k in wanted]
        total = sum(_aligned(nbytes) for _, _, nbytes in metas)
        with trace_span(
            "offload:prefetch_start", cat="prefetch",
            bytes=int(total), records=len(wanted),
        ):
            staging = self._acquire(
                total, [(dtype, nbytes) for _, dtype, nbytes in metas], prefetch=True
            )
            try:
                targets, req = self.store.read_async(list(wanted), staging.arrays)
            except BaseException:
                staging.release()
                raise
            staging.requests.append(req)
            staging.holders = len(wanted)  # one per record
            for k, target in zip(wanted, targets):
                self._move(k, READING, target, staging)
        return len(wanted)

    # --- lifecycle --------------------------------------------------------------
    def discard(self, key: str) -> None:
        self._forget(key)
        if self.store is not None:
            self.store.delete(key)

    def synchronize(self) -> None:
        if self.store is not None:
            self.store.engine.synchronize()

    def close(self) -> None:
        with self._lock:
            keys = list(self._records)
        for key in keys:
            self._drop(key)
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "InfinityOffloadEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
