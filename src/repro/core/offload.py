"""The infinity offload engine (Sec. 6.3).

Routes named tensors (parameter shards, gradient shards, optimizer state
shards) to their configured tier:

* ``NONE``  — kept in (simulated) GPU memory;
* ``CPU``   — kept in host arrays, crossing the owning GPU's host link;
* ``NVME``  — spooled to the file-backed :class:`~repro.nvme.store.TensorStore`
  through the async engine, staged via the pinned buffer pool.

Per-rank host-link byte counters make the bandwidth-centric argument
measurable: with owner/broadcast layout all of a parameter's bytes cross one
rank's link; with sharded/allgather layout each rank's link carries 1/dp of
them (Sec. 6.1).

Asynchronous prefetch (:meth:`prefetch`) starts one bulk NVMe read of a
module's worth of records into one pinned staging buffer and parks the
handle under every key; a later :meth:`fetch` of one of them waits on the
handle instead of issuing a fresh read — the nc-transfer leg of the
overlap-centric design (Sec. 6.2).

A prefetched record read once stays *landed*: its pinned staging keeps
the verified bytes, and every later read of the key — the tied head's
gather, a checkpoint recompute, backward, the next simulated rank's turn —
copies them out of the staging.  Each parameter record is thus read from
NVMe once per step, as a node that reads only its own shard would (Sec.
6.1); only the host-link copy into the gather buffer repeats.  A write or
discard of the key (:meth:`stash`, :meth:`promote_staged` — the optimizer
commit —, :meth:`update_slice`, :meth:`discard`, :meth:`close`) drops its
landed record.  Every landed record goes back to the pool
(:meth:`release_landed`) before any staging acquisition that is not a
parameter prefetch (a gradient flush, the optimizer's reads), before a
prefetch would not fit the pinned budget, and when the engine aborts a
step or ends an evaluation — points every rank process reaches alike.
Demand reads and unpinned fallback staging land once and go.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.check.runtime import get_checker
from repro.core.config import OffloadConfig, OffloadDevice
from repro.faults.errors import FaultUnrecoverable
from repro.hardware.memory import MemoryLedger
from repro.nvme.aio import IORequest
from repro.obs.memscope import attribution_for_key, get_memscope, mem_sample
from repro.obs.metrics import get_registry
from repro.obs.perfscope import stall_span
from repro.obs.tracer import trace_span
from repro.nvme.buffers import PinnedBuffer, PinnedBufferPool
from repro.nvme.store import TensorStore, shadow_key
from repro.tensor.device import CPU, gpu
from repro.tensor.flat import same_buffer


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
    cpu_read_bytes: int = 0
    cpu_write_bytes: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    # Resilience fallbacks (docs/resilience.md): staged degradations that
    # keep training going when the async path fails under it.
    pinned_fallbacks: int = 0  # pool exhausted -> unpinned staging buffer
    prefetch_fallbacks: int = 0  # prefetch read died -> sync re-read
    abandoned_prefetch_errors: int = 0  # failed reads drained on overwrite

    def add_link(self, rank: int, nbytes: int) -> None:
        self.host_link_bytes[rank] = self.host_link_bytes.get(rank, 0) + nbytes

    @property
    def max_link_bytes(self) -> int:
        return max(self.host_link_bytes.values(), default=0)

    @property
    def total_link_bytes(self) -> int:
        return sum(self.host_link_bytes.values())


class _Prefetch:
    """One bulk prefetch: the request and the pinned staging buffer shared
    by every record it reads.  The buffer goes back to the pool when the
    last of them has been landed or abandoned."""

    __slots__ = ("request", "pinned", "_pin", "_records_left")

    def __init__(
        self, request: IORequest, pin: Optional[PinnedBuffer], records: int
    ) -> None:
        self.request = request
        self.pinned = pin is not None
        self._pin = pin
        self._records_left = records

    def finish_record(self) -> None:
        """One record's staging bytes are no longer needed."""
        self._records_left -= 1
        if self._records_left == 0 and self._pin is not None:
            self._pin.release()
            self._pin = None


class _Inflight(NamedTuple):
    """One prefetched record: its slice of the staging buffer, its bulk,
    and whether a read has landed it (its bytes are verified and final)."""

    buffer: np.ndarray
    bulk: _Prefetch
    landed: bool = False


def settle(requests, counter: str) -> None:
    """Wait out I/O whose outcome no longer matters (a step being rolled
    back): its buffers must not be reused while it is in flight, but the
    step is already dying of its root-cause fault, so a secondary failure
    is counted under ``counter``, not raised."""
    for req in requests:
        try:
            req.wait()
        except (OSError, MemoryError, FaultUnrecoverable):
            get_registry().counter(counter).inc()


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


class StagedFetch:
    """Handle for a bulk fetch begun by :meth:`InfinityOffloadEngine.fetch_async`.

    ``wait`` returns one flat array per requested span, in request order.
    NVMe-resident spans are views of one pinned staging buffer — the caller
    may compute on them in place and write them out again without a copy —
    which goes back to the pool at ``release``; nothing may touch the views
    after that.  Memory-resident spans are private copies, or the stored
    arrays themselves when the fetch was begun with ``borrow=True``.
    ``scratch`` holds the extra arrays the caller asked for out of the same
    staging buffer (results it will write out with the rest), with the same
    lifetime.
    """

    __slots__ = ("arrays", "scratch", "_requests", "_pin")

    def __init__(
        self,
        arrays: list[np.ndarray],
        requests: list[IORequest],
        pin: Optional[PinnedBuffer],
        scratch: Sequence[np.ndarray] = (),
    ) -> None:
        self.arrays = arrays
        self.scratch = list(scratch)
        self._requests = requests
        self._pin = pin

    @property
    def pending(self) -> bool:
        """Whether anything was read asynchronously (else: copies, done)."""
        return bool(self._requests)

    @property
    def token(self) -> Optional[int]:
        """perfscope edge label of the read the wait will block on."""
        return self._requests[-1].token if self._requests else None

    def wait(self) -> list[np.ndarray]:
        for req in self._requests:
            req.wait()
        return self.arrays

    def release(self) -> None:
        """Return the staging buffer; every request must have completed."""
        if self._pin is not None:
            self._pin.release()
            self._pin = None

    def abandon(self) -> None:
        """Drain reads whose bytes will never be used, then release.

        The rollback path: a read must have landed before its staging
        returns to the pool, whatever became of it.
        """
        settle(self._requests, "faults.aborted_reads")
        self.release()


class InfinityOffloadEngine:
    """Tier-routing storage for every partitioned model state."""

    def __init__(
        self,
        config: OffloadConfig,
        *,
        ledger: Optional[MemoryLedger] = None,
        check=None,
    ) -> None:
        self.config = config
        self.ledger = ledger
        self.counters = OffloadCounters()
        if check is None:
            check = get_checker()
        self._check = check
        # in-memory tiers: key -> (array, device_tag)
        self._mem: dict[str, tuple[np.ndarray, object]] = {}
        self.pool = PinnedBufferPool(config.pinned_budget_bytes, check=check)
        self.store: Optional[TensorStore] = (
            TensorStore(
                config.nvme_dir,
                pool=self.pool,
                check=check,
                verify_checksums=config.verify_checksums,
                io_retries=config.io_retries,
            )
            if config.any_nvme
            else None
        )
        self._inflight: dict[str, _Inflight] = {}
        self._lock = threading.Lock()

    # --- helpers -----------------------------------------------------------------
    #
    # Residency accounting feeds two sinks at the same choke points: the
    # capacity-enforcing MemoryLedger (when configured) and the global
    # memscope (when enabled) — so their totals agree by construction.
    def _ledger_alloc(self, device_tag, nbytes: int, key: str) -> None:
        scope = get_memscope()
        if scope.enabled or self.ledger is not None:
            category, owner = attribution_for_key(key)
            scope.alloc(
                device_tag.kind.value, nbytes, category=category, owner=owner
            )
            if self.ledger is not None:
                self.ledger.allocate(
                    device_tag, nbytes, category=category, owner=owner
                )

    def _ledger_free(self, device_tag, nbytes: int, key: str) -> None:
        scope = get_memscope()
        if scope.enabled or self.ledger is not None:
            category, owner = attribution_for_key(key)
            scope.free(
                device_tag.kind.value, nbytes, category=category, owner=owner
            )
            if self.ledger is not None:
                self.ledger.free(device_tag, nbytes, category=category, owner=owner)

    def _drop_mem(self, key: str) -> None:
        old = self._mem.pop(key, None)
        if old is not None:
            arr, tag = old
            self._ledger_free(tag, arr.nbytes, key)

    def _abandon_inflight(self, inflight: _Inflight) -> None:
        """Drain a prefetch whose bytes will never be used.

        Called when the key is about to be overwritten or discarded: a
        failed read is harmless here, but it is still counted (silently
        swallowing I/O errors is a lint violation in this tree) and the
        staging pin always returns to the pool.
        """
        try:
            inflight.bulk.request.wait()
        except OSError:
            self.counters.abandoned_prefetch_errors += 1
            get_registry().counter("faults.abandoned_prefetch").inc()
        finally:
            inflight.bulk.finish_record()

    def _finish_inflight(self, key: str) -> None:
        """``key``'s staging bytes are no longer needed."""
        with self._lock:
            inflight = self._inflight.pop(key)
        inflight.bulk.finish_record()

    def release_landed(self) -> None:
        """Return every landed record's staging to the pool; the next read
        of such a key goes to NVMe again."""
        if not self._inflight:
            return
        with self._lock:
            landed = [k for k, f in self._inflight.items() if f.landed]
            bulks = [self._inflight.pop(k).bulk for k in landed]
        for bulk in bulks:
            bulk.finish_record()

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
        self._ledger_alloc(tag, arr.nbytes, key)

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
            self.counters.cpu_write_bytes += array.nbytes

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
                self.counters.cpu_write_bytes += nbytes
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
                    # an in-flight prefetch is still reading this key's
                    # file; drain it before the write lands in the same byte
                    # range (and before the staging buffer returns to the
                    # pool with stale bytes)
                    with self._lock:
                        inflight = self._inflight.pop(k, None)
                    if inflight is not None:
                        self._abandon_inflight(inflight)
                    self._drop_mem(k)  # key may migrate tiers
                    self.counters.add_link(r, arr.nbytes)
                self.counters.nvme_write_bytes += nbytes
                req = self.store.write_async(
                    key if single else keys,
                    arrays[0] if single else arrays,
                    crc_numel=crc_numel,
                )
                mem_sample("swap_out:nvme")
                if sync:
                    req.wait()
                    return None
                return req
        raise ValueError(f"unknown offload device {device}")

    # --- staged (double-buffered) NVMe updates ------------------------------------
    #
    # The transactional optimizer step never overwrites a live NVMe record
    # in place: fallible writes stream into the key's shadow record, and
    # only once every byte has landed does ``promote_staged`` rename the
    # shadow over the primary — an infallible commit, so a fault at any
    # point leaves the primaries untouched and the step replayable.
    def stage_nvme(
        self, spans: Sequence[Span], arrays: Sequence[np.ndarray]
    ) -> list[IORequest]:
        """Begin writing ``arrays`` into the shadow records of ``spans``.

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
            requests = []
            if whole_keys:
                requests.append(self.store.write_async(whole_keys, whole_arrays))
            if ranged:
                try:
                    requests.append(self.store.write_range(ranged))
                except BaseException:
                    # the caller never sees the first handle
                    settle(requests, "faults.aborted_writes")
                    raise
            return requests

    def promote_staged(self, key: str) -> None:
        """Rename ``key``'s fully written shadow record onto the primary.

        Drains any in-flight prefetch of the primary first (the rename
        must not race a read staging stale bytes) and drops a resident
        copy — the promoted record is now the single source of truth.
        """
        if self.store is None:
            raise RuntimeError("NVMe staging requires a store")
        with self._lock:
            inflight = self._inflight.pop(key, None)
        if inflight is not None:
            self._abandon_inflight(inflight)
        self._drop_mem(key)  # key may migrate tiers
        self.store.promote(shadow_key(key), key)

    def discard_staged(self, key: str) -> None:
        """Drop ``key``'s shadow record (transaction rollback path)."""
        if self.store is not None:
            self.store.delete(shadow_key(key))

    # --- in-place slice update ----------------------------------------------------
    def update_slice(
        self, key: str, offset_numel: int, array: np.ndarray, *, rank: int
    ) -> None:
        """Overwrite ``array.size`` elements of flat ``key`` at ``offset_numel``.

        The write-through path for slice-level updates (owner-layout shard
        write-back): only the slice crosses the host link, instead of the
        fetch-whole/patch/re-stash round trip that moves the entire buffer
        twice.  The key must already exist; tier placement is unchanged.
        """
        arr = np.ascontiguousarray(array).reshape(-1)
        # an in-flight prefetch holds pre-update bytes; drain it so a later
        # fetch cannot observe the stale staging buffer
        with self._lock:
            inflight = self._inflight.pop(key, None)
        if inflight is not None:
            self._abandon_inflight(inflight)
        entry = self._mem.get(key)
        if entry is not None:
            stored, tag = entry
            if offset_numel < 0 or offset_numel + arr.size > stored.size:
                raise ValueError(
                    f"slice [{offset_numel}, {offset_numel + arr.size}) out of"
                    f" bounds for {key!r} with {stored.size} elements"
                )
            flat = stored.reshape(-1)
            on_cpu = tag is CPU or getattr(tag, "is_cpu", False)
            with trace_span(
                "offload:update_slice", cat="offload",
                tier="cpu" if on_cpu else "gpu",
                bytes=int(arr.nbytes), rank=rank,
            ):
                dest = flat[offset_numel : offset_numel + arr.size]
                if not same_buffer(dest, arr):
                    dest[...] = arr.astype(stored.dtype, copy=False)
                if on_cpu:
                    self.counters.add_link(rank, arr.nbytes)
                    self.counters.cpu_write_bytes += arr.nbytes
            return
        if self.store is not None and key in self.store:
            with trace_span(
                "offload:update_slice", cat="offload", tier="nvme",
                bytes=int(arr.nbytes), rank=rank,
            ):
                self.counters.add_link(rank, arr.nbytes)
                self.counters.nvme_write_bytes += arr.nbytes
                self.store.write_range(key, offset_numel, arr).wait()
            return
        raise KeyError(f"offload engine has no tensor {key!r}")

    # --- fetch -------------------------------------------------------------------
    def fetch(self, key: str, *, rank: int) -> np.ndarray:
        """Load the tensor stored under ``key`` (waits on any prefetch)."""
        return self._read(key, None, rank)

    def fetch_into(self, key: str, dest: np.ndarray, *, rank: int) -> None:
        """Load ``key`` directly into ``dest`` — no intermediate allocation.

        The zero-copy sibling of :meth:`fetch` for callers that own a
        staging buffer (the coalesced gather path): resident tiers copy
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
        inflight = None
        if self._inflight:  # only ever populated when an NVMe tier exists
            with self._lock:
                inflight = self._inflight.get(key)
        if inflight is not None and inflight.landed:
            # read, verified and landed earlier in the step: only the copy
            # into the caller's buffer crosses the host link again
            out = _land(inflight.buffer, dest)
            self.counters.prefetch_hits += 1
            get_registry().counter("prefetch.hits").inc()
            self.counters.add_link(rank, out.nbytes)
            return out
        if inflight is not None:
            with trace_span(
                "offload:swap_in", cat="offload", tier="nvme",
                prefetched=True, rank=rank,
            ):
                try:
                    try:
                        inflight.bulk.request.wait()
                        out = _land(inflight.buffer, dest)
                    except BaseException:
                        self._finish_inflight(key)
                        raise
                    if inflight.bulk.pinned:
                        with self._lock:
                            self._inflight[key] = inflight._replace(landed=True)
                    else:
                        self._finish_inflight(key)
                except OSError:
                    # Prefetch read died (aio retries already exhausted).
                    # The spool file is intact — only the staging transfer
                    # failed — so recover with a synchronous re-read.
                    self.counters.prefetch_fallbacks += 1
                    get_registry().counter("faults.prefetch_fallback").inc()
                    out = self.store.read(key, dest)
            self.counters.prefetch_hits += 1
            get_registry().counter("prefetch.hits").inc()
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
                    self.counters.cpu_read_bytes += arr.nbytes
                    return _land(arr, dest)
            return _land(arr, dest)
        if self.store is not None and key in self.store:
            self.counters.prefetch_misses += 1
            get_registry().counter("prefetch.misses").inc()
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
        array (valid until the key is next stashed) instead of copied; an
        NVMe one has to be read, so this is :meth:`fetch`.  Charged like
        :meth:`fetch` either way.
        """
        entry = self._mem.get(key)  # resident keys are never prefetched
        if entry is None:
            return self.fetch(key, rank=rank)
        arr, tag = entry
        if tag.is_cpu:
            self.counters.add_link(rank, arr.nbytes)
            self.counters.cpu_read_bytes += arr.nbytes
        view = arr.view()
        view.flags.writeable = False
        return view

    def fetch_async(
        self,
        spans: Sequence[Span],
        *,
        borrow: bool = False,
        scratch: Sequence[tuple[int, np.dtype]] = (),
    ) -> StagedFetch:
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
        staging acquisition (``StagedFetch.scratch``): room for what the
        caller computes from the fetched state and writes out beside it.
        """
        arrays: list[Optional[np.ndarray]] = [None] * len(spans)
        staged: list[int] = []  # indices of the spans read from NVMe
        pieces: list[tuple[np.dtype, int]] = []
        for i, span in enumerate(spans):
            entry = self._mem.get(span.key)
            if entry is not None:
                arr, tag = entry
                flat = arr if arr.ndim == 1 else arr.reshape(-1)
                if span.numel is not None:
                    flat = flat[span.start : span.start + span.numel]
                arrays[i] = flat if borrow else flat.copy()
                if tag is CPU or getattr(tag, "is_cpu", False):
                    self.counters.add_link(span.rank, flat.nbytes)
                    self.counters.cpu_read_bytes += flat.nbytes
                continue
            if self.store is None or span.key not in self.store:
                raise KeyError(f"offload engine has no tensor {span.key!r}")
            shape, dtype, _ = self.store.meta(span.key)
            numel = span.numel
            if numel is None:
                numel = int(np.prod(shape, dtype=np.int64)) if shape else 1
            staged.append(i)
            pieces.append((dtype, numel * dtype.itemsize))
        for numel, dtype in scratch:
            dtype = np.dtype(dtype)
            pieces.append((dtype, numel * dtype.itemsize))
        if not pieces:
            return StagedFetch(arrays, [], None)
        total = sum(_aligned(nbytes) for _, nbytes in pieces)
        with trace_span(
            "offload:swap_in", cat="offload", tier="nvme",
            bytes=int(total), records=len(staged), bulk=True,
        ):
            pin, storage = self._acquire_staging(total)
            views = _carve(storage, pieces)
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
            requests: list[IORequest] = []
            fetch = StagedFetch(arrays, requests, pin, views[len(staged) :])
            try:
                if whole_keys:
                    requests.append(
                        self.store.read_async(whole_keys, whole_outs)[1]
                    )
                if ranged:
                    requests.append(self.store.read_range(ranged, out=ranged_outs)[1])
            except BaseException:
                fetch.abandon()
                raise
            return fetch

    def acquire_staging(
        self, numels: Sequence[int], dtype
    ) -> tuple[Optional[PinnedBuffer], list[np.ndarray]]:
        """One staging acquisition cut into flat ``dtype`` arrays of
        ``numels`` elements, for a producer that assembles what it will
        write out (:meth:`stash`'s list form) in place.

        Returns ``(pin, arrays)``; release ``pin`` (``None`` when the pool
        was out and the buffer is unpinned) once the write has completed.
        """
        dtype = np.dtype(dtype)
        pieces = [(dtype, n * dtype.itemsize) for n in numels]
        pin, storage = self._acquire_staging(
            sum(_aligned(nbytes) for _, nbytes in pieces)
        )
        return pin, _carve(storage, pieces)

    def _acquire_staging(
        self, nbytes: int, *, prefetch: bool = False
    ) -> tuple[Optional[PinnedBuffer], np.ndarray]:
        """A pinned byte buffer, or an unpinned one when the pool is out.

        Landed records go back to the pool first, unless this is a
        parameter prefetch the budget still has room for.
        """
        if not (prefetch and self.pool.fits(nbytes)):
            self.release_landed()
        try:
            pin = self.pool.acquire(nbytes, np.uint8)
            return pin, pin.array
        except MemoryError:
            # Pinned pool exhausted: fall back to an unpinned staging buffer
            # rather than stalling the pipeline.  The fallback allocation
            # itself is time the budget cost us.
            with stall_span("pinned_wait", owner="pool", nbytes=nbytes):
                self.counters.pinned_fallbacks += 1
                get_registry().counter("faults.pinned_fallback").inc()
                return None, np.empty(nbytes, dtype=np.uint8)  # lint: allow-rawalloc

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
                if k not in self._inflight and k not in self._mem and k in self.store
            }
        if not wanted:
            return 0
        metas = [self.store.meta(k) for k in wanted]
        total = sum(_aligned(nbytes) for _, _, nbytes in metas)
        with trace_span(
            "offload:prefetch_start", cat="prefetch",
            bytes=int(total), records=len(wanted),
        ):
            pin, storage = self._acquire_staging(total, prefetch=True)
            outs = _carve(storage, [(dtype, nbytes) for _, dtype, nbytes in metas])
            try:
                targets, req = self.store.read_async(list(wanted), outs)
            except BaseException:
                if pin is not None:
                    pin.release()
                raise
            bulk = _Prefetch(req, pin, len(wanted))
            with self._lock:
                for k, target in zip(wanted, targets):
                    self._inflight[k] = _Inflight(target, bulk)
        return len(wanted)

    # --- lifecycle --------------------------------------------------------------
    def contains(self, key: str) -> bool:
        if key in self._mem or key in self._inflight:
            return True
        return self.store is not None and key in self.store

    def bytes_by_kind(self) -> dict[str, dict[str, int]]:
        """Resident bytes per tier per state kind (``param16``, ``grad16``,
        ``master``, ``exp_avg``, ...), keyed by the trailing key segment.

        The observability view behind ``engine.memory_breakdown()``: where
        is every byte of model state right now?
        """
        out: dict[str, dict[str, int]] = {}

        def add(tier: str, key: str, nbytes: int) -> None:
            kind = key.rsplit(".", 1)[-1]
            out.setdefault(tier, {})
            out[tier][kind] = out[tier].get(kind, 0) + nbytes

        for key, (arr, tag) in self._mem.items():
            tier = "cpu" if getattr(tag, "is_cpu", False) else "gpu"
            add(tier, key, arr.nbytes)
        if self.store is not None:
            for key in self.store.keys():
                add("nvme", key, self.store.nbytes(key))
        return out

    def discard(self, key: str) -> None:
        with self._lock:
            inflight = self._inflight.pop(key, None)
        if inflight is not None:
            self._abandon_inflight(inflight)
        self._drop_mem(key)
        if self.store is not None:
            self.store.delete(key)

    def synchronize(self) -> None:
        if self.store is not None:
            self.store.engine.synchronize()

    def close(self) -> None:
        with self._lock:
            inflight = list(self._inflight.values())
            self._inflight.clear()
        for f in inflight:
            self._abandon_inflight(f)
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "InfinityOffloadEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
