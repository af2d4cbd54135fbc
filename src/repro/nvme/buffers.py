"""Pinned memory management layer.

Sec. 6.3: "pinned memory buffers are scarce system resources, and their
oversubscription ... can degrade overall system performance"; the layer
"manages the limited supply of pinned memory by reusing a small amount (tens
of GBs) for offloading the entire model states (up to tens of TBs)".

:class:`PinnedBufferPool` enforces a hard byte budget, satisfies acquisitions
from a free list of previously returned buffers (reuse prevents the CPU
fragmentation the paper warns about), and hands out buffers that support
in-place compute so tensors "can then be written to NVMe without any further
copies".
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.check.runtime import CheckContext, get_checker
from repro.check.static.record import get_static_recorder
from repro.faults.runtime import get_faults
from repro.obs.memscope import mem_alloc, mem_free
from repro.obs.perfscope import stall_span
from repro.obs.tracer import trace_counter


class PinnedBudgetExceeded(MemoryError):
    """Acquisition would push live pinned bytes past the pool budget."""


@dataclass
class _PoolStats:
    acquisitions: int = 0
    reuse_hits: int = 0
    peak_bytes: int = 0


class PinnedBuffer:
    """A borrowed staging buffer; return it with :meth:`release`.

    ``array`` is a view of exactly the requested element count over a
    possibly larger underlying allocation (so differently-sized requests can
    reuse the same storage).
    """

    __slots__ = ("array", "_storage", "_pool", "_released")

    def __init__(self, storage: np.ndarray, numel: int, dtype, pool) -> None:
        self._storage = storage
        self.array = storage.view(dtype)[:numel]
        self._pool = pool
        self._released = False

    @property
    def nbytes(self) -> int:
        return int(self._storage.nbytes)

    def release(self) -> None:
        if self._released:
            raise RuntimeError("pinned buffer released twice")
        self._released = True
        self._pool._give_back(self._storage)

    def __enter__(self) -> "PinnedBuffer":
        return self

    def __exit__(self, *exc) -> None:
        if not self._released:
            self.release()


class PinnedBufferPool:
    """A bounded, reusing pool of byte-addressed staging buffers.

    Buffers are stored as raw uint8 arrays and viewed at the requested dtype
    on acquisition.  ``budget_bytes`` caps the *total* live + cached bytes;
    cached (free) buffers are evicted smallest-first when a new allocation
    needs headroom.  A cached buffer serves only requests of its own size
    class (at least half its size): a few-KB prefetch never occupies the
    several-hundred-KB buffer an optimizer sub-group will ask for next.
    """

    def __init__(
        self,
        budget_bytes: int,
        *,
        alignment: int = 4096,
        check: CheckContext | None = None,
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError("budget must be positive")
        if alignment <= 0:
            raise ValueError("alignment must be positive")
        self.budget_bytes = budget_bytes
        self.alignment = alignment
        self._check = check if check is not None else get_checker()
        self._free: list[np.ndarray] = []  # sorted by nbytes ascending
        self._live_bytes = 0
        self._cached_bytes = 0
        self._lock = threading.Lock()
        self.stats = _PoolStats()

    # --- accounting --------------------------------------------------------------
    def _round(self, nbytes: int) -> int:
        a = self.alignment
        return ((nbytes + a - 1) // a) * a

    def _note_occupancy(self) -> None:
        """Peak and trace counter of the occupancy (live + cached), whose
        peak is the "how close did we come to the pinned budget" signal;
        lock held."""
        occ = self._live_bytes + self._cached_bytes
        self.stats.peak_bytes = max(self.stats.peak_bytes, occ)
        trace_counter(
            "nvme.pinned_pool_bytes", cat="nvme", live=self._live_bytes, total=occ
        )

    def fits(self, nbytes: int) -> bool:
        """Whether acquiring ``nbytes`` now stays within the budget (after
        evicting every cached buffer if need be)."""
        return self._live_bytes + self._round(nbytes) <= self.budget_bytes

    # --- acquire / release -----------------------------------------------------
    def acquire(self, numel: int, dtype=np.float32) -> PinnedBuffer:
        """Borrow a buffer holding ``numel`` items of ``dtype``.

        Raises :class:`PinnedBudgetExceeded` when the request cannot fit in
        the budget even after evicting every cached buffer — the signal that
        a caller is trying to stage more than the pinned layer allows and
        should instead stream in chunks
        (``OffloadConfig.optimizer_chunk_numel``).
        """
        rec = get_static_recorder()
        if rec is None:
            return self._acquire(numel, dtype)
        # schedule extraction: the pool lock is a named critical section;
        # the static verifier proves no rendezvous happens inside it
        rec.on_lock_acquire("pinned-pool")
        try:
            return self._acquire(numel, dtype)
        finally:
            rec.on_lock_release("pinned-pool")

    def _acquire(self, numel: int, dtype=np.float32) -> PinnedBuffer:
        want = self._round(int(numel) * np.dtype(dtype).itemsize)
        fp = get_faults()
        with self._lock:
            # Best-fit reuse within the size class: the smallest cached
            # buffer large enough, unless even that one is over twice the
            # request.  The cached->live transfer is a reservation: anything
            # that fails after it (injected exhaustion standing in for a
            # pinned-map failure) must put it back or the budget drifts.
            for i, buf in enumerate(self._free):
                if buf.nbytes >= want:
                    if buf.nbytes > 2 * want:
                        break  # sorted: every later one is larger still
                    self._free.pop(i)
                    self._cached_bytes -= buf.nbytes
                    self._live_bytes += buf.nbytes
                    try:
                        if fp is not None:
                            fp.on_event("pool.acquire", nbytes=want)
                        handed = PinnedBuffer(buf, numel, dtype, self)
                    except BaseException:
                        self._live_bytes -= buf.nbytes
                        self._cached_bytes += buf.nbytes
                        self._insert_free(buf)
                        raise
                    self.stats.acquisitions += 1
                    self.stats.reuse_hits += 1
                    self._note_occupancy()
                    return handed
            # A request that no eviction could make room for leaves the
            # cache alone: its buffers still serve the requests that fit.
            if self._live_bytes + want > self.budget_bytes:
                raise PinnedBudgetExceeded(
                    f"request for {want} bytes exceeds pinned budget"
                    f" ({self._live_bytes} live of {self.budget_bytes})"
                )
            # Evict cached buffers (smallest first) until the new allocation
            # fits.  Needing to evict means the budget is the bottleneck: the
            # wait is attributed to the pool as a pinned_wait stall.
            if (
                self._live_bytes + self._cached_bytes + want > self.budget_bytes
                and self._free
            ):
                with stall_span("pinned_wait", owner="pool", want=want):
                    while (
                        self._live_bytes + self._cached_bytes + want
                        > self.budget_bytes
                        and self._free
                    ):
                        evicted = self._free.pop(0)
                        self._cached_bytes -= evicted.nbytes
                        mem_free(
                            "pinned",
                            evicted.nbytes,
                            category="pinned",
                            owner="pool",
                        )
            # Reserve first, then allocate under a rollback guard: a raise
            # from the allocation (real MemoryError or injected fault) must
            # not leak the reserved bytes.
            self._live_bytes += want
            try:
                if fp is not None:
                    fp.on_event("pool.acquire", nbytes=want)
                storage = np.empty(want, dtype=np.uint8)  # lint: allow-rawalloc
                mem_alloc("pinned", want, category="pinned", owner="pool")
            except BaseException:
                self._live_bytes -= want
                raise
            self.stats.acquisitions += 1
            self._note_occupancy()
            return PinnedBuffer(storage, numel, dtype, self)

    def _insert_free(self, storage: np.ndarray) -> None:
        """Sorted (ascending nbytes) insert into the free list; lock held."""
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].nbytes < storage.nbytes:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, storage)

    def _give_back(self, storage: np.ndarray) -> None:
        ck = self._check
        if ck is not None and ck.races is not None:
            # a buffer returning to the pool becomes eligible for reuse;
            # in-flight I/O still targeting it is a use-after-free race
            ck.races.on_buffer_release(storage)
        with self._lock:
            self._live_bytes -= storage.nbytes
            self._cached_bytes += storage.nbytes
            self._insert_free(storage)

    def drain(self) -> None:
        """Drop all cached buffers (frees their memory)."""
        with self._lock:
            if self._cached_bytes:
                mem_free(
                    "pinned", self._cached_bytes, category="pinned", owner="pool"
                )
            self._free.clear()
            self._cached_bytes = 0
            self._note_occupancy()
