"""A fragmentation-aware allocator.

:class:`FirstFitAllocator` is an address-space allocator with first-fit
placement over a free list.  It reproduces the contiguity failure mode the
paper studies: MSWM "requires multiple gigabytes in contiguous memory, which
can result in running out of memory ... due to lack of enough contiguous
memory" (Sec. 3).  The Fig. 6b experiment pre-fragments GPU memory into 2 GB
chunks; :meth:`FirstFitAllocator.pre_fragment` implements that literally by
capping the maximum contiguous block.
"""

from __future__ import annotations

from dataclasses import dataclass


class AllocationError(MemoryError):
    """Raised when an allocation cannot be satisfied.

    Carries enough context to distinguish a capacity failure from a
    fragmentation failure, which is the distinction Fig. 6b turns on.
    """

    def __init__(self, message: str, *, requested: int, free: int, largest: int):
        super().__init__(message)
        self.requested = requested
        self.free = free
        self.largest_contiguous = largest


@dataclass(frozen=True, slots=True)
class Block:
    """A half-open byte range ``[offset, offset + size)``."""

    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size


class FirstFitAllocator:
    """First-fit allocator over a linear address space.

    Free blocks are kept address-ordered and coalesced on free.  The
    allocator is deterministic, which makes fragmentation experiments
    reproducible.
    """

    def __init__(self, capacity: int, *, alignment: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if alignment <= 0 or (alignment & (alignment - 1)):
            raise ValueError("alignment must be a positive power of two")
        self.capacity = capacity
        self.alignment = alignment
        self._free: list[Block] = [Block(0, capacity)]
        self._allocated: dict[int, Block] = {}

    # --- introspection -------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return sum(b.size for b in self._free)

    @property
    def largest_free_block(self) -> int:
        return max((b.size for b in self._free), default=0)

    def _round(self, nbytes: int) -> int:
        a = self.alignment
        return ((nbytes + a - 1) // a) * a

    # --- allocation ---------------------------------------------------------
    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` (rounded to alignment); returns the offset.

        Raises :class:`AllocationError` when no single free block is large
        enough — even if the *total* free memory would suffice.  That gap is
        precisely the fragmentation OOM of Sec. 3 / Fig. 6b.
        """
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        size = self._round(nbytes)
        for i, blk in enumerate(self._free):
            if blk.size >= size:
                self._free.pop(i)
                if blk.size > size:
                    self._free.insert(i, Block(blk.offset + size, blk.size - size))
                self._allocated[blk.offset] = Block(blk.offset, size)
                return blk.offset
        raise AllocationError(
            f"cannot allocate {size} bytes: free={self.free_bytes},"
            f" largest contiguous={self.largest_free_block}",
            requested=size,
            free=self.free_bytes,
            largest=self.largest_free_block,
        )

    def free(self, offset: int) -> None:
        """Free the block at ``offset``, coalescing with neighbours."""
        try:
            blk = self._allocated.pop(offset)
        except KeyError as e:
            raise ValueError(f"no allocation at offset {offset}") from e
        # insert address-ordered
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid].offset < blk.offset:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, blk)
        self._coalesce(lo)

    def _coalesce(self, idx: int) -> None:
        # merge with next
        if idx + 1 < len(self._free):
            cur, nxt = self._free[idx], self._free[idx + 1]
            if cur.end == nxt.offset:
                self._free[idx : idx + 2] = [Block(cur.offset, cur.size + nxt.size)]
        # merge with previous
        if idx > 0:
            prev, cur = self._free[idx - 1], self._free[idx]
            if prev.end == cur.offset:
                self._free[idx - 1 : idx + 1] = [
                    Block(prev.offset, prev.size + cur.size)
                ]

    # --- experiment support ---------------------------------------------------
    def pre_fragment(self, chunk_bytes: int) -> None:
        """Cap the largest contiguous free run at ``chunk_bytes``.

        Implements the Fig. 6b setup: "we pre fragment the total GPU memory
        into 2 GB contiguous chunks so that all memory allocation requests
        larger than 2GB will fail."  We place a one-alignment-unit pinned
        sentinel between consecutive chunks; sentinels are never freed.
        """
        if chunk_bytes <= self.alignment:
            raise ValueError("chunk size must exceed the alignment unit")
        if self._allocated:
            raise RuntimeError("pre_fragment requires a pristine allocator")
        sent = self.alignment
        new_free: list[Block] = []
        offset = 0
        while offset < self.capacity:
            run = min(chunk_bytes, self.capacity - offset)
            if run <= sent:
                break
            new_free.append(Block(offset, run))
            offset += run + sent  # sentinel hole is simply not in the free list
        self._free = new_free
