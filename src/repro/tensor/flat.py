"""Flat-buffer arithmetic used by every ZeRO partitioner.

ZeRO-3 / ZeRO-Infinity flatten each parameter group into a 1-D buffer
padded to a multiple of the data-parallel degree, then give rank ``r`` the
contiguous slice ``[r*shard, (r+1)*shard)``.  These helpers implement that arithmetic in
one audited place:

* :func:`partition_bounds` — per-rank slice boundaries (with padding);
* :func:`pad_flat` — one tensor flattened to its padded length, copy-free
  when there is nothing to pad.
"""

from __future__ import annotations

import numpy as np


def pad_to_multiple(n: int, multiple: int) -> int:
    """Smallest ``m >= n`` with ``m % multiple == 0``.

    >>> pad_to_multiple(10, 4)
    12
    >>> pad_to_multiple(8, 4)
    8
    """
    if multiple <= 0:
        raise ValueError(f"multiple must be positive, got {multiple}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return ((n + multiple - 1) // multiple) * multiple


def partition_padded_size(numel: int, world_size: int) -> int:
    """Padded total element count so every rank owns an equal shard."""
    return pad_to_multiple(numel, world_size)


def partition_bounds(numel: int, world_size: int, rank: int) -> tuple[int, int]:
    """Half-open slice ``[lo, hi)`` of the *padded* buffer owned by ``rank``.

    Bounds are clipped to ``numel`` so the caller can slice the unpadded
    buffer directly; trailing ranks may own an empty or short shard.

    >>> partition_bounds(10, 4, 3)
    (9, 10)
    """
    if not 0 <= rank < world_size:
        raise ValueError(f"rank {rank} out of range for world size {world_size}")
    shard = partition_padded_size(numel, world_size) // world_size
    lo = min(rank * shard, numel)
    hi = min(lo + shard, numel)
    return lo, hi


def pad_flat(array: np.ndarray, padded_numel: int) -> np.ndarray:
    """``array`` flattened and zero-padded to ``padded_numel`` elements.

    A buffer that already has that many elements is passed through as a
    flat view — the common case (sizes divisible by the world size) pays
    no copy; only a ragged tail costs a padded temporary.
    """
    flat = array.reshape(-1)
    if flat.size == padded_numel:
        return flat
    out = np.zeros(padded_numel, dtype=flat.dtype)
    out[: flat.size] = flat
    return out


def same_buffer(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether equally sized ``a`` and ``b`` start at the same address.

    The in-place convention of NCCL (``sendbuf == recvbuf``): a producer
    that assembled its result directly in the destination hands over that
    very memory, and the consumer has nothing to copy.
    """
    return (
        a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
    )
