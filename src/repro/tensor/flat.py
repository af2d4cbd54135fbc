"""Flat-buffer arithmetic used by every ZeRO partitioner.

ZeRO-3 / ZeRO-Infinity flatten each parameter into a 1-D buffer padded to a
multiple of the data-parallel degree, then give rank ``r`` the contiguous
slice ``[r*shard, (r+1)*shard)``.  These helpers implement that arithmetic in
one audited place:

* :func:`partition_bounds` — per-rank slice boundaries (with padding);
* :func:`pad_flat` — one tensor flattened to its padded length, copy-free
  when there is nothing to pad;
* :func:`flatten_arrays` / :func:`unflatten_array` — round-trip a set of
  tensors through one contiguous buffer;
* :class:`FlatView` — named views into a flat buffer, used for fused
  optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def shard_size(numel: int, world_size: int) -> int:
    """Elements per rank in the padded partitioning."""
    return partition_padded_size(numel, world_size) // world_size


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


def flatten_arrays(
    arrays: Sequence[np.ndarray], *, pad_multiple: int = 1, dtype=None
) -> np.ndarray:
    """Concatenate arrays into one contiguous 1-D buffer, zero-padded.

    The ordering is the caller's; :func:`unflatten_array` reverses it given
    the original shapes.
    """
    if dtype is None:
        if not arrays:
            raise ValueError("cannot infer dtype from empty array list")
        dtype = arrays[0].dtype
    total = sum(int(a.size) for a in arrays)
    padded = pad_to_multiple(total, pad_multiple) if total else pad_multiple
    flat = np.zeros(padded, dtype=dtype)
    offset = 0
    for a in arrays:
        n = int(a.size)
        flat[offset : offset + n] = a.reshape(-1)
        offset += n
    return flat


def unflatten_array(
    flat: np.ndarray, shapes: Sequence[tuple[int, ...]]
) -> list[np.ndarray]:
    """Views into ``flat`` with the given shapes, in order.

    Returned arrays share memory with ``flat`` — mutating them mutates the
    flat buffer, which is exactly what the fused optimizer relies on.
    """
    out = []
    offset = 0
    for shape in shapes:
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if offset + n > flat.size:
            raise ValueError(
                f"shapes require {offset + n} elements, flat buffer has {flat.size}"
            )
        out.append(flat[offset : offset + n].reshape(shape))
        offset += n
    return out


@dataclass
class FlatView:
    """Named, shaped views over one flat buffer.

    >>> fv = FlatView.build([("w", (2, 3)), ("b", (3,))], dtype=np.float32)
    >>> fv["w"].shape
    (2, 3)
    """

    buffer: np.ndarray
    views: dict[str, np.ndarray]

    @staticmethod
    def build(
        specs: Sequence[tuple[str, tuple[int, ...]]],
        *,
        dtype=np.float32,
        pad_multiple: int = 1,
    ) -> "FlatView":
        total = sum(int(np.prod(s, dtype=np.int64)) if s else 1 for _, s in specs)
        padded = pad_to_multiple(max(total, 1), pad_multiple)
        buffer = np.zeros(padded, dtype=dtype)
        views: dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in specs:
            if name in views:
                raise ValueError(f"duplicate view name {name!r}")
            n = int(np.prod(shape, dtype=np.int64)) if shape else 1
            views[name] = buffer[offset : offset + n].reshape(shape)
            offset += n
        return FlatView(buffer, views)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.views[name]

    def __contains__(self, name: str) -> bool:
        return name in self.views

    @property
    def numel(self) -> int:
        return int(self.buffer.size)
