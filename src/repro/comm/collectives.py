"""Functional collectives over per-rank numpy buffers.

Each function takes (and returns) a list indexed by rank and computes the
exact result the corresponding MPI/NCCL collective would produce.  They are
pure (inputs are never mutated) and shape-checked, because partition bugs in
ZeRO engines almost always surface as silent shape/ordering mistakes here.

Following the mpi4py convention for buffer collectives, inputs must be numpy
arrays, and every rank contributes the same element count (and, to a
gather, the same dtype): a call whose ranks disagree is refused with a
``ValueError``, which for a gather names every rank's payload.

Every collective records a ``cat="comm"`` span (op, world size, payload
bytes) on the global tracer, so traced runs show exactly which transfers
overlap which compute — a no-op attribute check when tracing is off.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.obs.tracer import trace_span


def _check_world(buffers: Sequence[np.ndarray]) -> int:
    if not buffers:
        raise ValueError("collective needs at least one rank")
    return len(buffers)


def _check_agree(op: str, flats: Sequence[np.ndarray]) -> None:
    """Refuse a call whose ranks disagree on dtype or element count."""
    dtype, size = flats[0].dtype, flats[0].size
    if all(f.dtype == dtype and f.size == size for f in flats):
        return
    per_rank = ", ".join(
        f"rank{r}=({f.dtype}, {f.size})" for r, f in enumerate(flats)
    )
    raise ValueError(
        f"{op}: ranks disagree on the payload ({per_rank}); every rank must"
        " contribute the same dtype and element count"
    )


def broadcast(buffers: Sequence[np.ndarray | None], root: int) -> list[np.ndarray]:
    """Every rank receives a read-only view of one copy of the root's buffer.

    One private copy is taken (so later writes to the root's buffer do not
    retroactively change what was broadcast) and all ranks share read-only
    views of it — O(1) copies instead of O(world).  Callers that need a
    mutable result copy their view, exactly as after a real broadcast into
    symmetric memory.
    """
    world = len(buffers)
    if not 0 <= root < world:
        raise ValueError(f"root {root} out of range for world {world}")
    src = buffers[root]
    if src is None:
        raise ValueError("root buffer must not be None")
    with trace_span("comm:broadcast", cat="comm", world=world, bytes=int(src.nbytes)):
        full = np.ascontiguousarray(src).reshape(-1).copy()
        view = readonly_slice(full, 0, full.size).reshape(src.shape)
        return [view for _ in range(world)]


def allgather(shards: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Every rank receives the rank-order concatenation of all shards.

    Each shard is flattened.  The concatenation is materialised **once**
    and every rank receives a read-only view of it (no per-rank
    ``full.copy()`` — O(world) redundant memcpy saved); callers that need
    a mutable result copy their view.
    """
    world = _check_world(shards)
    flats = [np.asarray(s).reshape(-1) for s in shards]
    _check_agree("allgather", flats)
    payload = sum(int(f.nbytes) for f in flats)
    with trace_span("comm:allgather", cat="comm", world=world, bytes=payload):
        full = np.concatenate(flats)
        view = readonly_slice(full, 0, full.size)
        return [view for _ in range(world)]


def readonly_slice(owner: np.ndarray, start: int, count: int) -> np.ndarray:
    """A zero-copy read-only view of ``owner[start:start+count]``.

    A plain ``view.flags.writeable = False`` is not enough: numpy collapses
    view chains, so ``view[lo:hi].base`` is the original *writable* owner
    and ``shard.base[...] = x`` silently mutates shared memory.  Building
    the view over a read-only ``memoryview`` instead makes the whole base
    chain immutable — writes through ``.base`` raise ``TypeError`` and
    ``flags.writeable = True`` is refused by numpy — while the view still
    aliases ``owner`` (``np.shares_memory`` holds and owner updates remain
    visible), which is exactly the symmetric-memory discipline a zero-copy
    collective imposes.
    """
    if not owner.flags.c_contiguous:
        raise ValueError("readonly_slice requires a C-contiguous owner buffer")
    return np.frombuffer(
        memoryview(owner).toreadonly(),
        dtype=owner.dtype,
        count=count,
        offset=start * owner.itemsize,
    )


def allgather_into(shards: Sequence[np.ndarray], out: np.ndarray) -> list:
    """Zero-copy allgather: concatenate shards into a caller-owned buffer.

    Unlike :func:`allgather`, which materialises one full copy per rank,
    the rank-order concatenation is written once into ``out`` (a flat,
    reusable buffer of at least the total shard size) and every rank
    receives a read-only view of the same memory.  In the single-process
    simulation all ranks genuinely share the buffer; callers that need a
    private mutable copy must take one — exactly the discipline a real
    symmetric-memory collective imposes.
    """
    world = _check_world(shards)
    flats = [np.asarray(s).reshape(-1) for s in shards]
    _check_agree("allgather_into", flats)
    total = sum(f.size for f in flats)
    if out.ndim != 1 or out.size < total or not out.flags.c_contiguous:
        raise ValueError(
            f"allgather_into needs a flat contiguous out buffer of >="
            f" {total} elements, got shape {out.shape}"
        )
    payload = sum(int(f.nbytes) for f in flats)
    with trace_span("comm:allgather", cat="comm", world=world, bytes=payload):
        view = _gather_into(flats, out)
        return [view for _ in range(world)]


def _gather_into(flats: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """``out[:total] =`` the concatenation of ``flats``; a read-only view of it."""
    offset = 0
    base_ptr = out.__array_interface__["data"][0]
    itemsize = out.itemsize
    for f in flats:
        # NCCL-style in-place allgather: a shard that already *is* the
        # right slice of ``out`` (sendbuf == recvbuf + offset) is not
        # copied — callers may assemble shards directly in the buffer
        if not (
            f.dtype == out.dtype
            and f.__array_interface__["data"][0] == base_ptr + offset * itemsize
        ):
            out[offset : offset + f.size] = f
        offset += f.size
    return readonly_slice(out, 0, offset)


#: Elements per accumulator tile of the reductions: small enough that the
#: tile and the slices summed into it stay in cache between passes.
_TILE_NUMEL = 1 << 15


def _scratch_tile(n: int) -> np.ndarray:
    """The fp32 accumulator tile for reductions of up to ``n`` elements."""
    return np.empty(max(1, min(n, _TILE_NUMEL)), dtype=np.float32)


def _reduce_tiles(
    flats: Sequence[np.ndarray], out: np.ndarray, op: str, acc: np.ndarray
) -> None:
    """``out[:] =`` the elementwise ``op`` of ``flats``, tile by tile.

    Per element the arithmetic is that of a whole-buffer accumulator —
    ``0 + f0 + f1 + ...`` in ``acc``'s dtype, divided by the world size for
    ``"mean"``, cast to ``out``'s dtype — without the buffer: one reusable
    tile, ``acc``, is all the scratch a reduction of any size needs.  A
    tile is finished in the scratch before it is stored, so ``out`` may be
    one of ``flats``.
    """
    n = out.size
    accum_dtype = acc.dtype
    for lo in range(0, n, acc.size):
        hi = min(lo + acc.size, n)
        tile = acc[: hi - lo]
        tile[...] = 0
        for f in flats:
            np.add(tile, f[lo:hi], out=tile, dtype=accum_dtype)
        if op == "mean":
            tile /= len(flats)
        out[lo:hi] = tile


def reduce_scatter_into(
    buffers: Sequence[np.ndarray],
    out: np.ndarray | Sequence[np.ndarray],
    *,
    op: str = "sum",
) -> list[np.ndarray]:
    """Zero-copy reduce-scatter into caller-owned memory.

    The elementwise reduction of ``buffers`` is written once into ``out``
    (flat, at least their size) and rank ``r`` receives a read-only view of
    its shard ``out[r*n/p : (r+1)*n/p]`` — no fresh allocation per rank.

    Segment form (the reduce side of the in-place :func:`allgather_into`):
    ``out`` is a list of flat destination arrays that tile the reduced
    buffer in order — segment ``i`` receives the elements after those of
    segments ``0..i-1`` — so every piece of a fused buffer lands where its
    consumer keeps it, in one collective.  A destination may be the
    matching slice of ``buffers[0]`` itself (reduced in place).  Returns
    one read-only view per segment.
    """
    world = _check_world(buffers)
    flats = [np.asarray(b).reshape(-1) for b in buffers]
    n = flats[0].size
    for f in flats:
        if f.size != n:
            raise ValueError("reduce_scatter buffers must share a size")
    if n % world:
        raise ValueError(f"reduce_scatter needs size % world == 0: {n} % {world}")
    if op not in ("sum", "mean"):
        raise ValueError(f"unsupported reduction op {op!r}")
    segmented = not isinstance(out, np.ndarray)
    if segmented:
        segments = list(out)
        if any(s.ndim != 1 or not s.flags.c_contiguous for s in segments) or (
            sum(s.size for s in segments) != n
        ):
            raise ValueError(
                f"reduce_scatter_into needs flat contiguous segments tiling"
                f" {n} elements, got sizes {[s.shape for s in segments]}"
            )
    else:
        if out.ndim != 1 or out.size < n or not out.flags.c_contiguous:
            raise ValueError(
                f"reduce_scatter_into needs a flat contiguous out buffer of >="
                f" {n} elements, got shape {out.shape}"
            )
        shard = n // world
        segments = [out[r * shard : (r + 1) * shard] for r in range(world)]
    payload = sum(int(f.nbytes) for f in flats)
    with trace_span(
        "comm:reduce_scatter", cat="comm", world=world, bytes=payload, op=op
    ):
        acc = _scratch_tile(n)
        lo = 0
        for seg in segments:
            hi = lo + seg.size
            _reduce_tiles([f[lo:hi] for f in flats], seg, op, acc)
            lo = hi
        return [readonly_slice(seg, 0, seg.size) for seg in segments]


def gather(shards: Sequence[np.ndarray], root: int) -> list[np.ndarray | None]:
    """Root receives the concatenation; other ranks receive ``None``."""
    world = _check_world(shards)
    if not 0 <= root < world:
        raise ValueError(f"root {root} out of range for world {world}")
    flats = [np.asarray(s).reshape(-1) for s in shards]
    _check_agree("gather", flats)
    payload = sum(int(f.nbytes) for f in flats)
    with trace_span("comm:gather", cat="comm", world=world, bytes=payload):
        full = np.concatenate(flats)
        return [full if r == root else None for r in range(world)]


def scatter(full: np.ndarray, world: int, root: int = 0) -> list[np.ndarray]:
    """Split the root's buffer into ``world`` equal shards, one per rank."""
    flat = np.asarray(full).reshape(-1)
    if flat.size % world:
        raise ValueError(
            f"scatter requires size divisible by world: {flat.size} % {world}"
        )
    shard = flat.size // world
    with trace_span("comm:scatter", cat="comm", world=world, bytes=int(flat.nbytes)):
        return [flat[r * shard : (r + 1) * shard].copy() for r in range(world)]


def allreduce(
    buffers: Sequence[np.ndarray], *, op: str = "sum"
) -> list[np.ndarray]:
    """Every rank receives the elementwise reduction of all buffers.

    Reduction accumulates in fp32 then casts back — matching
    NCCL's behaviour for fp16 allreduce where accumulation error would
    otherwise destroy convergence.
    """
    world = _check_world(buffers)
    shape = buffers[0].shape
    for b in buffers:
        if b.shape != shape:
            raise ValueError("allreduce buffers must share a shape")
    if op not in ("sum", "mean", "max"):
        raise ValueError(f"unsupported reduction op {op!r}")
    payload = sum(int(b.nbytes) for b in buffers)
    with trace_span("comm:allreduce", cat="comm", world=world, bytes=payload, op=op):
        if op == "max":
            acc = np.maximum.reduce(
                [b.astype(np.float32, copy=False) for b in buffers]
            )
        else:
            acc = np.zeros(shape, dtype=np.float32)
            for b in buffers:
                acc += b.astype(np.float32, copy=False)
            if op == "mean":
                acc /= world
        out_dtype = buffers[0].dtype
        return [acc.astype(out_dtype) for _ in range(world)]


def reduce_scatter(
    buffers: Sequence[np.ndarray], *, op: str = "sum"
) -> list[np.ndarray]:
    """Rank ``r`` receives shard ``r`` of the elementwise reduction.

    Buffers are flattened; their length must divide evenly by the world
    size (callers pad with :func:`repro.tensor.flat.pad_to_multiple`).
    """
    world = _check_world(buffers)
    flats = [np.asarray(b).reshape(-1) for b in buffers]
    n = flats[0].size
    for f in flats:
        if f.size != n:
            raise ValueError("reduce_scatter buffers must share a size")
    if n % world:
        raise ValueError(f"reduce_scatter needs size % world == 0: {n} % {world}")
    if op not in ("sum", "mean"):
        raise ValueError(f"unsupported reduction op {op!r}")
    payload = sum(int(f.nbytes) for f in flats)
    with trace_span(
        "comm:reduce_scatter", cat="comm", world=world, bytes=payload, op=op
    ):
        shard = n // world
        acc = _scratch_tile(shard)
        shards = []
        for r in range(world):
            mine = np.empty(shard, dtype=flats[0].dtype)
            _reduce_tiles(
                [f[r * shard : (r + 1) * shard] for f in flats], mine, op, acc
            )
            shards.append(mine)
        return shards
