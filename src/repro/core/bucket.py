"""Fixed-capacity gradient buckets: the reduce path of every ZeRO stage.

ZeRO (Rajbhandari et al., 2020) and ZeRO-Offload flatten gradients into
fixed-size buckets (``reduce_bucket_size``) so the number of reduce
collectives per step is ``O(total_numel / bucket)`` instead of
``O(#parameters)``.  :class:`GradientBucketStore` brings that design to
every stage's gradients: harvested per-rank full gradients are copied into one
preallocated flat buffer per rank as they arrive — ZeRO's constant-size
fused buffer C_B; when the bucket cannot take the next gradient (or at a
step boundary) the whole bucket is reduce-scattered as **one** collective
and each group's per-rank shard is handed to the caller.  The unit is the
parameter group (:class:`~repro.core.partition.ParamGroup`): one module's
gradients go in as one entry, laid out as the group lays out its
parameters.

There is no output buffer.  Each (group, rank) shard of a flush is
reduced straight into the array the caller's ``place`` hook names for it —
the stored gradient shard, a slice of pinned staging on its way to NVMe —
and otherwise in place, into rank 0's input buffer (every tile of a
reduction is finished in scratch before it is stored, so an input may be
the output).  A gradient larger than the capacity takes the same routine
with the per-rank gradient arrays themselves as the inputs.

Layout note: entries are kept in arrival order, each padded to a multiple
of the world size, so group ``g``'s rank-``r`` shard is elements
``[off_g + r*shard_g, off_g + (r+1)*shard_g)`` of the reduction.  A real
deployment lays the bucket out rank-interleaved (every rank's
reduce-scatter slice is exactly its per-group shards — DeepSpeed's
partitioned bucket layout); elementwise reduction is layout-invariant, so
the functional simulation keeps arrival order and slices per entry.
Collective count, payload bytes and reduced values are identical either way
— which is what the bit-equivalence tests pin down against the DDP
baseline's one allreduce per parameter (``DDPTrainer``).

Under a process-parallel backend the bucket is also the unit of transport.
A rank process produces only its own rank's gradients: :meth:`add` is given
``None`` in the peers' places and banks the one gradient into the rank's own
input buffer; when a flush is due — at the same harvest in every process,
because every process banks the same entries in the same order — **one**
exchange of the filled part of that buffer lands the peers' filled parts
straight in their input buffers, and the reduce that follows runs replicated
over inputs identical to the loop backend's.  The exchange is a rendezvous,
so it happens *before* the bucket critical section, never inside it.

The store owns the gradient arrays it is given: once their contents are
copied or reduced they go back to their parameters
(:meth:`~repro.nn.parameter.Parameter.recycle_grad`) for the next backward
to write into.  Shards handed to ``on_shard`` that the caller did not place
are read-only views of a buffer the next flush overwrites; consumers that
retain them past the callback must copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.check.static.record import get_static_recorder
from repro.comm.group import ProcessGroup
from repro.core.partition import ParamGroup
from repro.nn.parameter import GRAD_RECYCLE_MIN_BYTES
from repro.obs.memscope import attributed_zeros, mem_sample
from repro.obs.perfscope import stall_span
from repro.obs.tracer import trace_counter, trace_span
from repro.tensor.flat import pad_flat, pad_to_multiple

@dataclass
class BucketStats:
    """Observable behaviour of the store: the one count of each event."""

    grads_bucketed: int = 0
    flushes: int = 0
    oversized_flushes: int = 0

    @property
    def collectives(self) -> int:
        return self.flushes + self.oversized_flushes


@dataclass
class _Entry:
    group: ParamGroup
    offset: int
    numel: int
    padded: int


class _Bucket:
    """One dtype's preallocated per-rank accumulation buffers."""

    __slots__ = ("dtype", "inputs", "entries", "fill")

    def __init__(self, dtype: np.dtype, world: int, capacity: int) -> None:
        self.dtype = dtype
        owner = f"bucket.{dtype}"
        self.inputs = [
            attributed_zeros(
                capacity, dtype, tier="gpu", category="bucket", owner=owner
            )
            for _ in range(world)
        ]
        self.entries: list[_Entry] = []
        self.fill = 0


#: One reduced shard of a flush, as the ``place`` hook sees it:
#: (group, rank, elements in the rank's shard).
ShardSpec = tuple[ParamGroup, int, int]

#: One rank's gradients of a group, one array per member (``None``: zeros).
MemberGrads = list[Optional[np.ndarray]]


class GradientBucketStore:
    """Accumulates harvested gradients and reduce-scatters them bucketed.

    Parameters
    ----------
    world_size:
        Data-parallel degree; every :meth:`add` supplies one group's
        gradients per rank (per rank computed in this process).
    capacity_numel:
        Bucket capacity in elements (``ZeroConfig.reduce_bucket_numel``),
        rounded up to a multiple of the world size.  Gradients larger than
        the capacity reduce in a dedicated one-off collective.
    comm:
        The :class:`~repro.comm.group.ProcessGroup` to reduce through.
    on_shard:
        ``on_shard(group, rank, shard)`` called for every (group, rank)
        pair of a flushed bucket, in arrival order.  ``shard`` is the array
        ``place`` named for it, else a read-only view of a reused buffer —
        copy to retain.
    place:
        ``place(shards, dtype)`` called once per flush, before the
        collective, with the flush's :data:`ShardSpec` list; returns, per
        shard, the flat array of that size and dtype to reduce it into, or
        ``None`` to reduce it in place.
    on_flush:
        Called once per flush, after its last ``on_shard``.
    """

    def __init__(
        self,
        world_size: int,
        capacity_numel: int,
        comm: ProcessGroup,
        *,
        on_shard: Callable[[ParamGroup, int, np.ndarray], None],
        place: Optional[
            Callable[[list[ShardSpec], np.dtype], list[Optional[np.ndarray]]]
        ] = None,
        on_flush: Optional[Callable[[], None]] = None,
    ) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        if capacity_numel <= 0:
            raise ValueError("capacity_numel must be positive")
        self.world = world_size
        self.capacity = pad_to_multiple(max(capacity_numel, world_size), world_size)
        self.comm = comm
        # the one rank whose gradients this process produces; None: all
        self.rank = comm.local_rank
        self.on_shard = on_shard
        self.place = place
        self.on_flush = on_flush
        self.stats = BucketStats()
        self._buckets: dict[np.dtype, _Bucket] = {}

    # --- filling ---------------------------------------------------------------
    def add(self, group: ParamGroup, grads: list[Optional[MemberGrads]]) -> None:
        """Bank one group's per-rank gradients into its bucket (``None`` for
        the ranks other processes compute).

        Flushes the bucket first if the group would not fit; an oversized
        group (padded numel > capacity) reduces immediately in its own
        collective, preserving one-collective-per-flush accounting.  Either
        way the arrays are done with on return and have gone back to their
        parameters for reuse: the caller must hold no other reference.
        """
        if len(grads) != self.world:
            raise ValueError(
                f"need {self.world} per-rank gradients, got {len(grads)}"
            )
        padded = group.padded_numel
        self.stats.grads_bucketed += 1
        flats = None
        if padded > self.capacity:
            if self.rank is not None:
                self._borrow_peer_arrays(group, grads)
            inputs = [self._flat(group, g) for g in grads]
            if self.rank is not None:
                self.comm.exchange(out=inputs, param=group.name)
            with trace_span("bucket:flush_oversized", cat="comm", numel=padded):
                self._reduce(inputs, [_Entry(group, 0, group.numel, padded)])
            if len(group.params) > 1:
                flats = inputs
            del inputs  # views of ``grads``, which must be its arrays' one holder
            self.stats.oversized_flushes += 1
        else:
            self._bank(group, grads)
        self._recycle(group, grads, flats)

    def _borrow_peer_arrays(
        self, group: ParamGroup, grads: list[Optional[MemberGrads]]
    ) -> None:
        """Fill the peers' places in ``grads`` for their copies of an
        oversized group to land in, reusing the arrays ``_recycle`` handed
        its members back: a one-member group that needs no padding lends
        its member's gradient array (else a fresh one of its shape), a
        group of several members its members' views of one peer flat
        (else, like a padded one-member group, the copy lands in a fresh
        flat, :meth:`_flat`)."""
        member = group.params[0]
        single = len(group.params) == 1
        whole = single and group.numel == group.padded_numel
        for r in range(self.world):
            if r == self.rank:
                continue
            if single and not whole:
                grads[r] = [None]
                continue
            lent = [p.grad_out() for p in group.params]
            if whole and lent[0] is None:
                lent[0] = np.empty(member.full_shape, dtype=group.dtype)  # lint: allow-rawalloc
            grads[r] = lent

    @staticmethod
    def _flat(group: ParamGroup, grads: MemberGrads) -> np.ndarray:
        """One rank's gradients of ``group`` as one flat padded array: the
        gradient itself when it is the only member and needs no padding,
        the flat buffer the members were computed in when they are its
        views (``_recycle``), else a padded copy (zeros where a member has
        none)."""
        if len(grads) == 1 and grads[0] is not None:
            return pad_flat(grads[0], group.padded_numel)
        # a member's views are only ever of its own span (``_recycle``)
        base = grads[0].base if grads[0] is not None else None
        if base is not None and all(g is not None and g.base is base for g in grads):
            return base
        flat = np.zeros(group.padded_numel, dtype=group.dtype)  # lint: allow-rawalloc
        for (lo, hi), g in zip(group.spans, grads):
            if g is not None:
                flat[lo:hi] = g.reshape(-1)
        return flat

    def _bank(self, group: ParamGroup, grads: list[Optional[MemberGrads]]) -> None:
        dtype, numel, padded = group.dtype, group.numel, group.padded_numel
        bucket = self._buckets.get(dtype)
        if bucket is None:
            bucket = self._buckets[dtype] = _Bucket(dtype, self.world, self.capacity)
        if bucket.fill + padded > self.capacity:
            # capacity-forced inline flush: the backward pass waits on the
            # collective right now instead of at the step boundary
            with stall_span(
                "bucket_flush_wait", owner=f"bucket.{dtype}", fill=bucket.fill
            ):
                self._flush_bucket(bucket)
        off = bucket.fill
        for r in range(self.world) if self.rank is None else (self.rank,):
            buf = bucket.inputs[r]
            for (lo, hi), g in zip(group.spans, grads[r]):
                if g is None:
                    buf[off + lo : off + hi] = 0
                else:
                    buf[off + lo : off + hi] = g.reshape(-1)
            if padded > numel:
                buf[off + numel : off + padded] = 0
        bucket.entries.append(_Entry(group, off, numel, padded))
        bucket.fill += padded
        trace_counter("bucket.fill_numel", cat="comm", fill=bucket.fill)

    def _recycle(
        self,
        group: ParamGroup,
        grads: list[Optional[MemberGrads]],
        flats: Optional[list[np.ndarray]] = None,
    ) -> None:
        """Give each member back the arrays its gradients arrived in.

        An oversized group of several members reduced each rank's flat
        gradient (``flats``): worth keeping, its members get their views of
        it instead, so their next gradients are computed in the very layout
        the next reduce reads and no flat is assembled again.
        """
        ck = self.comm.check
        san = None if ck is None else ck.zerosan
        for r, member in enumerate(grads):
            if member is None:
                continue
            flat = None if flats is None else flats[r]
            if flat is not None and (
                flat.nbytes < GRAD_RECYCLE_MIN_BYTES
                or not all(p.recycles for p in group.params)
            ):
                flat = None
            # by index: a loop variable would be one more holder of the array
            for i, p in enumerate(group.params):
                if flat is not None:
                    if member[i] is None or member[i].base is not flat:
                        lo, hi = group.spans[i]
                        member[i] = flat[lo:hi].reshape(p.full_shape)
                elif member[i] is None or not p.accepts_grad(member[i]):
                    continue
                # boxed for the sanitizer's reference count, which expects
                # one other holder: ``member``
                box = [member[i]]
                if san is None or san.on_grad_recycle(p, box):
                    p.recycle_grad(box.pop(), self.world)

    # --- flushing --------------------------------------------------------------
    def flush(self) -> None:
        """Reduce every partially filled bucket (step boundary)."""
        for bucket in self._buckets.values():
            self._flush_bucket(bucket)

    def _flush_bucket(self, bucket: _Bucket) -> None:
        if not bucket.entries:
            return
        n = bucket.fill
        if self.rank is not None:
            # the peers' filled parts, straight into their input buffers —
            # a rendezvous, so before the critical section, not inside it
            self.comm.exchange(
                out=[buf[:n] for buf in bucket.inputs],
                entries=len(bucket.entries),
                fill=n,
            )
        rec = get_static_recorder()
        if rec is not None:
            # schedule extraction: the flush body is the bucket critical
            # section; the static verifier proves no rendezvous inside it
            rec.on_lock_acquire("bucket")
        try:
            with trace_span(
                "bucket:flush", cat="comm", numel=n, entries=len(bucket.entries)
            ):
                self._reduce([buf[:n] for buf in bucket.inputs], bucket.entries)
        finally:
            if rec is not None:
                rec.on_lock_release("bucket")
        self.stats.flushes += 1
        bucket.entries.clear()
        bucket.fill = 0
        trace_counter("bucket.fill_numel", cat="comm", fill=0)
        mem_sample("bucket_flush")

    def _reduce(self, inputs: list[np.ndarray], entries: list[_Entry]) -> None:
        """One reduce-scatter of the per-rank flat ``inputs`` holding
        ``entries``: every shard lands where ``place`` says, else in place
        in ``inputs[0]``, and is handed to ``on_shard``."""
        world = self.world
        shards: list[ShardSpec] = [
            (e.group, r, e.padded // world) for e in entries for r in range(world)
        ]
        placed: list[Optional[np.ndarray]] = (
            self.place(shards, inputs[0].dtype)
            if self.place is not None
            else [None] * len(shards)
        )
        segments, lo = [], 0
        for (_, _, n), dest in zip(shards, placed):
            segments.append(inputs[0][lo : lo + n] if dest is None else dest)
            lo += n
        views = self.comm.reduce_scatter_into(inputs, segments, op="mean")
        for (group, rank, _), dest, view in zip(shards, placed, views):
            self.on_shard(group, rank, view if dest is None else dest)
        if self.on_flush is not None:
            self.on_flush()

    def reset(self) -> None:
        """Drop banked gradients without reducing them (aborted step)."""
        for bucket in self._buckets.values():
            for e in bucket.entries:
                for p in e.group.params:
                    p.drop_recycled_grads()
            bucket.entries.clear()
            bucket.fill = 0
