"""Partitioned mixed-precision Adam: the ZeRO optimizer step.

Each data-parallel rank updates only the optimizer state for the shards it
owns (Sec. 2): rank ``r`` holds fp32 master/momentum/variance for slice
``r`` of every parameter group (:class:`~repro.core.partition.ParamGroup`),
consumes the gradient shard the coordinator reduce-scattered to it, and
writes the updated fp16 shard back through the partitioner.

What "master" is depends on the group.  The paper's mixed-precision recipe
(Eq. 2) has an fp16 parameter and an fp32 master beside it: the
``g<id>.r<rank>.master`` record, from which Adam writes the parameter
shard cast back.  A sharded fp32 group whose shards live on the optimizer
state's tier would keep a master that is the same bytes in the same place,
so its master *is* the parameter record ``g<id>.r<rank>.param16``: Adam
updates that record where it lives and
nothing is cast back or installed.  Parameter, gradient and two moments
then hold 16 B per element where the copy made it 20, and an NVMe step
moves 12 B per element each way instead of 16: the record the step's
gathers left landed in pinned staging is taken from there
(:mod:`repro.core.offload`) and goes to its shadow record with the two
moments.  An fp16 group, a replicated (stage 1-2) one and one on another
tier than the state keep the separate master.

The update *streams* in **sub-groups**: consecutive ``(group, rank)
shards packed up to ``OffloadConfig.optimizer_chunk_numel`` elements, an
NVMe shard larger than that split into spans.  One loop serves every
placement (``OffloadConfig.optimizer_device``): sub-group ``k+1``'s master /
momentum / variance / gradient reads are in flight while ``k`` runs
``adam_step`` and ``k-1``'s write-backs drain, so staging is bounded at
three sub-groups — the Sec. 5.2.2 pattern ("bring the data from NVMe to CPU
memory ... in chunks that can fit in the CPU memory ... one chunk at a
time", with "NVMe to CPU reads [overlapping] CPU to NVMe writes").  On NVMe
a sub-group's records go down as one bulk request into one pinned staging
buffer, Adam runs on the staging views in place, and the same views are
written out again — no per-record hand-off, copy or checksum on this
thread.  A gradient the bucket flush left dirty in pinned staging is not
read at all: Adam reads it where it sits.  Resident state takes the same
loop with the stored arrays in the staging views' place: the offload
engine lends them, the tiled kernel (:func:`~repro.optim.adam.adam_step`)
updates them where they live — unscaling the gradient and writing the
low-precision parameter shard as it goes — and there is nothing left to
write back.

The step is a *transaction*.  Every durable effect is staged first — NVMe
writes land in ``.pipe`` shadow records, each in the idle one of its
record's two slot files, in-memory installs and parameter write-backs are
deferred as commit closures — and only after every fallible read/write has
drained does the commit phase promote the shadows (a metadata flip each,
no system call) and run the installs.  A recoverable I/O fault
anywhere before the commit point rolls the step back to its pre-step state
(shadows deleted, ``step`` counters restored, primaries untouched), so the
engine's step-replay tier can re-run the optimizer phase bit-identically
instead of escalating to :class:`~repro.faults.errors.FaultUnrecoverable`.
What it rolls back to depends on whether anything *can* fail: with an NVMe
tier configured, resident state is fetched as private copies (the undo log)
and committed by reference; with none there is no fault site in the phase,
so the in-place update is itself the commit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.comm.group import ProcessGroup
from repro.core.config import OffloadDevice, ZeroConfig
from repro.core.offload import InfinityOffloadEngine, Span, Staging
from repro.core.partition import ParamGroup, ParameterPartitioner
from repro.faults.errors import FaultUnrecoverable
from repro.obs.perfscope import stall_span
from repro.optim.adam import adam_step
from repro.tensor.flat import same_buffer


@dataclass
class _ShardRef:
    """Keys of one (group, rank) optimizer-state shard; ``master`` is
    ``param``, the parameter record, when that is the master."""

    master: str
    exp_avg: str
    exp_avg_sq: str
    grad: str
    param: str
    step: int = 0


class _Piece(NamedTuple):
    """A sub-group member: one (group, rank) shard, or a span of it."""

    group: ParamGroup
    rank: int
    ref: _ShardRef
    off: int
    n: int
    shard_numel: int

    @property
    def whole(self) -> bool:
        return self.n == self.shard_numel


class _SubGroup:
    """One pipeline stage: the pieces read, updated and written together."""

    __slots__ = ("pieces", "owner", "reads", "scratch")

    def __init__(self, pieces: list[_Piece]) -> None:
        self.pieces = pieces
        head = pieces[0]
        self.owner = f"g{head.group.gid}.r{head.rank}"  # stall owner
        if not head.whole:
            self.owner += f".span{head.off}"
        # the read request and the staging asked for beside it: fixed for
        # the plan's life, so built on first use (_begin_reads)
        self.reads: Optional[list[Span]] = None
        self.scratch: Optional[list[tuple[int, np.dtype]]] = None


#: sub-groups whose reads are issued ahead of the one being updated
READ_AHEAD = 1


def _unrecoverable(what: str, err: BaseException) -> FaultUnrecoverable:
    """The error for a fault past the point of no return: some shards hold
    the new step and some the old, so a replay could not be bit-identical."""
    return FaultUnrecoverable(
        f"{what} died part-way: {err}",
        site="optimizer.commit",
        kind=type(err).__name__,
    )


class _StepTxn:
    """Bookkeeping for one transactional optimizer step.

    ``window`` holds the sub-groups whose staging is still in use, as
    (stall owner, staging) pairs, oldest first: reads issued ahead, the one
    computing, and those whose shadow writes have not drained (fallible;
    all drained before the commit point).  ``shadows`` lists the primary
    keys whose shadow records exist (deleted on rollback) and ``commits``
    the phase-B actions.  Every commit action is a metadata flip or
    memory-only, so once the drain succeeds the step cannot fail on a
    recoverable I/O fault.
    """

    __slots__ = ("window", "carry", "shadows", "commits")

    def __init__(self) -> None:
        self.window: deque[tuple[str, Staging]] = deque()
        # per split shard, between its first and last span: the fp32
        # gradient, (memory-resident) the fp16 shard being assembled, and
        # the hold that keeps a dirty gradient's staging
        self.carry: dict[
            tuple[int, int], tuple[np.ndarray, np.ndarray, Optional[Staging]]
        ] = {}
        self.shadows: list[str] = []
        self.commits: list[Callable[[], None]] = []

    def drain(self, keep: int, *, barrier: bool = False) -> None:
        """Await the oldest sub-groups' shadow writes and free their staging
        until only ``keep`` remain; with read-ahead working the wait is ~0,
        so its duration IS the unhidden optimizer write tail."""
        while len(self.window) > keep:
            owner, staging = self.window[0]
            if staging.pending:  # its reads were waited on: shadow writes
                with stall_span(
                    "optimizer_io_tail",
                    owner="commit_barrier" if barrier else owner,
                    kind="write_tail" if barrier else "write",
                    req=staging.token,
                ):
                    staging.wait()
            staging.release()
            self.window.popleft()

    def rollback(self, offload: InfinityOffloadEngine) -> None:
        """Throw the step away, leaving every primary record untouched.

        In-flight reads and writes are drained tolerantly first — their
        staging must not return to the pool while I/O is pending, and the
        step is already being aborted for the root-cause fault, so
        secondary failures are counted rather than raised.
        """
        for _, staging in self.window:
            staging.abandon()
        self.window.clear()
        for _, _, hold in self.carry.values():
            if hold is not None:
                hold.release()
        self.carry.clear()
        # parameter records updated in their staging are ahead of disk
        offload.release_taken()
        for key in self.shadows:
            offload.discard_staged(key)
        self.shadows.clear()
        self.commits.clear()

    def commit(self) -> None:
        """Phase B: promote every shadow and run the in-memory installs.

        A promotion (:meth:`InfinityOffloadEngine.promote_staged`) flips
        metadata and cannot fail; what still can is an install's
        allocation.  A fault inside the commit window is not replayable
        (some shards may already be promoted), so it escalates honestly
        instead of pretending the step can be retried bit-identically.
        """
        try:
            for fn in self.commits:
                fn()
        except MemoryError as err:
            raise _unrecoverable("optimizer commit", err) from err
        self.commits.clear()
        self.shadows.clear()


class ZeroPartitionedAdam:
    """Adam over partitioned (and possibly offloaded) optimizer state."""

    STATE_KINDS = ("master", "exp_avg", "exp_avg_sq")

    def __init__(
        self,
        groups: Sequence[ParamGroup],
        config: ZeroConfig,
        *,
        partitioner: ParameterPartitioner,
        offload: InfinityOffloadEngine,
        comm: ProcessGroup,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: Optional[float] = None,
    ) -> None:
        self.groups = list(groups)
        if not self.groups:
            raise ValueError("optimizer needs at least one parameter group")
        self.config = config
        self.partitioner = partitioner
        self.offload = offload
        self.comm = comm
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._refs: dict[tuple[int, int], _ShardRef] = {}
        self._initialized = False
        # shapes, world and placement are fixed for the optimizer's life:
        # the step's layout is worked out once (_subgroups)
        self._plan: Optional[list[_SubGroup]] = None
        # Without an NVMe tier nothing in the step can fail recoverably, so
        # there is nothing to roll back to: state and parameter shards are
        # updated where they live and that update IS the commit.
        self._in_place = not offload.can_prefetch
        # With one, a memory-resident parameter shard is updated in a
        # buffer of its own until the commit installs it: one per shard,
        # kept across steps (_param_out).
        self._param_bufs: dict[tuple[int, int], np.ndarray] = {}
        # a parameter record that is its own master is taken where the
        # step's gathers landed it: from the first step on
        offload.will_take(
            [
                g.key(rank)
                for g in self.groups
                if self.master_is_param(g)
                for rank in range(self.world)
            ]
        )

    # --- layout helpers -----------------------------------------------------------
    @property
    def world(self) -> int:
        return self.config.world_size

    def _param_shard_fp32(self, group: ParamGroup, rank: int) -> np.ndarray:
        """Rank ``r``'s current parameter shard of ``group``, as fp32."""
        if group.partitioned:
            shard = self.offload.fetch(group.key(rank), rank=rank)
        else:
            shard = group.shard(group.flat, rank)
        return shard.astype(np.float32)

    def master_is_param(self, group: ParamGroup) -> bool:
        """Whether ``group``'s master is its own parameter record: a sharded
        fp32 group whose shards live on the optimizer state's tier."""
        return (
            group.partitioned
            and group.dtype == np.float32
            and group.device is self.config.offload.optimizer_device
        )

    def _param_on_nvme(self, group: ParamGroup) -> bool:
        """Whether ``group``'s parameter shards are per-rank NVMe records
        written beside the master, i.e. updated through a shadow record of
        their own."""
        return (
            group.partitioned
            and group.device is OffloadDevice.NVME
            and not self.master_is_param(group)
        )

    def _param_out(self, group: ParamGroup, rank: int) -> np.ndarray:
        """Where Adam writes rank ``r``'s updated low-precision shard, for
        a shard that lives in memory.

        With no fallible I/O in the step that is the shard's home — the
        stored shard of a partitioned group, the slice of a replicated
        one's flat buffer — and the commit-phase install finds it in place.
        With an NVMe tier it is a buffer held until the commit: the same
        one every step.  (A shard that is an NVMe record is written from
        its sub-group's staging instead: ``_update_subgroup``.)
        """
        if not self._in_place:
            ident = (group.gid, rank)
            buf = self._param_bufs.get(ident)
            if buf is None:
                buf = self._param_bufs[ident] = np.empty(
                    group.shard_numel, dtype=group.dtype
                )
            return buf
        if group.partitioned:
            return self.offload.resident(group.key(rank))
        return group.shard(group.flat, rank)

    def _install_param_shard(
        self, group: ParamGroup, rank: int, fp16: np.ndarray
    ) -> None:
        """Commit-phase install of one updated fp16 parameter shard."""
        if group.partitioned:
            self.partitioner.update_shard(group, rank, fp16)
            return
        dest = group.shard(group.flat, rank)
        if not same_buffer(dest, fp16):
            dest[...] = fp16
        # In a real cluster the updated shards are allgathered back into
        # the replicated parameters; account for that traffic.
        if rank == self.world - 1:
            self.comm.stats.record("allgather", group.nbytes)

    def _span_numel(self, group: ParamGroup) -> Optional[int]:
        """Elements per span when ``group``'s state shards stream in spans.

        An NVMe shard larger than ``optimizer_chunk_numel`` is cut into
        equal spans no longer than the chunk (a short tail span would leave
        the I/O of the full-sized ones next to it nothing to overlap);
        ``None`` for a shard that moves whole.
        """
        sn = group.shard_numel
        offload = self.config.offload
        chunk = offload.optimizer_chunk_numel
        if offload.optimizer_device is not OffloadDevice.NVME or sn <= chunk:
            return None
        spans = -(-sn // chunk)  # ceil
        return -(-sn // spans)

    def load_state(
        self, group: ParamGroup, rank: int, kind: str, array: np.ndarray
    ) -> None:
        """Install one fp32 state shard at its home tier (initialisation,
        checkpoint restore).

        On NVMe the record is checksummed in the spans the step will
        stream it back in, so the first ranged read after a whole write
        is verified like every later one.
        """
        self.offload.stash(
            getattr(self._refs[(group.gid, rank)], kind),
            array,
            self.config.offload.optimizer_device,
            rank=rank,
            crc_numel=self._span_numel(group),
        )

    # --- state lifecycle ------------------------------------------------------------
    def initialize_states(self) -> None:
        """Create fp32 master/momentum/variance shards from current params.

        A master that is the parameter record is stored again with the
        same bytes, so that on NVMe it is checksummed in the spans the step
        streams it in (:meth:`load_state`).
        """
        for group in self.groups:
            own = self.master_is_param(group)
            for rank in range(self.world):
                param = group.key(rank)
                self._refs[(group.gid, rank)] = _ShardRef(
                    master=param if own else group.key(rank, "master"),
                    exp_avg=group.key(rank, "exp_avg"),
                    exp_avg_sq=group.key(rank, "exp_avg_sq"),
                    grad=group.key(rank, "grad16"),
                    param=param,
                )
                master = self._param_shard_fp32(group, rank)
                zeros = np.zeros_like(master)
                for kind, arr in zip(self.STATE_KINDS, (master, zeros, zeros)):
                    self.load_state(group, rank, kind, arr)
        self._initialized = True

    # --- overflow check (dynamic loss scaling) ----------------------------------
    def _grad_shards(self):
        """Every stored gradient shard, as stored — to read, not to keep or
        write: a resident shard is lent, not copied."""
        for group in self.groups:
            for rank in range(self.world):
                yield self.offload.peek(group.key(rank, "grad16"), rank=rank)

    def grads_overflowed(self) -> bool:
        return not all(np.all(np.isfinite(g)) for g in self._grad_shards())

    def global_grad_norm(self, *, grad_scale: float = 1.0) -> float:
        """L2 norm over every gradient shard (== the full-gradient norm).

        Shards are disjoint and exhaustive (padding contributes zeros), so
        summing per-shard squared norms reproduces the unpartitioned norm —
        in a real deployment this is one scalar allreduce.
        """
        total = 0.0
        for g in self._grad_shards():
            total += float(np.square(g, dtype=np.float32).sum())
        return float(np.sqrt(total)) / grad_scale

    def _clipped_scale(self, grad_scale: float) -> float:
        """Fold gradient clipping into ``grad_scale`` (uniform multipliers)."""
        if self.grad_clip is None:
            return grad_scale
        norm = self.global_grad_norm(grad_scale=grad_scale)
        if norm > self.grad_clip:
            grad_scale = grad_scale * norm / self.grad_clip
        return grad_scale

    # --- the step -----------------------------------------------------------------
    def step(self, *, grad_scale: float = 1.0) -> None:
        """One partitioned Adam step over every (group, rank) shard.

        When ``grad_clip`` is set, gradients are rescaled so the *global*
        norm does not exceed it; the clip coefficient folds into
        ``grad_scale`` since both are uniform multipliers.
        """
        if not self._initialized:
            self.initialize_states()
        self._transactional_step(self._clipped_scale(grad_scale))

    def _transactional_step(self, grad_scale: float) -> None:
        """Shadow-write every update, then commit with infallible installs.

        Phase A (fallible): the sub-group pipeline.  Sub-group ``k``'s
        reads were issued while ``k-1`` computed; its Adam update runs on
        the staging views in place; its NVMe write-backs go to ``.pipe``
        shadow records as one bulk request and drain while ``k+1``
        computes; in-memory installs are deferred.  The phase ends with
        the commit-barrier drain of outstanding shadow writes.  A fault
        rolls the step back — I/O drained, shadows deleted, ``step``
        counters restored — and re-raises for the engine's replay tier.
        With no NVMe tier the phase has no fault site and updates the
        stored arrays directly; an ``OSError``/``MemoryError`` there can
        only be the host's own and is not replayable.

        Phase B (infallible): shadows are promoted, each a metadata flip
        under the store lock, and the deferred memory installs run; no
        fault-plane hook fires on this path.
        """
        txn = _StepTxn()
        step_snapshot = {key: ref.step for key, ref in self._refs.items()}
        plan = self._subgroups()
        try:
            issued = 0
            for k, group in enumerate(plan):
                while issued < len(plan) and issued <= k + READ_AHEAD:
                    ahead = plan[issued]
                    txn.window.append((ahead.owner, self._begin_reads(ahead)))
                    issued += 1
                _, staging = txn.window[-(issued - k)]
                if not staging.pending:  # resident tiers: lent or copied
                    arrays = staging.arrays
                else:
                    # the update cannot start until this sub-group's reads
                    # land; with read-ahead working this wait is ~0, so its
                    # duration IS the unhidden optimizer read tail
                    with stall_span(
                        "optimizer_io_tail",
                        owner=group.owner,
                        kind="read",
                        req=staging.token,
                    ):
                        arrays = staging.wait()
                self._update_subgroup(group, arrays, staging, grad_scale, txn)
                # keep the read-ahead and the sub-group whose writes were
                # just issued; everything older drains now
                txn.drain(issued - k)
            txn.drain(0, barrier=True)
        except BaseException as err:
            for key, step in step_snapshot.items():
                self._refs[key].step = step
            txn.rollback(self.offload)
            if self._in_place and isinstance(err, (OSError, MemoryError)):
                # shards already updated where they live cannot be replayed
                raise _unrecoverable("in-place optimizer update", err) from err
            raise
        txn.commit()

    def _subgroups(self) -> list[_SubGroup]:
        """The step's sub-group plan, in (group, rank) order.

        Consecutive shards pack into one sub-group while they fit in
        ``optimizer_chunk_numel`` elements.  A larger shard gets sub-groups
        of its own: on NVMe one per span (:meth:`_span_numel`), so staging
        stays bounded by the chunk; resident in memory it is fetched whole.
        """
        if self._plan is not None:
            return self._plan
        pack = self.config.offload.optimizer_chunk_numel
        plan: list[_SubGroup] = []
        cur: list[_Piece] = []
        cur_numel = 0
        for group in self.groups:
            sn = group.shard_numel
            span = self._span_numel(group)
            for rank in range(self.world):
                ref = self._refs[(group.gid, rank)]
                if cur and cur_numel + sn > pack:
                    plan.append(_SubGroup(cur))
                    cur, cur_numel = [], 0
                if span is not None:
                    plan.extend(
                        _SubGroup(
                            [_Piece(group, rank, ref, off, min(span, sn - off), sn)]
                        )
                        for off in range(0, sn, span)
                    )
                    continue
                cur.append(_Piece(group, rank, ref, 0, sn, sn))
                cur_numel += sn
        if cur:
            plan.append(_SubGroup(cur))
        self._plan = plan
        return plan

    def _begin_reads(self, group: _SubGroup) -> Staging:
        """Issue one sub-group's state (and gradient) reads.

        A parameter shard that is an NVMe record beside its master is
        updated into staging requested with the reads — one acquisition,
        released when the sub-group's shadow writes have drained.  A
        master that is the parameter record is read like the moments,
        or taken where the gathers landed it.
        """
        if group.reads is None:
            group.reads = []
            for piece in group.pieces:
                start, numel = (0, None) if piece.whole else (piece.off, piece.n)
                group.reads.extend(
                    Span(getattr(piece.ref, kind), piece.rank, start, numel)
                    for kind in self.STATE_KINDS
                )
                if piece.off == 0:
                    # the stored gradient, whole so its CRC is verified: a
                    # split shard's rides span 0
                    group.reads.append(Span(piece.ref.grad, piece.rank))
        if group.scratch is None:
            group.scratch = [
                (piece.n, piece.group.dtype)
                for piece in group.pieces
                if self._param_on_nvme(piece.group)
            ]
        return self.offload.fetch_async(
            group.reads, borrow=self._in_place, scratch=group.scratch
        )

    def _update_subgroup(
        self,
        group: _SubGroup,
        arrays: list[np.ndarray],
        staging: Staging,
        grad_scale: float,
        txn: _StepTxn,
    ) -> None:
        """Adam over one landed sub-group, then stage its write-backs."""
        on_nvme = self.config.offload.optimizer_device is OffloadDevice.NVME
        out_spans: list[Span] = []
        out_arrays: list[np.ndarray] = []
        landed = iter(arrays)
        scratch = iter(staging.scratch)
        for piece in group.pieces:
            pgroup, rank, ref = piece.group, piece.rank, piece.ref
            ident = (pgroup.gid, rank)
            master, exp_avg, exp_avg_sq = next(landed), next(landed), next(landed)
            param_on_nvme = self._param_on_nvme(pgroup)
            if piece.off == 0:
                ref.step += 1
                # the gradient is only ever read (the kernel rescales it
                # tile by tile), so a stored shard survives a rollback +
                # replay as it is
                grad = next(landed)
                # a master that is the parameter record leaves nothing to
                # write the parameter into
                fp16 = (
                    None
                    if param_on_nvme or ref.master == ref.param
                    else self._param_out(pgroup, rank)
                )
                if not piece.whole:
                    # a split shard's later spans read the gradient too,
                    # after this sub-group's staging is gone: a dirty one
                    # stays where it is under a hold, a resident one was
                    # fetched as a private copy, one read from disk is
                    # copied out of the staging
                    lent = self.offload.lend(ref.grad)
                    if lent is None and self.offload.resident(ref.grad) is None:
                        grad = grad.copy()
                    hold = None if lent is None else lent[1]
                    txn.carry[ident] = (grad, fp16, hold)
            else:
                grad, fp16, _ = txn.carry[ident]
            lo, hi = piece.off, piece.off + piece.n
            start, numel = (0, None) if piece.whole else (lo, piece.n)
            # an NVMe parameter shard: this span of it, in this sub-group's
            # staging, written to the shadow record with the state
            updated = None
            if param_on_nvme:
                updated = next(scratch)
            elif fp16 is not None:
                updated = fp16[lo:hi]
            adam_step(
                master,
                grad[lo:hi],
                exp_avg,
                exp_avg_sq,
                step=ref.step,
                lr=self.lr,
                beta1=self.beta1,
                beta2=self.beta2,
                eps=self.eps,
                weight_decay=self.weight_decay,
                grad_scale=grad_scale,
                param_out=updated,
            )
            state = (master, exp_avg, exp_avg_sq)
            if on_nvme:
                for kind, arr in zip(self.STATE_KINDS, state):
                    out_spans.append(Span(getattr(ref, kind), rank, start, numel))
                    out_arrays.append(arr)
            else:
                # resident state commits by reference: the arrays Adam just
                # updated become (or, borrowed, already are) the stored ones
                txn.commits.append(
                    lambda ref=ref, r=rank, state=state: [
                        self.offload.adopt(getattr(ref, kind), arr, rank=r)
                        for kind, arr in zip(self.STATE_KINDS, state)
                    ]
                )
            if param_on_nvme:
                out_spans.append(Span(ref.param, rank, start, numel))
                out_arrays.append(updated)
            if hi < piece.shard_numel:
                continue  # the shard's later spans are still to come
            hold = txn.carry.pop(ident, (None, None, None))[2]
            if hold is not None:
                hold.release()
            if fp16 is not None:
                txn.commits.append(
                    lambda g=pgroup, r=rank, a=fp16: self._install_param_shard(g, r, a)
                )
        if out_spans:
            keys = [s.key for s in out_spans if s.start == 0]
            txn.shadows.extend(keys)  # first, so a failed staging rolls back
            self.offload.stage_nvme(out_spans, out_arrays, staging)
            txn.commits.append(
                lambda keys=keys: [self.offload.promote_staged(k) for k in keys]
            )
