"""Automated data movement via module hooks (Sec. 7.1).

The coordinator "recursively injects hooks into the submodules of a model":

* **forward-pre**: make the parameter groups the submodule reads resident
  (one allgather per group), blocking until available — after notifying
  the prefetcher so lookahead fetches for future submodules are already in
  flight;
* **forward-post**: *park* the groups: they stay resident until the next
  pre-hook (any submodule's, either phase), which first releases every
  parked group the incoming submodule does not gather itself.  A
  release the very next operator would undo is thus never performed — the
  head's forward is followed by its own backward, and a recomputing
  block's last recompute forward by that layer's backward (the model's last
  block does not recompute: its layers gather for forward and backward
  only) — and nothing new is gathered while
  a group is parked, so the resident peak is what eager release gives;
* **backward-pre**: gather again for the backward computation;
* **backward-post**: release, and harvest the produced gradients.

The parking rule looks at no history (not the prefetcher's trace, not the
previous step), so every rank turn of every step issues the same
collectives — the property loop ↔ mp accounting parity rests on.

Gradient harvesting runs per rank and per group: each simulated rank's
backward leaves full gradients on the module's parameters; the coordinator
banks its groups' gradients and,
once every rank has contributed (at once in a rank process, which computes
one rank: the store fetches the peers' share of a bucket when it flushes),
hands them to the bucket store, whose
reduce-scatter writes each rank's shard straight into where the offload
tier keeps it — the stored shard itself for a memory tier, pinned staging
for NVMe, where the shards stay as the offload engine's dirty records for
the optimizer to read and reach disk only if the pinned pool needs their
bytes back (one bulk write per flush when its staging fell back to
unpinned memory).  Every stage takes this one
path: below stage 3 the stage changes only what the memory model charges a
rank, not how gradients move.  A group whose parameters several modules
register (external/tied parameters) accumulates gradients from several
submodules, so its harvest is deferred to the end-of-backward sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.comm.group import ProcessGroup
from repro.core.bucket import GradientBucketStore, MemberGrads, ShardSpec
from repro.core.config import OffloadDevice, ZeroConfig
from repro.core.offload import InfinityOffloadEngine, Staging
from repro.core.partition import ParamGroup, ParameterPartitioner, groups_of
from repro.core.prefetch import DynamicPrefetcher
from repro.nn.module import Module
from repro.obs import planes
from repro.obs.perfscope import stall_span
from repro.obs.tracer import trace_span


@dataclass
class CoordinatorStats:
    gathers: int = 0
    releases: int = 0


class ParameterCoordinator:
    """Installs and services the four hook points on every leaf module."""

    def __init__(
        self,
        model: Module,
        config: ZeroConfig,
        *,
        partitioner: ParameterPartitioner,
        offload: InfinityOffloadEngine,
        comm: ProcessGroup,
        prefetcher: Optional[DynamicPrefetcher] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.partitioner = partitioner
        self.offload = offload
        self.comm = comm
        self.prefetcher = prefetcher
        self.stats = CoordinatorStats()
        from repro.core.external import ExternalParameterRegistry

        self.external_registry = ExternalParameterRegistry()
        self.current_rank = 0
        # groups a forward post-hook left resident for the next pre-hook to
        # keep or release (see the module docstring)
        self._parked: list[ParamGroup] = []
        if prefetcher is not None:
            # the lookahead plans with the function the hooks gather by
            prefetcher.gather_groups = self._module_gather_groups
        self._removers: list[Callable[[], None]] = []
        # extra unwind work owned by other layers (e.g. the engine's
        # activation-checkpoint discard) runs as part of abort_step so a
        # single routing point covers every exception path
        self._abort_callbacks: list[Callable[[], None]] = []
        # group id -> per-rank member gradients awaiting reduction
        self._pending_grads: dict[int, list[Optional[MemberGrads]]] = {}
        # per hooked module (by id): the groups of its direct parameters,
        # and those its backward hook harvests
        self._direct: dict[int, list[ParamGroup]] = {}
        self._harvests: dict[int, list[ParamGroup]] = {}
        # groups harvested by the end-of-backward sweep
        self._shared: list[ParamGroup] = []
        self.param_ids: list[int] = []
        # NVMe gradient offload.  While a bucket flush runs: the shards it
        # reduced, key -> (array, rank), and the staging they sit in; when
        # it ends they stay there as dirty records, or, in unpinned
        # staging, leave as one bulk write, in flight on that staging until
        # flush_grad_offload / abort_step.
        self._flush_shards: dict[str, tuple[np.ndarray, int]] = {}
        self._flush_staging: Optional[Staging] = None
        self._grad_staging: list[Staging] = []
        # gradient accumulation (Sec. 8 workloads use multi-microbatch
        # steps): when accumulating, reduced gradients add onto the previous
        # rounds' instead of replacing them
        self.accumulating = False
        # grad-shard keys written during the current accumulation window;
        # guards against merging with stale shards from a previous step
        self._accum_seen: set[str] = set()
        # harvested gradients coalesce into fixed-capacity buckets, one
        # reduce-scatter per flush instead of one collective per parameter
        self.bucket_store = GradientBucketStore(
            config.world_size,
            config.reduce_bucket_numel,
            comm,
            on_shard=self._stash_reduced_shard,
            place=self._place_shards,
            on_flush=self._write_flush_shards,
        )
        self._install()

    # --- installation ----------------------------------------------------------
    def _install(self) -> None:
        # group id -> the modules registering its parameters
        registrars: dict[int, set[int]] = {}
        for module in self.model.modules():
            direct = module.direct_parameters()
            if not direct:
                continue
            for p in direct:
                if p.group is not None:
                    registrars.setdefault(p.group.gid, set()).add(id(module))
            self._direct[id(module)] = groups_of(direct)
            self._removers.append(
                module.register_forward_pre_hook(self._pre_forward)
            )
            self._removers.append(module.register_forward_hook(self._post_forward))
            self._removers.append(
                module.register_backward_pre_hook(self._pre_backward)
            )
            self._removers.append(module.register_backward_hook(self._post_backward))
        params = self.model.parameters()
        self.param_ids = [p.unique_id for p in params]
        # a group one module registers alone is harvested by that module's
        # backward hook; one that several share waits for the sweep
        for g in groups_of(params):
            modules = registrars[g.gid]
            if len(modules) == 1:
                self._harvests.setdefault(min(modules), []).append(g)
            else:
                self._shared.append(g)

    def remove_hooks(self) -> None:
        for remove in self._removers:
            remove()
        self._removers.clear()

    # --- gather/release helpers ------------------------------------------------
    def _module_gather_groups(self, module: Module, phase: str) -> list[ParamGroup]:
        """The groups ``module`` needs resident to run ``phase``: those of
        the parameters it says it reads plus its registered externals.

        The one source for what a pre-hook gathers, for which parked groups
        it keeps, and for the prefetcher's plan.
        """
        params = module.parameters_read(phase)
        externals = self.external_registry.params_for(module)
        return groups_of(list(params) + externals if externals else params)

    def _release(self, group: ParamGroup) -> None:
        if group.flat is not None and group.partitioned:
            with trace_span(
                "engine:release", cat="engine",
                group=group.name, numel=group.numel,
            ):
                self.partitioner.release(group)
            self.stats.releases += 1

    def release_parked(self, keep: Sequence[ParamGroup] = ()) -> None:
        """Release what forward post-hooks left resident, except ``keep``."""
        for g in self._parked:
            if all(g is not k for k in keep):
                self._release(g)
        self._parked.clear()

    def _enter(self, module: Module, phase: str) -> None:
        """Pre-hook of either phase: out with what the incoming module does
        not use, lookahead, then in with what it is missing."""
        wanted = self._module_gather_groups(module, phase)
        if self._parked:
            self.release_parked(keep=wanted)
        if self.prefetcher is not None:
            self.prefetcher.on_execute(module, phase)
        missing = [g for g in wanted if g.flat is None]
        if missing:
            with trace_span(
                "engine:allgather_coalesced", cat="engine",
                groups=len(missing),
                numel=sum(g.numel for g in missing),
            ):
                self.stats.gathers += self.partitioner.gather_coalesced(missing)
        scope = planes.memscope  # watermark right after the gather: the
        if scope.enabled:  # per-module residency high point (Eq. 4 MSWM)
            scope.sample(f"{phase}:{type(module).__name__}")

    # --- hooks ----------------------------------------------------------------
    def _pre_forward(self, module: Module, args) -> None:
        self._enter(module, "fwd")

    def _post_forward(self, module: Module, args, output):
        for g in self._direct[id(module)]:
            if all(g is not h for h in self._parked):
                self._parked.append(g)
        return None

    def _pre_backward(self, module: Module, grad_output) -> None:
        self._enter(module, "bwd")

    def _release_module(self, module: Module) -> None:
        for g in self._direct[id(module)]:
            self._release(g)

    def _post_backward(self, module: Module, grad_input) -> None:
        self._release_module(module)
        for g in self._harvests.get(id(module), ()):
            self._harvest(g)

    # --- gradient harvesting ------------------------------------------------------
    def _harvest(self, group: ParamGroup) -> None:
        """Bank this rank's gradients of ``group``; reduce when every rank
        contributed."""
        grads = [p.grad for p in group.params]
        if all(g is None for g in grads):
            return
        for p in group.params:
            p.grad = None
        rank = self.comm.local_rank
        if rank is not None:
            # Process-parallel mode: peers computed their ranks' gradients
            # in their own processes.  The bucket store banks this rank's
            # alone and fetches the peers' once per flush; the reduction
            # then runs replicated — every process executes the identical
            # reduce over identical inputs, so the result (and its
            # CommStats) is bit-identical to the loop oracle's in-process
            # banking.
            per_rank: list[Optional[MemberGrads]] = [None] * self.config.world_size
            per_rank[rank] = grads
            del grads  # the bucket store must hold the arrays' one reference
            self._reduce_and_stash(group, per_rank)
            return
        pending = self._pending_grads.setdefault(
            group.gid, [None] * self.config.world_size
        )
        pending[self.current_rank] = grads
        del grads
        if all(g is not None for g in pending):
            del self._pending_grads[group.gid]
            self._reduce_and_stash(group, pending)

    def end_rank_backward(self) -> None:
        """End of a rank's turn: nothing stays resident for the next, and
        shared (external/tied) groups are swept."""
        self.release_parked()
        for g in self._shared:
            self._harvest(g)

    def _reduce_and_stash(
        self, group: ParamGroup, grads: list[Optional[MemberGrads]]
    ) -> None:
        """Bank per-rank gradients into the flat bucket; the reduce-scatter
        happens once per bucket flush (capacity or step boundary), which
        calls back into _stash_reduced_shard per (group, rank)."""
        with trace_span(
            "engine:grad_reduce", cat="engine", group=group.name, numel=group.numel
        ):
            self.bucket_store.add(group, grads)

    def _merges(self, key: str) -> bool:
        """Whether ``key`` already holds an earlier round's gradient that
        this one must be added to (gradient accumulation)."""
        return self.accumulating and key in self._accum_seen

    def _place_shards(
        self, shards: list[ShardSpec], dtype: np.dtype
    ) -> list[Optional[np.ndarray]]:
        """Where a bucket flush should reduce each (group, rank) shard:
        into the array the gradient tier keeps.

        A memory tier stores one array per shard, step after step: that
        array (stashing it afterwards moves nothing).  NVMe gets slices of
        one pinned staging acquisition, kept there when the flush ends.
        A shard that merges with an earlier round's — stored already, or
        earlier in this very flush when one bucket holds two rounds — has
        no destination: it is reduced first, then added.
        """
        keys = [g.key(r, "grad16") for g, r, _ in shards]
        seen: set[str] = set()
        fresh = []
        for key in keys:
            fresh.append(key not in seen and not self._merges(key))
            seen.add(key)
        if self.config.offload.grad_device is not OffloadDevice.NVME:
            dests = []
            for key, f, (_, _, n) in zip(keys, fresh, shards):
                stored = self.offload.resident(key) if f else None
                fits = (
                    stored is not None
                    and stored.shape == (n,)
                    and stored.dtype == dtype
                )
                dests.append(stored if fits else None)
            return dests
        self._flush_staging = self.offload.acquire_staging(
            [n for (_, _, n), f in zip(shards, fresh) if f], dtype
        )
        staged = iter(self._flush_staging.arrays)
        return [next(staged) if f else None for f in fresh]

    def _stash_reduced_shard(
        self, group: ParamGroup, rank: int, shard: np.ndarray
    ) -> None:
        """Place one reduced gradient shard (accumulating across rounds)."""
        key = group.key(rank, "grad16")
        if self._merges(key):
            held = self._flush_shards.get(key) or self.offload.dirty(key)
            if held is not None:
                # the earlier round sits in pinned staging — reduced in this
                # same flush, or dirty since an earlier one: the sum is made
                # where it sits
                np.add(shard, held[0], out=held[0])
                return
            # the earlier round went to disk: its write must land first
            self.flush_grad_offload()
            shard = shard + self.offload.fetch(key, rank=rank)
        if self.accumulating:
            self._accum_seen.add(key)
        device = self.config.offload.grad_device
        if device is OffloadDevice.NVME:
            # the array outlives this callback — placed staging, or the
            # merged sum just made — and is placed with the rest of the flush
            self._flush_shards[key] = (shard, rank)
        else:
            self.offload.stash(key, shard, device, rank=rank)

    def _write_flush_shards(self) -> None:
        """End of a bucket flush: its NVMe-bound shards stay dirty in their
        pinned staging — the step boundary drops them — or, in unpinned
        staging, go down as one bulk write that keeps it until complete."""
        if not self._flush_shards:
            return
        keys = list(self._flush_shards)
        arrays, ranks = zip(*self._flush_shards.values())
        self._flush_shards.clear()
        staging, self._flush_staging = self._flush_staging, None
        if not staging.pinned:
            self._grad_staging.append(staging)  # abort_step lets go of it
        self.offload.stash_staged(keys, arrays, staging, rank=ranks)

    def flush_reduce_buckets(self) -> None:
        """Reduce-scatter any partially filled gradient buckets."""
        self.bucket_store.flush()

    def flush_grad_offload(self) -> None:
        """Wait for in-flight gradient writes — flushes whose staging fell
        back to unpinned memory — and let go of their staging."""
        if not self._grad_staging:
            return
        with trace_span(
            "engine:grad_flush", cat="engine", handles=len(self._grad_staging)
        ):
            # grad shards are optimizer inputs: unhidden write latency here
            # delays the optimizer step, so the wait is an I/O-tail stall
            with stall_span(
                "optimizer_io_tail",
                owner="grad_flush",
                kind="grad_write",
                handles=len(self._grad_staging),
                req=self._grad_staging[-1].token,
            ):
                for staging in self._grad_staging:
                    staging.wait()
            for staging in self._grad_staging:
                staging.release()
            self._grad_staging.clear()

    # --- accumulation lifecycle --------------------------------------------------
    def begin_accumulation(self) -> None:
        """Start a multi-microbatch step: reduced grads add across rounds."""
        self.accumulating = True
        self._accum_seen.clear()

    def end_accumulation(self) -> None:
        """Finish the step: drain buckets while still accumulating so
        flushed shards merge with prior rounds' stashes."""
        self.flush_reduce_buckets()
        self.accumulating = False

    # --- rank/iteration lifecycle ------------------------------------------------
    def begin_rank(self, rank: int) -> None:
        if not 0 <= rank < self.config.world_size:
            raise ValueError(f"rank {rank} out of range")
        fp = planes.faults
        if fp is not None:
            # straggler injection point: a ``straggler`` rule with rank=N
            # stalls that simulated rank's turn on the virtual clock
            fp.on_event("rank.begin", rank=rank)
        self.current_rank = rank

    def assert_no_pending(self) -> None:
        """Invariant check: no half-reduced gradients across step boundaries."""
        names = {g.gid: g.name for g in self.partitioner.groups}
        stuck = [
            names.get(gid, gid)
            for gid, grads in self._pending_grads.items()
            if any(g is not None for g in grads)
        ]
        if stuck:
            raise RuntimeError(
                f"gradients pending for {stuck}: some rank never ran backward"
            )

    def abort_step(self) -> None:
        """Unwind mid-step state after an exception interrupted fwd/bwd.

        An exception raised inside a module leaves parameters gathered
        (their post-hooks never ran), gradients half-banked, and async
        offload writes in flight.  This restores every invariant
        :meth:`assert_no_pending` and the step boundary rely on, so the
        next ``train_step`` starts clean instead of leaking gather buffers
        or merging stale gradients:

        * every gathered partitioned group is released;
        * gradients a partial backward left on parameters, banked per-rank
          gradients and the accumulation window are dropped (the step
          produced no update, so they are garbage and must not leak into
          a replay);
        * partially filled reduce buckets are reset without reducing;
        * in-flight gradient offload writes are drained and their staging
          returned (it must not be reused while I/O is pending), recycled
          gradient arrays dropped (the engine drops the dirty gradient
          records: ``end_step``);
        * registered abort callbacks run (activation-checkpoint discard,
          so saved-but-never-restored checkpoints cannot inflate the
          ledger watermark across aborted steps).
        """
        self._parked.clear()
        for g in self.partitioner.groups:
            self.partitioner.release(g)
            for p in g.params:
                p.grad = None
                p.drop_recycled_grads()
        self._pending_grads.clear()
        self.bucket_store.reset()
        # a failed gradient write is moot once the step is thrown away; so
        # is a flush the fault interrupted (reduced, staged, never written)
        if self._flush_staging is not None:
            self._grad_staging.append(self._flush_staging)
            self._flush_staging = None
        for staging in self._grad_staging:
            staging.abandon()
        self._grad_staging.clear()
        self._flush_shards.clear()
        self.accumulating = False
        self._accum_seen.clear()
        for cb in self._abort_callbacks:
            cb()
        # spans opened on worker threads (aio submit/pwrite) may still be
        # live when the step unwinds; commit them as aborted so the trace
        # stays well-formed and the leak is visible instead of silent
        planes.tracer.force_close_open(reason="abort_step")
        scope = planes.memscope
        if scope.enabled:
            scope.sample("abort_step")
        # flush live-telemetry sinks on every abort path (idempotent): a
        # rank killed right after the unwind must not leave torn shards
        live = planes.live
        if live is not None:
            live.flush()

    def on_abort(self, callback: Callable[[], None]) -> None:
        """Register extra cleanup to run at the end of :meth:`abort_step`."""
        self._abort_callbacks.append(callback)
