"""Automated data movement via module hooks (Sec. 7.1).

The coordinator "recursively injects hooks into the submodules of a model":

* **forward-pre**: make the parameters the submodule reads resident
  (allgather), blocking until available — after notifying the prefetcher so
  lookahead fetches for future submodules are already in flight;
* **forward-post**: *park* the parameters: they stay resident until the next
  pre-hook (any submodule's, either phase), which first releases every
  parked parameter the incoming submodule does not gather itself.  A
  release the very next operator would undo is thus never performed — the
  head's forward is followed by its own backward, and a recomputing
  block's last recompute forward by that layer's backward (the model's last
  block does not recompute: its layers gather for forward and backward
  only) — and nothing new is gathered while
  a parameter is parked, so the resident peak is what eager release gives;
* **backward-pre**: gather again for the backward computation;
* **backward-post**: release, and harvest the produced gradients.

The parking rule looks at no history (not the prefetcher's trace, not the
previous step), so every rank turn of every step issues the same
collectives — the property loop ↔ mp accounting parity rests on.

Gradient harvesting runs per rank: each simulated rank's backward leaves
full gradients on the module's parameters; the coordinator banks them and,
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
rank, not how gradients move.  Parameters shared across modules
(external/tied parameters) accumulate gradients from several submodules, so
their harvest is deferred to the end-of-backward sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.comm.group import ProcessGroup
from repro.core.bucket import GradientBucketStore, ShardSpec
from repro.core.config import OffloadDevice, ZeroConfig
from repro.core.offload import InfinityOffloadEngine, Staging
from repro.core.partition import ParameterPartitioner
from repro.core.prefetch import DynamicPrefetcher
from repro.faults.runtime import get_faults
from repro.nn.module import Module
from repro.nn.parameter import Parameter, PartitionState
from repro.obs.memscope import get_memscope
from repro.obs.perfscope import stall_span
from repro.obs.tracer import get_tracer, trace_span


def grad_shard_key(param: Parameter, rank: int) -> str:
    """Offload key of the reduced fp16 gradient shard rank ``r`` owns.

    The coordinator writes these (reduce-scatter output) and the optimizer
    consumes them; both sides share this helper so the contract lives in
    one place.
    """
    return f"p{param.unique_id}.r{rank}.grad16"


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
        # parameters a forward post-hook left resident for the next
        # pre-hook to keep or release (see the module docstring)
        self._parked: list[Parameter] = []
        if prefetcher is not None:
            # the lookahead plans with the function the hooks gather by
            prefetcher.gather_params = self._module_gather_params
        self._removers: list[Callable[[], None]] = []
        # extra unwind work owned by other layers (e.g. the engine's
        # activation-checkpoint discard) runs as part of abort_step so a
        # single routing point covers every exception path
        self._abort_callbacks: list[Callable[[], None]] = []
        # param id -> list of per-rank full gradients awaiting reduction
        self._pending_grads: dict[int, list[Optional[np.ndarray]]] = {}
        self._params_by_id: dict[int, Parameter] = {}
        self._shared_param_ids: set[int] = set()
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
        owners: dict[int, int] = {}
        for module in self.model.modules():
            direct = module.direct_parameters()
            if not direct:
                continue
            for p in direct:
                owners[p.unique_id] = owners.get(p.unique_id, 0) + 1
                self._params_by_id[p.unique_id] = p
            self._removers.append(
                module.register_forward_pre_hook(self._pre_forward)
            )
            self._removers.append(module.register_forward_hook(self._post_forward))
            self._removers.append(
                module.register_backward_pre_hook(self._pre_backward)
            )
            self._removers.append(module.register_backward_hook(self._post_backward))
        self._shared_param_ids = {pid for pid, n in owners.items() if n > 1}

    def remove_hooks(self) -> None:
        for remove in self._removers:
            remove()
        self._removers.clear()

    # --- gather/release helpers ------------------------------------------------
    def _module_gather_params(self, module: Module, phase: str) -> list[Parameter]:
        """The parameters ``module`` needs resident to run ``phase``: the
        ones it says it reads plus its registered externals.

        The one source for what a pre-hook gathers, for which parked
        parameters it keeps, and for the prefetcher's plan.
        """
        params = list(module.parameters_read(phase))
        seen = {id(p) for p in params}
        for p in self.external_registry.params_for(module):
            if id(p) not in seen:
                params.append(p)
                seen.add(id(p))
        return params

    def _release(self, p: Parameter) -> None:
        if p.zero_meta is not None and p.state is PartitionState.AVAILABLE:
            with trace_span(
                "engine:release", cat="engine",
                param=p.name or p.unique_id, numel=p.full_numel,
            ):
                self.partitioner.release(p)
            self.stats.releases += 1

    def _release_module(self, module: Module) -> None:
        for p in module.direct_parameters():
            self._release(p)

    def release_parked(self, keep: Sequence[Parameter] = ()) -> None:
        """Release what forward post-hooks left resident, except ``keep``."""
        kept = {id(p) for p in keep}
        for p in self._parked:
            if id(p) not in kept:
                self._release(p)
        self._parked.clear()

    def _enter(self, module: Module, phase: str) -> None:
        """Pre-hook of either phase: out with what the incoming module does
        not use, lookahead, then in with what it is missing."""
        wanted = self._module_gather_params(module, phase)
        if self._parked:
            self.release_parked(keep=wanted)
        if self.prefetcher is not None:
            self.prefetcher.on_execute(module, phase)
        missing = [p for p in wanted if p.state is PartitionState.PARTITIONED]
        if missing:
            with trace_span(
                "engine:allgather_coalesced", cat="engine",
                params=len(missing),
                numel=sum(p.full_numel for p in missing),
            ):
                self.stats.gathers += self.partitioner.gather_coalesced(missing)
        scope = get_memscope()  # watermark right after the gather: the
        if scope.enabled:  # per-module residency high point (Eq. 4 MSWM)
            scope.sample(f"{phase}:{type(module).__name__}")

    # --- hooks ----------------------------------------------------------------
    def _pre_forward(self, module: Module, args) -> None:
        self._enter(module, "fwd")

    def _post_forward(self, module: Module, args, output):
        self._parked.extend(module.direct_parameters())
        return None

    def _pre_backward(self, module: Module, grad_output) -> None:
        self._enter(module, "bwd")

    def _post_backward(self, module: Module, grad_input) -> None:
        self._release_module(module)
        for p in module.direct_parameters():
            if p.unique_id in self._shared_param_ids:
                continue  # grads still accumulating from other owners
            self._harvest(p)

    # --- gradient harvesting ------------------------------------------------------
    def _harvest(self, param: Parameter) -> None:
        """Bank this rank's gradient; reduce when every rank contributed."""
        if param.grad is None:
            return
        rank = self.comm.local_rank
        if rank is not None:
            # Process-parallel mode: peers computed their ranks' gradients
            # in their own processes.  The bucket store banks this rank's
            # alone and fetches the peers' once per flush; the reduction
            # then runs replicated — every process executes the identical
            # reduce over identical inputs, so the result (and its
            # CommStats) is bit-identical to the loop oracle's in-process
            # banking.
            grads: list[Optional[np.ndarray]] = [None] * self.config.world_size
            grads[rank], param.grad = param.grad, None
            self._reduce_and_stash(param, grads)
            return
        pending = self._pending_grads.setdefault(
            param.unique_id, [None] * self.config.world_size
        )
        pending[self.current_rank] = param.grad
        param.grad = None
        if all(g is not None for g in pending):
            self._reduce_and_stash(param, pending)  # type: ignore[arg-type]
            del self._pending_grads[param.unique_id]

    def end_rank_backward(self) -> None:
        """End of a rank's turn: nothing stays resident for the next, and
        shared (external/tied) parameters are swept."""
        self.release_parked()
        for pid in self._shared_param_ids:
            self._harvest(self._params_by_id[pid])

    def _reduce_and_stash(self, param: Parameter, grads: list[np.ndarray]) -> None:
        """Bank per-rank gradients into the flat bucket; the reduce-scatter
        happens once per bucket flush (capacity or step boundary), which
        calls back into _stash_reduced_shard per (param, rank)."""
        with trace_span(
            "engine:grad_reduce", cat="engine",
            param=param.name or param.unique_id, numel=param.full_numel,
        ):
            self.bucket_store.add(param, grads)

    def _merges(self, key: str) -> bool:
        """Whether ``key`` already holds an earlier round's gradient that
        this one must be added to (gradient accumulation)."""
        return self.accumulating and key in self._accum_seen

    def _place_shards(
        self, shards: list[ShardSpec], dtype: np.dtype
    ) -> list[Optional[np.ndarray]]:
        """Where a bucket flush should reduce each (parameter, rank) shard:
        into the array the gradient tier keeps.

        A memory tier stores one array per shard, step after step: that
        array (stashing it afterwards moves nothing).  NVMe gets slices of
        one pinned staging acquisition, kept there when the flush ends.
        A shard that merges with an earlier round's — stored already, or
        earlier in this very flush when one bucket holds two rounds — has
        no destination: it is reduced first, then added.
        """
        keys = [grad_shard_key(p, r) for p, r, _ in shards]
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
        self, param: Parameter, rank: int, shard: np.ndarray
    ) -> None:
        """Place one reduced gradient shard (accumulating across rounds)."""
        key = grad_shard_key(param, rank)
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
        fp = get_faults()
        if fp is not None:
            # straggler injection point: a ``straggler`` rule with rank=N
            # stalls that simulated rank's turn on the virtual clock
            fp.on_event("rank.begin", rank=rank)
        self.current_rank = rank

    def assert_no_pending(self) -> None:
        """Invariant check: no half-reduced gradients across step boundaries."""
        stuck = [
            self._params_by_id[pid].name or pid
            for pid, grads in self._pending_grads.items()
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

        * every gathered (AVAILABLE) partitioned parameter is released;
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
        for p in self._params_by_id.values():
            if p.zero_meta is not None and p.state is PartitionState.AVAILABLE:
                self.partitioner.release(p)
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
        get_tracer().force_close_open(reason="abort_step")
        scope = get_memscope()
        if scope.enabled:
            scope.sample("abort_step")
        # flush live-telemetry sinks on every abort path (idempotent): a
        # rank killed right after the unwind must not leave torn shards
        from repro.obs.live import get_live

        live = get_live()
        if live is not None:
            live.flush()

    def on_abort(self, callback: Callable[[], None]) -> None:
        """Register extra cleanup to run at the end of :meth:`abort_step`."""
        self._abort_callbacks.append(callback)
