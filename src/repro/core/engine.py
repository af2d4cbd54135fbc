"""``ZeroInfinityEngine``: the public training facade.

Wires the subsystems together the way DeepSpeed's ``deepspeed.initialize``
does: communication group, offload engine, partitioner, prefetcher,
coordinator hooks, external-parameter machinery, partitioned optimizer and
loss scaling — then exposes ``train_step`` over per-rank microbatches.

The engine simulates ``world_size`` data-parallel ranks inside one process:
each rank runs its forward+backward in lockstep sequence against the single
shared (partitioned) model, collectives execute functionally across the
per-rank buffers, and the optimizer updates every rank's shard.  Numerics
are therefore *identical* to a real ZeRO-Infinity deployment modulo
reduction ordering, which the equivalence tests pin down against the
data-parallel baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from repro.check.runtime import CheckContext, context_from_config
from repro.comm.backend import CommBackend, CommPeerAbort
from repro.comm.group import ProcessGroup
from repro.core.config import OffloadDevice, ZeroConfig, ZeroStage
from repro.core.coordinator import ParameterCoordinator
from repro.core.external import (
    install_activation_introspection,
    install_parameter_interception,
)
from repro.core.offload import InfinityOffloadEngine
from repro.core.partition import ParameterPartitioner
from repro.core.prefetch import DynamicPrefetcher
from repro.core.tiling import TiledLinear
from repro.core.zero_optimizer import ZeroPartitionedAdam
from repro.faults.errors import FaultUnrecoverable
from repro.nn.init_context import PartitionedInitContext
from repro.obs import planes
from repro.obs.memscope import mem_sample
from repro.obs.perfscope import (
    PerfSummary,
    build_step_ledgers,
    summarize_ledgers,
)
from repro.obs.tracer import trace_instant, trace_span
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.optim.loss_scaler import DynamicLossScaler, StaticLossScaler

T = TypeVar("T")


@dataclass
class StepResult:
    """Outcome of one engine step."""

    losses: list[float]
    skipped: bool
    loss_scale: float

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.losses))


@dataclass
class EngineReport:
    """Data-movement and memory summary for diagnostics and benches."""

    comm_bytes_by_op: dict[str, int]
    host_link_bytes: dict[int, int]
    nvme_read_bytes: int
    nvme_write_bytes: int
    prefetch_hits: int
    prefetch_misses: int
    gathers: int
    releases: int
    pinned_peak_bytes: int
    prefetch_mispredicts: int = 0
    # Collective-call counts per op plus the bucketed-reduce counters —
    # the comm-budget numbers the regression tests assert on.
    comm_calls_by_op: dict[str, int] = None  # type: ignore[assignment]
    bucket_flushes: int = 0
    grads_bucketed: int = 0
    # Process-parallel transport per step attempted (zero on the loop
    # backend): ring exchanges, and the barrier rendezvous they cost (one
    # per slot-capacity chunk).
    exchanges_per_step: float = 0.0
    rendezvous_per_step: float = 0.0
    # Peak resident bytes per tier ("gpu"/"cpu"/"nvme"/"pinned"): from the
    # live memscope when one is enabled.  Without it only the pinned pool's
    # own peak is known; the other tiers need memscope.
    tier_peak_bytes: dict[str, int] = None  # type: ignore[assignment]
    # Resilience accounting (docs/resilience.md): how often each recovery
    # tier fired.  All zero on a healthy run.
    step_retries: int = 0  # engine-level step replays
    io_read_retries: int = 0  # aio per-block read retries
    io_write_retries: int = 0  # aio per-block write retries
    checksum_refetches: int = 0  # CRC mismatches healed by re-read
    checksum_failures: int = 0  # CRC mismatches that exhausted re-reads
    pinned_fallbacks: int = 0  # prefetches staged unpinned under pressure
    prefetch_fallbacks: int = 0  # failed prefetch reads redone sync
    abandoned_prefetch_errors: int = 0  # failed prefetches drained unused
    # Time-ledger summary (repro.obs.perfscope) when the global tracer was
    # enabled during the run: per-phase microseconds, stall attribution and
    # overlap over every traced engine:step.  Empty/zero when untraced.
    perf_steps_traced: int = 0
    perf_phase_us: dict[str, float] = None  # type: ignore[assignment]
    perf_stall_us_by_cause: dict[str, float] = None  # type: ignore[assignment]
    perf_overlap_fraction: float = 0.0
    perf_stall_fraction: float = 0.0
    perf_force_closed_spans: int = 0


def tile_oversized_linears(
    model: Module,
    *,
    threshold_numel: int,
    tile_factor: int,
    partitioner: ParameterPartitioner,
) -> None:
    """Replace every ``Linear`` above ``threshold_numel`` weight elements
    with an output-tiled :class:`TiledLinear` (memory-centric tiling).

    An already-partitioned layer is gathered, tiled and its group's shards
    discarded, so tiling composes with partition-on-init; the tiles are
    left ungrouped for the engine to group like every other module.
    """
    for _, module in model.named_modules():
        for name, child in list(module._modules.items()):
            if (
                not isinstance(child, Linear)
                or isinstance(child, TiledLinear)
                or child.weight.full_numel <= threshold_numel
            ):
                continue
            group = child.weight.group
            if group is not None:
                partitioner.gather(group)
            tiled = TiledLinear.from_linear(child, out_tiles=tile_factor)
            if group is not None:
                partitioner.free(group)
            module._modules[name] = tiled


class ZeroInfinityEngine:
    """Train a model with ZeRO-{1,2,3} partitioning and infinity offload."""

    def __init__(
        self,
        config: ZeroConfig,
        *,
        model: Optional[Module] = None,
        model_factory: Optional[Callable[[], Module]] = None,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: Optional[float] = None,
        introspect_activations: bool = False,
        comm_backend: Optional[CommBackend] = None,
    ) -> None:
        if (model is None) == (model_factory is None):
            raise ValueError("provide exactly one of model / model_factory")
        config.validate()
        self.config = config
        # A config-enabled checker gets a private context threaded through
        # every subsystem; otherwise subsystems fall back to planes.checker
        # (REPRO_CHECK / use_checker), which may be None — the no-op path.
        self.check_context: Optional[CheckContext] = (
            context_from_config(config.check) or planes.checker
        )
        self.comm = ProcessGroup(
            config.world_size, check=self.check_context, backend=comm_backend
        )
        self.offload = InfinityOffloadEngine(config.offload, check=self.check_context)
        self.partitioner = ParameterPartitioner(
            config.world_size,
            offload=self.offload,
            comm=self.comm,
            check=self.check_context,
        )

        # --- model construction / grouping ------------------------------------
        # Each module's parameters, per dtype, become one group: partitioned
        # at stage 3 — as each module's constructor returns (Sec. 7.2) —
        # and replicated below it.
        partitioned = config.stage >= ZeroStage.PARAMETERS
        self.init_context: Optional[PartitionedInitContext] = None
        if model_factory is not None:
            if partitioned:
                self.init_context = PartitionedInitContext(
                    lambda m: self.partitioner.group_module(m, partition=True)
                )
                with self.init_context:
                    model = model_factory()
            else:
                model = model_factory()
        assert model is not None
        self.model = model

        if config.tile_linear_threshold_numel is not None and config.tile_factor > 1:
            tile_oversized_linears(
                self.model,
                threshold_numel=config.tile_linear_threshold_numel,
                tile_factor=config.tile_factor,
                partitioner=self.partitioner,
            )
        self.model.name_parameters()
        for _, module in self.model.named_modules():
            self.partitioner.group_module(module, partition=partitioned)
        self.partitioner.name_groups(self.model)

        # --- overlap machinery ---------------------------------------------------
        # lookahead only ever starts NVMe reads: with every tier resident
        # there is nothing to prefetch, so no operator trace is kept
        self.prefetcher: Optional[DynamicPrefetcher] = None
        if (
            config.stage >= ZeroStage.PARAMETERS
            and config.prefetch_depth > 0
            and self.offload.can_prefetch
        ):
            self.prefetcher = DynamicPrefetcher(
                self.offload, self.partitioner, depth=config.prefetch_depth
            )

        # --- coordinator + ease-of-use machinery --------------------------------
        self.coordinator = ParameterCoordinator(
            self.model,
            config,
            partitioner=self.partitioner,
            offload=self.offload,
            comm=self.comm,
            prefetcher=self.prefetcher,
        )
        if config.stage >= ZeroStage.PARAMETERS:
            install_parameter_interception(self.model, self.coordinator)
        if introspect_activations:
            install_activation_introspection(self.model, self.coordinator)

        # --- activation checkpoint offload (Sec. 5.1.2; NVMe per Sec. 8.2) --
        if config.offload.activation_device is not OffloadDevice.NONE:
            from repro.core.act_offload import install_activation_offload

            install_activation_offload(
                self.model,
                config.offload.activation_device,
                store=self.offload.store,
            )

        # --- exception-unwind cleanup (routed through abort_step) ------------
        # A step that dies after a CheckpointedBlock's forward leaves its
        # saved checkpoint un-restored; discarding it during abort keeps
        # memscope watermarks honest across aborted steps.
        from repro.nn.checkpoint import CheckpointedBlock

        self._ckpt_blocks = [
            m for m in self.model.modules() if isinstance(m, CheckpointedBlock)
        ]
        if self._ckpt_blocks:
            self.coordinator.on_abort(self._discard_pending_checkpoints)

        # memscope owner aliases: attribution rows render module paths
        # instead of opaque g{gid} ids
        scope = planes.memscope
        if scope.enabled:
            for group in self.partitioner.groups:
                scope.alias(f"g{group.gid}", group.name)

        # --- optimizer & loss scaling ----------------------------------------------
        self.optimizer = ZeroPartitionedAdam(
            self.partitioner.groups,
            config,
            partitioner=self.partitioner,
            offload=self.offload,
            comm=self.comm,
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
            weight_decay=weight_decay,
            grad_clip=grad_clip,
        )
        if config.loss_scale is None:
            self.scaler = DynamicLossScaler()
        else:
            self.scaler = StaticLossScaler(config.loss_scale)
        self.steps_taken = 0
        self.steps_skipped = 0
        self.step_retries_used = 0

    # --- training ------------------------------------------------------------------
    def train_step(self, batches: Sequence[tuple[np.ndarray, ...]]) -> StepResult:
        """One data-parallel step over per-rank batches.

        ``len(batches)`` must equal the configured world size.  Each batch
        is the argument tuple of the model's forward — ``(ids, targets)``
        for language modeling, ``(ids, targets, mask)`` for masked LM, or
        whatever the model defines.  Gradients are averaged over ranks (as
        DDP does) and the partitioned optimizer updates every shard.
        """
        return self.train_step_accumulated([batches])

    def train_step_accumulated(
        self,
        rounds: Sequence[Sequence[tuple[np.ndarray, ...]]],
    ) -> StepResult:
        """One optimizer step over multiple gradient-accumulation rounds.

        Each round is a per-rank batch list; reduced gradients sum across
        rounds and the update divides by the round count, so the step is
        numerically the mean over every microbatch — identical to a single
        round with the concatenated batch (verified in tests).
        """
        if not rounds:
            raise ValueError("need at least one accumulation round")
        world = self.config.world_size
        for r in rounds:
            if len(r) != world:
                raise ValueError(f"each round needs {world} per-rank batches")
        with trace_span(
            "engine:step", cat="engine",
            step=self.steps_taken, rounds=len(rounds), world=world,
        ):
            return self._run_with_replay(lambda: self._train_step_traced(rounds))

    def _run_with_replay(self, attempt_fn: Callable[[], T]) -> T:
        """Run one transactional turn under the step-replay tier.

        Step replay is the last recovery tier (docs/resilience.md).  A turn
        that died of a recoverable I/O or memory fault has already been
        unwound (``abort_step`` for forward/backward, the optimizer's own
        rollback for an update), so re-running it is bit-identical to a
        clean first try.  ``FaultUnrecoverable`` is deliberately not
        retried: it marks state (a part-updated optimizer shard, an
        unhealable record) that replay cannot reconstruct.  A turn whose
        replays all fail raises ``FaultUnrecoverable`` attributed to the
        last fault (its cause).

        Under a process-parallel backend the replay is a *collective*
        decision: the faulting rank flags the abort in shared memory and
        breaks the rendezvous barrier, peers surface the break as
        ``CommPeerAbort`` (an ``OSError``, so it rides the same replay
        tier), and every rank passes through ``recover_after_abort`` before
        the bit-identical replay.  Terminal errors flag terminal so peers
        fail fast instead of waiting out their barrier timeout.
        """
        attempt = 0
        backend = self.comm.backend
        distributed = not self.comm.all_local
        while True:
            try:
                return attempt_fn()
            except FaultUnrecoverable as err:
                if distributed:
                    backend.signal_abort(terminal=True)
                self._notify_terminal(err)
                raise
            except (OSError, MemoryError) as err:
                if attempt >= self.config.step_retries:
                    if distributed:
                        backend.signal_abort(terminal=True)
                    self._notify_terminal(err)
                    # replay budget spent: resilience gives up the one way
                    # it does, attributed to the fault that outlasted it
                    raise FaultUnrecoverable(
                        f"step failed after {attempt} replay(s): {err}",
                        site=getattr(err, "site", "") or "engine.step",
                        kind=type(err).__name__,
                        key=getattr(err, "key", "") or "",
                        attempts=attempt,
                    ) from err
                if distributed:
                    # a locally-raised fault still has peers parked in a
                    # rendezvous; a CommPeerAbort means a peer already
                    # broke the barrier for us
                    if not isinstance(err, CommPeerAbort):
                        backend.signal_abort(terminal=False)
                    backend.recover_after_abort()
                attempt += 1
                self.step_retries_used += 1
                trace_instant(
                    "engine:step_retry", cat="engine",
                    attempt=attempt, error=type(err).__name__,
                )
                fr = planes.flightrec
                if fr is not None:
                    fr.record(
                        "retry",
                        "step_replay",
                        volatile=True,
                        attempt=attempt,
                        error=type(err).__name__,
                    )
            except BaseException as err:
                if distributed:
                    backend.signal_abort(terminal=True)
                self._notify_terminal(err)
                raise

    def _train_step_traced(
        self,
        rounds: Sequence[Sequence[tuple[np.ndarray, ...]]],
    ) -> StepResult:
        scale = self.scaler.loss_scale
        losses: list[float] = []
        world = self.config.world_size
        # Process-parallel mode: this process computes only its own rank's
        # forward/backward; peers run theirs concurrently.  begin_rank still
        # fires for every rank (the fault plane's site schedule and the
        # coordinator's rank bookkeeping must advance identically in every
        # process), but the compute is skipped for non-local ranks and its
        # gather-path accounting is echoed instead (see ProcessGroup docs).
        distributed = not self.comm.all_local
        live = planes.live
        fr = planes.flightrec
        self._mark("step_begin", None)
        try:
            self.coordinator.begin_accumulation()
            for ri, batches in enumerate(rounds):
                journal = None
                for rank, batch in enumerate(batches):
                    self.coordinator.begin_rank(rank)
                    if distributed and not self.comm.backend.is_local(rank):
                        continue
                    # after the locality gate: each process heartbeats (and
                    # flight-records) only the ranks it actually computes
                    if live is not None:
                        live.heartbeat(
                            rank, self.steps_taken, self._live_counts()
                        )
                    if fr is not None:
                        fr.record(
                            "phase", "forward",
                            rank=rank, step=self.steps_taken, round=ri,
                        )
                    if distributed:
                        self.comm.begin_turn_capture()
                    if self.prefetcher is not None:
                        # (begin_iteration starts this turn's first NVMe
                        # reads, local I/O a skipped turn has no use for;
                        # the index reaches a collective from it only by
                        # simple name: ndarray.view -> ... -> bucket add)
                        self.prefetcher.begin_iteration()  # lint: allow-rank-divergent-collective
                    with trace_span("engine:forward", cat="engine", rank=rank):
                        loss = self.model(*batch)
                    losses.append(float(loss))
                    if fr is not None:
                        fr.record(
                            "phase", "backward",
                            rank=rank, step=self.steps_taken, round=ri,
                        )
                    with trace_span("engine:backward", cat="engine", rank=rank):
                        # Protocol-correct rank divergence: non-local turns are
                        # skipped above, but their collective accounting is
                        # replayed to peers via echo_turns below, so every
                        # process's fingerprint stream stays aligned.
                        self.model.backward(scale)  # lint: allow-rank-divergent-collective
                        self.coordinator.end_rank_backward()  # lint: allow-rank-divergent-collective
                    if self.prefetcher is not None:
                        self.prefetcher.end_iteration()
                    if distributed:
                        journal = self.comm.end_turn_capture()
                self.coordinator.assert_no_pending()
                if distributed and journal is not None:
                    self.comm.echo_turns(journal, world - 1)
            self.coordinator.end_accumulation()
            self.coordinator.flush_grad_offload()
            if distributed:
                # Step-boundary rendezvous: the digest it carries catches
                # any rank whose step issued a diverged collective sequence,
                # and every rank's per-round losses ride it so the
                # StepResult is identical to the loop oracle's (rank-major
                # within rounds).
                per_rank = self.comm.backend.step_sync(
                    np.asarray(losses, dtype=np.float64)
                )
                losses = [
                    float(per_rank[r][i])
                    for i in range(len(rounds))
                    for r in range(world)
                ]
            if fr is not None:
                # canonical comm marker: same position in every backend's
                # schedule.  The digest itself is volatile — the loop
                # oracle's backend folds no signatures — so it cannot
                # appear in the byte-compared tail.
                fr.record("comm", "step_sync", step=self.steps_taken)
                if distributed:
                    fr.record(
                        "digest", "fingerprint", volatile=True,
                        step=self.steps_taken,
                        digest=self.comm.backend.fingerprint_digest,
                    )
            # grads carry scale * num_rounds; dividing restores the
            # microbatch mean
            grad_scale = scale * len(rounds)
            overflowed = self.optimizer.grads_overflowed() if scale != 1.0 else False
            if not overflowed:
                with trace_span("engine:optimizer", cat="engine", scale=grad_scale):
                    self.optimizer.step(grad_scale=grad_scale)
        except Exception:
            # Unwind cleanly: release gathered params, drop banked grads and
            # bucket contents, drain async writes — so the engine (and any
            # sanitizer shadow state) is step-clean for the caller's retry.
            # A failed grad-shard fetch in the overflow check precedes any
            # state mutation, and the optimizer step is transactional
            # (zero_optimizer shadow-buffers every write and rolls back on
            # fault), so a recoverable I/O/memory fault anywhere in here
            # replays bit-identically.  FaultUnrecoverable (a fault inside
            # the commit window) stays terminal via the caller's dispatch.
            self._abort_step_cleanup()
            raise
        # committed or skipped, the step is done with what it staged: the
        # dirty gradients never reach disk
        self.offload.end_step()
        if overflowed:
            self.steps_skipped += 1
            self.scaler.update(True)
            self._on_step_boundary()
            self._mark("overflow_skip", "overflow_skip")
            return StepResult(losses, skipped=True, loss_scale=scale)
        self._mark("optimizer_step", "optimizer")
        self.scaler.update(False)
        self.steps_taken += 1
        self._on_step_boundary()
        self._mark("step_end", "step_end")
        return StepResult(losses, skipped=False, loss_scale=scale)

    def _abort_step_cleanup(self) -> None:
        """Unwind an aborted step so a replay starts from a clean slate."""
        self.coordinator.abort_step()
        # gradients are not durable: the replay recomputes them, and reads
        # the parameter records again
        self.offload.end_step()
        ctx = self.check_context
        if ctx is not None:
            # record-only sweep: a raised stuck-gather would mask the
            # propagating root cause
            ctx.on_step_abort(self.coordinator.param_ids)
        # abort callbacks may have opened (and leaked) spans of their own;
        # sweep again so the trace leaves the unwind with no dangling spans
        planes.tracer.force_close_open(reason="step_abort")
        # flush telemetry sinks: a worker SIGKILLed right after this abort
        # must not leave a truncated JSONL shard behind (idempotent)
        live = planes.live
        if live is not None:
            live.flush()

    def _notify_terminal(self, err: BaseException) -> None:
        """Terminal-failure hook: flush the live plane, dump the postmortem."""
        live = planes.live
        if live is not None:
            live.on_terminal(f"{type(err).__name__}: {err}")

    def _discard_pending_checkpoints(self) -> None:
        for block in self._ckpt_blocks:
            block.discard_checkpoint()

    def _on_step_boundary(self) -> None:
        """Step-boundary checker sweep (gather leaks)."""
        ctx = self.check_context
        if ctx is not None:
            ctx.on_step_boundary(self.coordinator.param_ids)

    # --- evaluation / state access ---------------------------------------------
    def evaluate(self, *batch: np.ndarray) -> float:
        """Loss of one batch without touching gradients or optimizer."""
        was_training = self.model.training
        self.model.eval()
        try:
            rank = self.coordinator.current_rank
            self.coordinator.begin_rank(0)
            if self.prefetcher is not None:
                self.prefetcher.begin_iteration()
            loss = float(self.model(*batch))
            # no backward follows to take over what the last forwards parked
            self.coordinator.release_parked()
            if self.prefetcher is not None:
                self.prefetcher.end_iteration()
            self.coordinator.begin_rank(rank)
            # evaluation leaves caches and landed parameter records behind;
            # free them
            for m in self.model.modules():
                object.__setattr__(m, "_cache", None)
            self.offload.release_landed()
            return loss
        finally:
            self.model.train(was_training)

    def gather_state(self) -> dict[str, np.ndarray]:
        """Full (unpartitioned) copy of every parameter, by name."""
        copies: dict[int, np.ndarray] = {}
        for group in self.partitioner.groups:
            resident = group.flat is not None
            self.partitioner.gather(group)
            for p in group.params:
                copies[id(p)] = p.data.copy()
            if not resident:
                self.partitioner.release(group)
        return {name: copies[id(p)] for name, p in self.model.named_parameters()}

    # --- reporting ----------------------------------------------------------------
    def summary(self) -> str:
        """One-paragraph description of the engine configuration."""
        cfg = self.config
        off = cfg.offload
        n_params = self.model.num_parameters()
        n_tensors = len(list(self.model.named_parameters()))
        lines = [
            f"ZeroInfinityEngine: stage {int(cfg.stage)} over"
            f" {cfg.world_size} rank(s)",
            f"  model: {n_params:,} parameters in {n_tensors} tensors,"
            f" {len(self.partitioner.groups)} groups",
            f"  placement: params={off.param_device.value}"
            f" grads={off.grad_device.value}"
            f" optimizer={off.optimizer_device.value}"
            f" activations={off.activation_device.value}",
            f"  grad reduce: bucketed (capacity {cfg.reduce_bucket_numel:,} numel)",
            f"  loss scaling: "
            + (
                f"static x{cfg.loss_scale:g}"
                if cfg.loss_scale is not None
                else f"dynamic (current x{self.scaler.loss_scale:g})"
            ),
            f"  steps: {self.steps_taken} taken, {self.steps_skipped} skipped",
        ]
        if self.step_retries_used or planes.faults is not None:
            lines.append(
                f"  resilience: {self.step_retries_used} step replay(s),"
                f" {self.config.step_retries} allowed per step"
            )
        t = self._transport_per_step()
        if t:
            lines.append(
                f"  transport: {t['exchanges_per_step']:.1f} exchange(s),"
                f" {t['rendezvous_per_step']:.1f} rendezvous per step"
            )
        if self.prefetcher is not None:
            s = self.prefetcher.stats()
            lines.append(
                f"  prefetch: {s['hits']} hits, {s['misses']} misses,"
                f" {s['mispredicts']} mis-predicts"
                f" ({s['issued']} issued at depth {s['depth']})"
            )
        perf = self.perf_summary()
        if perf is not None and perf.steps:
            fr = perf.phase_fractions()
            lines.append(
                f"  time: {perf.steps} step(s) traced —"
                f" compute {fr.get('compute', 0.0):.0%},"
                f" comm {fr.get('comm', 0.0):.0%},"
                f" nvme {fr.get('nvme_io', 0.0):.0%},"
                f" stall {perf.stall_fraction():.0%},"
                f" overlap {perf.overlap_fraction():.0%}"
            )
        return "\n".join(lines)

    def report(self) -> EngineReport:
        store = self.offload.store
        return EngineReport(
            comm_bytes_by_op=dict(self.comm.stats.bytes_by_op),
            host_link_bytes=dict(self.offload.counters.host_link_bytes),
            nvme_read_bytes=self.offload.counters.nvme_read_bytes,
            nvme_write_bytes=self.offload.counters.nvme_write_bytes,
            prefetch_hits=self.offload.counters.prefetch_hits,
            prefetch_misses=self.offload.counters.prefetch_misses,
            gathers=self.coordinator.stats.gathers,
            releases=self.coordinator.stats.releases,
            pinned_peak_bytes=self.offload.pool.stats.peak_bytes,
            prefetch_mispredicts=(
                self.prefetcher.mispredicts if self.prefetcher else 0
            ),
            comm_calls_by_op=dict(self.comm.stats.calls_by_op),
            bucket_flushes=self.coordinator.bucket_store.stats.collectives,
            grads_bucketed=self.coordinator.bucket_store.stats.grads_bucketed,
            **self._transport_per_step(),
            tier_peak_bytes=self._tier_peak_bytes(),
            step_retries=self.step_retries_used,
            io_read_retries=(
                store.engine.stats.read_retries if store is not None else 0
            ),
            io_write_retries=(
                store.engine.stats.write_retries if store is not None else 0
            ),
            checksum_refetches=(
                store.checksum_refetches if store is not None else 0
            ),
            checksum_failures=(
                store.checksum_failures if store is not None else 0
            ),
            pinned_fallbacks=self.offload.counters.pinned_fallbacks,
            prefetch_fallbacks=self.offload.counters.prefetch_fallbacks,
            abandoned_prefetch_errors=(
                self.offload.counters.abandoned_prefetch_errors
            ),
            **self._perf_fields(),
        )

    def _mark(self, phase: str, flight_phase: Optional[str]) -> None:
        """Mark a step phase on the memscope, flight-recorder and live planes.

        In that order: a memscope watermark and a live sample named
        ``phase``, and a flight-recorder phase event named ``flight_phase``
        (none when it is None).  The two names differ only at the optimizer
        (``"optimizer"`` against ``"optimizer_step"``).
        """
        mem_sample(phase)
        fr = planes.flightrec
        if fr is not None and flight_phase is not None:
            fr.record("phase", flight_phase, step=self.steps_taken)
        live = planes.live
        if live is not None:
            live.emit(step=self.steps_taken, phase=phase, counts=self._live_counts())

    def _live_counts(self) -> dict[str, int]:
        """This engine's own counts for a live telemetry sample."""
        store = self.offload.store
        if store is None:
            return {"step_retries": self.step_retries_used}
        aio = store.engine
        return {
            "step_retries": self.step_retries_used,
            "io_retries": aio.stats.read_retries + aio.stats.write_retries,
            "inflight_aio": aio.queue_depth,
        }

    def _transport_per_step(self) -> dict:
        """Transport EngineReport fields (absent on an in-process backend)."""
        stats = self.comm.backend.transport_stats()
        return {
            k: stats[k]
            for k in ("exchanges_per_step", "rendezvous_per_step")
            if k in stats
        }

    def _perf_fields(self) -> dict:
        """Time-ledger EngineReport fields from the live tracer (if any)."""
        perf = self.perf_summary()
        if perf is None or not perf.steps:
            return {"perf_phase_us": {}, "perf_stall_us_by_cause": {}}
        return {
            "perf_steps_traced": perf.steps,
            "perf_phase_us": dict(perf.phase_us),
            "perf_stall_us_by_cause": dict(perf.stall_us_by_cause),
            "perf_overlap_fraction": perf.overlap_fraction(),
            "perf_stall_fraction": perf.stall_fraction(),
            "perf_force_closed_spans": perf.force_closed_spans,
        }

    def perf_summary(self) -> Optional[PerfSummary]:
        """Aggregate time ledger over the tracer's steps; None if untraced."""
        tracer = planes.tracer
        if not tracer.enabled:
            return None
        ledgers = build_step_ledgers(tracer)
        if not ledgers:
            return None
        return summarize_ledgers(ledgers, force_closed=tracer.force_closed)

    def _tier_peak_bytes(self) -> dict[str, int]:
        """Peak bytes per tier: memscope's when live, else the pool's alone."""
        scope = planes.memscope
        peaks = {}
        if scope.enabled:
            peaks = {t: scope.peak_bytes(t) for t in scope.tiers()}
        peaks.setdefault("pinned", self.offload.pool.stats.peak_bytes)
        return peaks

    # --- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        self.coordinator.remove_hooks()
        self.offload.close()

    def __enter__(self) -> "ZeroInfinityEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
