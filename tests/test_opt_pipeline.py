"""Property tests for the overlapped optimizer pipeline.

The exactness contract: the sub-group pipeline's result must not depend on
the chunk size — a fraction of a shard, one shard or several per sub-group,
or the whole model in one sub-group, where there is nothing to read ahead
of and no span — and must be bit-identical to plain data parallelism, for
any world, stage and overflow-skip pattern: chunking and overlap are pure
scheduling, never arithmetic.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    OffloadConfig,
    OffloadDevice,
    Strategy,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.core.config import config_for_strategy
from repro.nn import GPTModel, TransformerConfig
from repro.utils.rng import seeded_rng
from repro.workloads import MarkovCorpus, per_rank_batches
from repro.workloads.calibrate import CalibSpec, run_training, state_digest
from tests.helpers import ddp_state

SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --- chunked pipeline vs one sub-group vs data parallel -----------------------
#: at or above the model's numel: every shard packs into a single sub-group
ONE_SUBGROUP = 1 << 20

_DP_RUNS: dict = {}
_WHOLE_RUNS: dict = {}


def _one_subgroup_run(**base):
    """The run every chunked one is compared against: one sub-group."""
    key = tuple(sorted(base.items()))
    if key not in _WHOLE_RUNS:
        _WHOLE_RUNS[key] = run_training(
            CalibSpec(**base, offload="nvme", chunk_numel=ONE_SUBGROUP)
        )
    return _WHOLE_RUNS[key]


def _data_parallel_run(world: int, steps: int):
    """The CalibSpec workload under plain data parallelism: (losses, digest)."""
    key = (world, steps)
    if key not in _DP_RUNS:
        spec = CalibSpec(world=world, steps=steps)
        model_cfg = TransformerConfig(
            num_layers=spec.layers,
            hidden_dim=spec.hidden,
            num_heads=4,
            vocab_size=spec.vocab,
            max_seq=spec.seq,
            activation_checkpointing=True,
        )
        config = config_for_strategy(
            Strategy.DATA_PARALLEL, world_size=world, loss_scale=1.0
        )
        data = per_rank_batches(
            MarkovCorpus(spec.vocab, seed=1),
            world_size=world,
            bsz_per_rank=spec.bsz_per_rank,
            seq=spec.seq,
            seed=2,
        )
        with ZeroInfinityEngine(
            config,
            model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(0)),
            lr=5e-3,
        ) as eng:
            losses = [list(eng.train_step(next(data)).losses) for _ in range(steps)]
            _DP_RUNS[key] = (losses, state_digest(eng.gather_state()))
    return _DP_RUNS[key]


# Per-rank shards of the CalibSpec model run from 8 elements (a layernorm
# at world 4) to 4096 (an MLP weight at world 1): 13 and 97 split most
# shards into spans, 1024-4096 put one to a few shards in a sub-group,
# 1 << 20 puts every shard of the model in one.
CHUNKS = st.sampled_from([13, 97, 1024, 1536, 4096, 1 << 20]) | st.integers(
    min_value=13, max_value=4096
)


class TestPipelineBitExact:
    @settings(max_examples=8, **SETTINGS)
    @given(
        chunk=CHUNKS,
        world=st.sampled_from([1, 2, 4]),
        stage=st.sampled_from([2, 3]),
    )
    def test_invariant_to_chunk_size_and_matches_data_parallel(
        self, chunk, world, stage
    ):
        base = dict(world=world, steps=2, stage=stage)
        whole = _one_subgroup_run(**base)
        piped = run_training(
            CalibSpec(**base, offload="nvme", chunk_numel=chunk)
        )
        assert piped.numerics() == whole.numerics()
        dp_losses, dp_digest = _data_parallel_run(world, 2)
        assert piped.losses == dp_losses
        assert piped.state_digest == dp_digest

    def test_the_reference_plan_is_one_subgroup(self):
        """``ONE_SUBGROUP`` leaves nothing to read ahead of and no span,
        while the chunked side really is split."""
        from repro.workloads.calibrate import build_engine

        def plan(chunk):
            spec = CalibSpec(
                world=2, steps=1, stage=3, offload="nvme", chunk_numel=chunk
            )
            with build_engine(spec) as eng:
                eng.optimizer.initialize_states()
                return eng.optimizer._subgroups()

        (only,) = plan(ONE_SUBGROUP)
        assert all(piece.whole for piece in only.pieces)
        chunked = plan(97)
        assert len(chunked) > len(only.pieces)
        assert any(not piece.whole for g in chunked for piece in g.pieces)


# --- overflow-skip schedules --------------------------------------------------
VOCAB = 64


def _model_factory():
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=32, num_heads=4, vocab_size=VOCAB, max_seq=16
    )
    return GPTModel(cfg, rng=seeded_rng(7))


def _scheduled_run(schedule, *, chunk):
    """Train with a forced overflow-skip schedule; returns the trajectory.

    ``loss_scale=2.0`` makes the engine consult ``grads_overflowed`` each
    step; replacing it with the schedule exercises the skip branch
    deterministically.
    """
    cfg = ZeroConfig(
        world_size=2,
        stage=ZeroStage.PARAMETERS,
        offload=OffloadConfig(
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
            optimizer_chunk_numel=chunk,
        ),
        loss_scale=2.0,
    )
    rng = seeded_rng(3)
    batches = [
        [
            (
                rng.integers(0, VOCAB, size=(2, 8)),
                rng.integers(0, VOCAB, size=(2, 8)),
            )
            for _ in range(2)
        ]
        for _ in range(len(schedule))
    ]
    with ZeroInfinityEngine(cfg, model_factory=_model_factory, lr=1e-2) as eng:
        flags = iter(schedule)
        eng.optimizer.grads_overflowed = lambda: next(flags)  # type: ignore[method-assign]
        losses, skipped = [], []
        for b in batches:
            result = eng.train_step(b)
            losses.append(list(result.losses))
            skipped.append(result.skipped)
        state = eng.gather_state()
    return losses, skipped, state


class TestOverflowSchedules:
    @settings(max_examples=4, **SETTINGS)
    @given(schedule=st.lists(st.booleans(), min_size=2, max_size=4))
    def test_chunk_invariant_under_skip_schedule(self, schedule):
        whole = _scheduled_run(schedule, chunk=ONE_SUBGROUP)
        piped = _scheduled_run(schedule, chunk=97)
        assert piped[1] == schedule, "skip pattern must follow the schedule"
        assert whole[0] == piped[0], "losses diverged"
        assert whole[2].keys() == piped[2].keys()
        for name, ref in whole[2].items():
            assert np.array_equal(piped[2][name], ref), name


# --- no optimizer-owned blocking fetches ---------------------------------------
class TestNoBlockingOptimizerFetches:
    """The optimizer's reads are issued ahead by the pipeline, in bulk: a
    steady-state NVMe step takes no demand fetch on their account.  What
    is left of ``prefetch_misses`` belongs to the parameter prefetcher
    (the first module of each rank's turn, a tied weight used twice
    inside its lookahead window) and stays below one per module."""

    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_steady_state_misses_are_the_prefetchers_alone(self, world):
        model_cfg = TransformerConfig(
            num_layers=3, hidden_dim=32, num_heads=4, vocab_size=VOCAB,
            max_seq=16,
        )
        nvme = OffloadDevice.NVME
        cfg = ZeroConfig(
            world_size=world,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=nvme,
                grad_device=nvme,
                optimizer_device=nvme,
                optimizer_chunk_numel=1024,  # spans, single shards and packs
            ),
            loss_scale=1.0,
        )
        rng = seeded_rng(3)

        def batch():
            return [
                (
                    rng.integers(0, VOCAB, size=(2, 8)),
                    rng.integers(0, VOCAB, size=(2, 8)),
                )
                for _ in range(world)
            ]

        with ZeroInfinityEngine(
            cfg, model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(7))
        ) as eng:
            for _ in range(2):  # the prefetcher adopts its trace
                eng.train_step(batch())
            counters = eng.offload.counters
            in_optimizer = []
            step = eng.optimizer.step

            def counted_step(**kwargs):
                before = counters.prefetch_misses
                step(**kwargs)
                in_optimizer.append(counters.prefetch_misses - before)

            eng.optimizer.step = counted_step  # type: ignore[method-assign]
            before = counters.prefetch_misses
            eng.train_step(batch())
            assert in_optimizer == [0]
            modules = len(list(eng.model.modules()))
            assert counters.prefetch_misses - before <= modules


# --- staging is bounded by the chunk, not the model ----------------------------
class TestStagingIsBounded:
    """At most three sub-groups hold staging at once — the one read ahead,
    the one updating, the one whose writes drain — so a pinned budget of
    three sub-groups serves any model without a fallback; a smaller one
    costs pinning (unpinned staging), never the step.

    A sub-group's staging is one acquisition holding, per piece of ``n``
    elements, the three fp32 state spans it reads, updates and writes back
    (``3 x aligned(4 n)``), the stored gradient when the piece starts a
    shard whose gradient is read from NVMe (``aligned(itemsize x shard)``;
    one the bucket flush left dirty in pinned staging is read where it
    sits, and takes none), and — the term added when the updated
    parameter shard stopped being a fresh array per step —
    ``aligned(itemsize x n)`` of room for the piece's span of the
    low-precision parameter shard *when that shard is an NVMe record
    beside its master*: it is written to the shadow record from there,
    with the state, and has the staging's lifetime.  Here parameters and
    gradients stay in memory (stage 2, only the optimizer on NVMe), so
    both extra terms are zero and the updated shards live in one buffer
    each, kept across steps, outside the pool.  With everything on NVMe
    an fp32 parameter's master is its record, which the step's gathers
    left landed in pinned staging: the optimizer takes it there, so the
    master term, the parameter term and (while the gradients are dirty)
    the gradient term are all absent — ``2 x aligned(4 n)``, the two
    moments, where it was ``3 x aligned(4 n) + aligned(4 n)`` — and the
    second test holds each sub-group's acquisition to that sum."""

    def _run(self, budget=None):
        """Stage 2 with only the optimizer state on NVMe: its pipeline is
        the pinned pool's sole user.  Returns (state, report, plan)."""
        extra = {} if budget is None else {"pinned_budget_bytes": budget}
        cfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.GRADIENTS,
            offload=OffloadConfig(
                optimizer_device=OffloadDevice.NVME,
                optimizer_chunk_numel=1024,  # spans, single shards and packs
                **extra,
            ),
            loss_scale=1.0,
        )
        rng = seeded_rng(3)
        with ZeroInfinityEngine(cfg, model_factory=_model_factory, lr=1e-2) as eng:
            for _ in range(2):
                eng.train_step(_batch(rng))
            assert eng.offload.pool._live_bytes == 0
            return eng.gather_state(), eng.report(), eng.optimizer._subgroups()

    def test_three_subgroups_of_pinned_budget_suffice(self):
        from repro.core.offload import _aligned

        ref_state, ref_report, plan = self._run()
        assert ref_report.pinned_fallbacks == 0
        align = 4096  # PinnedBufferPool's default
        subgroup_bytes = max(
            sum(3 * _aligned(4 * piece.n) for piece in group.pieces)
            for group in plan
        )
        budget = 3 * -(-subgroup_bytes // align) * align
        state, report, _ = self._run(budget)
        assert report.pinned_fallbacks == 0
        assert 0 < report.pinned_peak_bytes <= budget
        # one sub-group's worth: the read-ahead no longer fits beside the
        # update — staged unpinned, same bits
        starved, starved_report, _ = self._run(budget // 3)
        assert starved_report.pinned_fallbacks > 0
        for name, expected in ref_state.items():
            assert np.array_equal(state[name], expected), name
            assert np.array_equal(starved[name], expected), name

    def test_a_subgroups_staging_is_exactly_the_derived_sum(self):
        """Stage 3 with parameters, gradients and optimizer state on NVMe:
        every acquisition the optimizer step makes is one sub-group's, of
        exactly the bytes the class docstring derives — the two moments:
        no gradient term, as every gradient is still dirty in its flush's
        staging, and no master or parameter term, as every fp32 parameter
        record is its master and still landed where the gathers read it."""
        from repro.core.offload import _aligned

        cfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME,
                grad_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
                optimizer_chunk_numel=1024,
            ),
            loss_scale=1.0,
        )
        rng = seeded_rng(3)
        with ZeroInfinityEngine(cfg, model_factory=_model_factory, lr=1e-2) as eng:
            eng.train_step(_batch(rng))
            acquired: list[int] = []
            pool = eng.offload.pool
            acquire, step = pool.acquire, eng.optimizer.step

            def in_step(**kwargs):
                pool.acquire = lambda nbytes, dtype: (
                    acquired.append(nbytes),
                    acquire(nbytes, dtype),
                )[1]
                try:
                    step(**kwargs)
                finally:
                    pool.acquire = acquire

            eng.optimizer.step = in_step
            eng.train_step(_batch(rng))
            plan = eng.optimizer._subgroups()
            assert any(not piece.whole for g in plan for piece in g.pieces)
            assert any(len(g.pieces) > 1 for g in plan)
        want = [sum(2 * _aligned(4 * piece.n) for piece in group.pieces) for group in plan]
        assert acquired == want


# --- resident state is updated where it lives -----------------------------------
def _tier_config(stage: int, device: OffloadDevice, **extra) -> ZeroConfig:
    """Gradients and optimizer state (and, at stage 3, parameters) on
    ``device``."""
    return ZeroConfig(
        world_size=2,
        stage=ZeroStage(stage),
        offload=OffloadConfig(
            param_device=device if stage == 3 else OffloadDevice.NONE,
            grad_device=device,
            optimizer_device=device,
        ),
        **{"loss_scale": 1.0, **extra},
    )


#: no NVMe tier anywhere
_resident_config = _tier_config


def _batch(rng, vocab=VOCAB, world=2, bsz=2, seq=8):
    return [
        (
            rng.integers(0, vocab, size=(bsz, seq)),
            rng.integers(0, vocab, size=(bsz, seq)),
        )
        for _ in range(world)
    ]


RESIDENT = [
    pytest.param(2, OffloadDevice.CPU, id="zero2-cpu"),
    pytest.param(3, OffloadDevice.NONE, id="zero3-gpu"),
]

#: where stage 3 keeps parameters, gradients and optimizer state
STAGE3_TIERS = [
    pytest.param(OffloadDevice.NONE, id="gpu"),
    pytest.param(OffloadDevice.CPU, id="cpu"),
    pytest.param(OffloadDevice.NVME, id="nvme"),
]


def _stage3_config(device: OffloadDevice) -> ZeroConfig:
    return _tier_config(3, device)


def _gather_buffers(eng) -> list[np.ndarray]:
    """Every flat gather buffer the partitioner holds, live or free."""
    part = eng.partitioner
    live = [g.flat for g in part.groups if g.partitioned and g.flat is not None]
    return [*live, *sum(part._free_flats.values(), [])]


def _arrays_in(obj):
    """Arrays reachable from a module cache (nested tuples and lists)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays_in(item)


#: stage x where gradients and optimizer state (and, at stage 3, parameters) live
GRAD_TIERS = [
    pytest.param(stage, device, id=f"zero{stage}-{name}")
    for stage in (2, 3)
    for name, device in (
        ("gpu", OffloadDevice.NONE),
        ("cpu", OffloadDevice.CPU),
        ("nvme", OffloadDevice.NVME),
    )
]


def _big_table_model(*, tied: bool):
    """A 2 M-element embedding (8 MB of fp32 gradient, a 4 MB shard per
    rank at world 2) beside a layer whose arrays are all under 1 MB."""
    model_cfg = TransformerConfig(
        num_layers=1, hidden_dim=128, num_heads=4, vocab_size=16384,
        max_seq=8, tie_embeddings=tied,
    )
    return lambda: GPTModel(model_cfg, rng=seeded_rng(7))


def _traced_peak(eng, begin_attr, end_attr, run):
    """Peak ``tracemalloc`` bytes between the first call of method
    ``begin_attr`` and the next call of ``end_attr`` during ``run()``
    (dotted paths from the engine)."""
    import tracemalloc

    def patch(path, wrapper):
        *owners, name = path.split(".")
        obj = eng
        for attr in owners:
            obj = getattr(obj, attr)
        setattr(obj, name, wrapper(getattr(obj, name)))

    peaks = []

    def starting(fn):
        def wrapped(*a, **kw):
            if not peaks and not tracemalloc.is_tracing():
                tracemalloc.start()
            return fn(*a, **kw)
        return wrapped

    def ending(fn):
        def wrapped(*a, **kw):
            if tracemalloc.is_tracing():
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return fn(*a, **kw)
        return wrapped

    patch(begin_attr, starting)
    patch(end_attr, ending)
    try:
        run()
    finally:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
    assert len(peaks) == 1
    return peaks[0]


class TestAccumulationLandsWhereItLives:
    """Gradient accumulation over *different* microbatches, on every tier:
    the first round of a key is reduced into its destination, every later
    one reduced and then added — also when one bucket flush holds two
    rounds of the same parameter (nothing is flushed between rounds, so
    the default capacity does) — bit-identical to data parallelism."""

    @pytest.mark.parametrize("capacity", [4096, 500_000])
    @pytest.mark.parametrize("stage,device", GRAD_TIERS)
    def test_matches_data_parallel(self, stage, device, capacity):
        world, rounds, steps = 2, 3, 2
        rng = seeded_rng(11)
        data = [[_batch(rng) for _ in range(rounds)] for _ in range(steps)]

        def run(cfg):
            with ZeroInfinityEngine(cfg, model_factory=_model_factory, lr=1e-2) as eng:
                losses = [eng.train_step_accumulated(r).losses for r in data]
                return losses, eng.gather_state()

        ref_losses, ref_state = run(
            config_for_strategy(
                Strategy.DATA_PARALLEL, world_size=world, loss_scale=1.0
            )
        )
        losses, state = run(
            _tier_config(stage, device, reduce_bucket_numel=capacity)
        )
        assert losses == ref_losses
        for name, expected in ref_state.items():
            assert np.array_equal(state[name], expected), name


    def test_nvme_rounds_merge_where_they_sit(self):
        """Two rounds of one batch on NVMe, each 2 M-element table gradient
        reduced in an oversized flush of its own per round: the second
        round is added into the first's dirty staging — no gradient byte
        reaches disk, and merging a 4 MB shard allocates under 1 MB — and
        the step is bit-equal to ``DDPTrainer`` on the batch (two equal
        gradients summed and halved are exact)."""
        import tracemalloc

        from repro.baselines.ddp import DDPTrainer

        world, steps = 2, 2
        rng = seeded_rng(5)
        data = [_batch(rng, vocab=16384, bsz=1) for _ in range(steps)]
        factory = _big_table_model(tied=False)
        ddp = DDPTrainer(factory, world, lr=1e-2)
        ref_losses = [ddp.train_step(b) for b in data]
        cfg = _tier_config(3, OffloadDevice.NVME, reduce_bucket_numel=4096)
        with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-2) as eng:
            store = eng.coordinator.bucket_store
            on_shard, peaks = store.on_shard, []

            def measured(param, rank, shard):
                tracemalloc.start()
                try:
                    on_shard(param, rank, shard)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

            store.on_shard = measured
            grad_keys = {ref.grad for ref in eng.optimizer._refs.values()}
            for b, ref in zip(data, ref_losses):
                assert eng.train_step_accumulated([b, b]).losses == 2 * list(ref)
            state = eng.gather_state()
            assert not any(k in eng.offload.store for k in grad_keys)
        assert max(peaks) < 1 << 20, max(peaks)
        for name, expected in ddp_state(ddp).items():
            assert np.array_equal(state[name], expected), name


class TestNoCopyContract:
    """With every tier resident the step neither copies nor reallocates a
    state or gradient shard: the offload engine lends the stored arrays,
    Adam updates them in place, gradients land in last step's buffers.
    Through forward and backward, on any tier, a gathered parameter lives
    in a recycled buffer nothing else aliases, a weight gradient is written
    into an array an earlier step's was reduced from, and the reduce
    writes each shard into the memory its tier keeps (or sends to NVMe)."""

    @pytest.mark.parametrize("stage,device", RESIDENT)
    def test_stored_arrays_keep_their_identity(self, stage, device):
        rng = seeded_rng(3)
        with ZeroInfinityEngine(
            _resident_config(stage, device), model_factory=_model_factory, lr=1e-2
        ) as eng:
            eng.train_step(_batch(rng))  # warm-up: every key exists
            refs = eng.optimizer._refs.values()
            keys = [
                key
                for ref in refs
                for key in (ref.master, ref.exp_avg, ref.exp_avg_sq, ref.grad)
            ]
            assert len(keys) == 4 * 2 * len(eng.optimizer.groups)
            before = {key: id(eng.offload.resident(key)) for key in keys}
            masters = {
                ref.master: eng.offload.resident(ref.master).copy() for ref in refs
            }
            for _ in range(3):
                eng.train_step(_batch(rng))
            assert {key: id(eng.offload.resident(key)) for key in keys} == before
            # ...and they are the live state, not bystanders (a shard of
            # unused position rows may legitimately stand still)
            moved = [
                not np.array_equal(eng.offload.resident(key), old)
                for key, old in masters.items()
            ]
            assert sum(moved) > len(moved) // 2

    @pytest.mark.parametrize("stage,device", RESIDENT)
    def test_step_allocates_no_shard_sized_temporary(self, stage, device):
        """A 1 M-element shard (4 MB of fp32 per state) and an optimizer
        step whose peak allocation stays under 2 MB."""
        import tracemalloc

        vocab, hidden = 16384, 128  # tied embedding: 2 M elements, world 2
        model_cfg = TransformerConfig(
            num_layers=1, hidden_dim=hidden, num_heads=4, vocab_size=vocab,
            max_seq=8,
        )
        rng = seeded_rng(3)
        with ZeroInfinityEngine(
            _resident_config(stage, device),
            model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(7)),
        ) as eng:
            assert max(
                g.shard_numel for g in eng.optimizer.groups
            ) >= 1 << 20
            eng.train_step(_batch(rng, vocab=vocab, bsz=1))
            step = eng.optimizer.step
            peaks = []

            def measured_step(**kwargs):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    step(**kwargs)
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                finally:
                    tracemalloc.stop()

            eng.optimizer.step = measured_step  # type: ignore[method-assign]
            eng.train_step(_batch(rng, vocab=vocab, bsz=1))
        assert len(peaks) == 1
        assert peaks[0] < 2 << 20, f"optimizer step peaked at {peaks[0]} bytes"

    @pytest.mark.parametrize("device", STAGE3_TIERS)
    def test_gather_buffers_keep_their_identity(self, device):
        """After warm-up every gather is served from the free list: the
        buffers handed out in a step are the same objects step after step,
        and the partitioner holds no more of them than before."""
        rng = seeded_rng(3)
        with ZeroInfinityEngine(
            _stage3_config(device), model_factory=_model_factory, lr=1e-2
        ) as eng:
            for _ in range(2):
                eng.train_step(_batch(rng))
            held = {id(b) for b in _gather_buffers(eng)}
            part = eng.partitioner
            take = part._take_flat
            handed: list[int] = []
            part._take_flat = lambda meta: (
                handed.append(id(buf := take(meta))),
                buf,
            )[1]
            per_step = []
            for _ in range(3):
                del handed[:]
                eng.train_step(_batch(rng))
                per_step.append(set(handed))
            assert per_step[0] and per_step[0] == per_step[1] == per_step[2]
            assert per_step[0] <= held
            assert {id(b) for b in _gather_buffers(eng)} == held

    @pytest.mark.parametrize("device", STAGE3_TIERS)
    def test_no_module_cache_aliases_a_gather_buffer(self, device):
        """A forward cache keeps activations, never the gathered parameter:
        backward takes ``param.data`` afresh, so a recycled buffer has no
        stale reader (and a release frees what it says it frees)."""
        rng = seeded_rng(3)
        checked = []

        def no_alias(module, args, output):
            for arr in _arrays_in(module._cache):
                for buf in _gather_buffers(eng):
                    assert not np.shares_memory(arr, buf), type(module).__name__
                checked.append(type(module).__name__)

        with ZeroInfinityEngine(
            _stage3_config(device), model_factory=_model_factory, lr=1e-2
        ) as eng:
            for module in eng.model.modules():
                module.register_forward_hook(no_alias)
            eng.train_step(_batch(rng))
        assert {"Linear", "LayerNorm", "Embedding", "CrossEntropyHead"} <= set(
            checked
        )

    @pytest.mark.parametrize("device", STAGE3_TIERS)
    def test_forward_backward_allocates_no_gather_temporary(self, device):
        """The 2 M-element tied embedding (8 MB of fp32, a 4 MB shard per
        rank): what one rank's forward + backward allocates, at its peak,
        is the weight's gradient twice — the head's, adopted as ``.grad``
        without a copy, and the embedding's scatter table on its way to
        being added to it — plus activations, which this shape keeps under
        2 MB (the largest, the [8, 16384] logits, is 512 KB).  A gather
        that staged even one shard, or a first-touch gradient copy, would
        not fit under that."""
        import tracemalloc

        vocab, hidden = 16384, 128
        model_cfg = TransformerConfig(
            num_layers=1, hidden_dim=hidden, num_heads=4, vocab_size=vocab,
            max_seq=8,
        )
        full_grad = vocab * hidden * 4
        rng = seeded_rng(3)
        with ZeroInfinityEngine(
            _stage3_config(device),
            model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(7)),
        ) as eng:
            for _ in range(2):  # gather buffers and the prefetch trace exist
                eng.train_step(_batch(rng, vocab=vocab, bsz=1))
            begin_rank = eng.coordinator.begin_rank
            end_backward = eng.coordinator.end_rank_backward
            peaks = []

            def begin(rank):
                begin_rank(rank)
                tracemalloc.start()

            def end():  # before the sweep that hands gradients on
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
                end_backward()

            eng.coordinator.begin_rank = begin
            eng.coordinator.end_rank_backward = end
            eng.train_step(_batch(rng, vocab=vocab, bsz=1))
        assert len(peaks) == 2
        assert max(peaks) < 2 * full_grad + (2 << 20), peaks

    @pytest.mark.parametrize("stage,device", GRAD_TIERS)
    def test_gradients_are_reduced_into_where_they_live(self, stage, device):
        """Memory tiers: every stored gradient shard is the same array step
        after step, and the very array its reduce-scatter was given as a
        destination.  NVMe: the destinations of a flush are slices of one
        pinned staging buffer — never the bucket's own memory — where the
        shards stay for the optimizer: no gradient write request at all
        (under pool pressure they reach disk: the next test)."""
        rng = seeded_rng(3)
        world = 2
        with ZeroInfinityEngine(
            _tier_config(stage, device), model_factory=_model_factory, lr=1e-2
        ) as eng:
            for _ in range(2):
                eng.train_step(_batch(rng))
            grad_keys = [ref.grad for ref in eng.optimizer._refs.values()]
            assert len(grad_keys) == world * len(eng.optimizer.groups)
            flushes: list[tuple[list, list]] = []  # (inputs, destinations)
            reduce = eng.comm.reduce_scatter_into
            eng.comm.reduce_scatter_into = lambda bufs, out, **kw: (
                flushes.append((list(bufs), list(out))),
                reduce(bufs, out, **kw),
            )[1]
            grad_writes = []
            if device is OffloadDevice.NVME:
                write = eng.offload.store.write_async

                def counted(key, array, **kw):
                    if not isinstance(key, str) and key[0] in grad_keys:
                        assert set(key) <= set(grad_keys)
                        grad_writes.append(list(key))
                    return write(key, array, **kw)

                eng.offload.store.write_async = counted
            else:
                before = {k: id(eng.offload.resident(k)) for k in grad_keys}
            for _ in range(3):
                del flushes[:], grad_writes[:]
                eng.train_step(_batch(rng))
                assert flushes
                dests = [d for _, outs in flushes for d in outs]
                assert len(dests) == len(grad_keys)
                if device is OffloadDevice.NVME:
                    for inputs, outs in flushes:
                        bases = {id(d.base) for d in outs}
                        assert len(bases) == 1 and outs[0].base.dtype == np.uint8
                        assert not any(
                            np.shares_memory(d, buf) for d in outs for buf in inputs
                        )
                    assert grad_writes == []
                    continue
                stored = {k: eng.offload.resident(k) for k in grad_keys}
                assert {k: id(a) for k, a in stored.items()} == before
                assert {id(d) for d in dests} == set(before.values())
                assert all(
                    np.shares_memory(d, stored[k])
                    for k in grad_keys
                    for d in dests
                    if d is stored[k]
                )

    @pytest.mark.parametrize("stage", [2, 3])
    @pytest.mark.parametrize("pressure", ["write-through", "write-back"])
    def test_nvme_gradients_reach_disk_under_pool_pressure(self, stage, pressure):
        """A pinned budget of one 4 KB page keeps no flush's staging: the
        flush falls back to unpinned memory and writes its shards through.
        A budget of exactly the flush's staging keeps it, dirty, until the
        optimizer's first sub-group needs room beside it: it is written
        back.  Either way each flush reaches disk as one bulk request
        carrying all its shards, and the bits are the default budget's."""
        from repro.core.offload import _aligned

        world = 2

        def run(budget):
            rng = seeded_rng(3)
            cfg = _tier_config(stage, OffloadDevice.NVME)
            if budget is not None:
                cfg = replace(
                    cfg, offload=replace(cfg.offload, pinned_budget_bytes=budget)
                )
            with ZeroInfinityEngine(cfg, model_factory=_model_factory, lr=1e-2) as eng:
                eng.train_step(_batch(rng))
                grad_keys = {ref.grad for ref in eng.optimizer._refs.values()}
                flushes: list[tuple[int, bool]] = []  # (shards, pinned)
                stash_staged = eng.offload.stash_staged
                eng.offload.stash_staged = lambda keys, arrays, staging, **kw: (
                    flushes.append((len(keys), staging.pinned)),
                    stash_staged(keys, arrays, staging, **kw),
                )[1]
                grad_writes = []
                write = eng.offload.store.write_async

                def counted(key, array, **kw):
                    if not isinstance(key, str) and key[0] in grad_keys:
                        assert set(key) <= grad_keys
                        grad_writes.append(len(key))
                    return write(key, array, **kw)

                eng.offload.store.write_async = counted
                for _ in range(2):
                    del flushes[:], grad_writes[:]
                    eng.train_step(_batch(rng))
                    assert flushes
                    if budget is None:
                        assert grad_writes == []
                    else:  # one bulk request per flush carries all its shards
                        assert grad_writes == [n for n, _ in flushes]
                    assert eng.offload.pool._live_bytes == 0
                shards = [
                    g.shard_numel for g in eng.optimizer.groups
                    for _ in range(world)
                ]
                return eng.gather_state(), flushes, shards

        ref_state, _, shards = run(None)
        page = 4096
        staging = -(-sum(_aligned(4 * n) for n in shards) // page) * page
        budget = page if pressure == "write-through" else staging
        state, flushes, _ = run(budget)
        assert {pinned for _, pinned in flushes} == {pressure == "write-back"}
        for name, expected in ref_state.items():
            assert np.array_equal(state[name], expected), name

    @pytest.mark.parametrize("stage,device", GRAD_TIERS)
    def test_backward_and_reduce_allocate_no_gradient_sized_block(
        self, stage, device
    ):
        """Untied 2 M-element embedding and head: after two warm-up steps
        a whole step's forward + backward + reduce — both rank turns, the
        harvest, the oversized flushes — peaks under 4 MB of new memory,
        half of one 8 MB table gradient: activations, and the layer's own
        gradients (0.8 MB per rank, every array under the 1 MB recycling
        floor).  Four table gradients (two ranks x two tables) were
        allocated per step before gradient arrays were recycled, plus a
        reduce output and, on NVMe, a copy per shard."""
        rng = seeded_rng(3)
        with ZeroInfinityEngine(
            _tier_config(stage, device), model_factory=_big_table_model(tied=False)
        ) as eng:
            batch = lambda: _batch(rng, vocab=16384, bsz=1)  # noqa: E731
            for _ in range(2):
                eng.train_step(batch())
            peak = _traced_peak(
                eng,
                "coordinator.begin_accumulation",
                "coordinator.flush_grad_offload",
                lambda: eng.train_step(batch()),
            )
        assert peak < 4 << 20, f"forward + backward + reduce peaked at {peak} bytes"

    def test_tied_table_costs_one_scratch_table_per_step(self):
        """The stated exception (ROADMAP 2d): a tied table's embedding
        gradient is scattered into a scratch table and *added* to the
        head's — same summation order, same bits.  The scratch is a
        recycled array while one is free; on the last rank turn all
        ``world`` of them hold live gradients, so that turn allocates it:
        one table per step, where there were ``2 x world``."""
        rng = seeded_rng(3)
        table = 16384 * 128 * 4
        with ZeroInfinityEngine(
            _tier_config(3, OffloadDevice.CPU),
            model_factory=_big_table_model(tied=True),
        ) as eng:
            batch = lambda: _batch(rng, vocab=16384, bsz=1)  # noqa: E731
            for _ in range(2):
                eng.train_step(batch())
            peak = _traced_peak(
                eng,
                "coordinator.begin_accumulation",
                "coordinator.flush_grad_offload",
                lambda: eng.train_step(batch()),
            )
        assert table <= peak < table + (4 << 20)

    def test_adam_reads_gradients_in_the_flush_staging(self, monkeypatch):
        """At the default pinned budget every gradient Adam reads is a view
        of the staging its bucket flush reduced it into — also a split
        shard's (the 1 M-element table shards stream in two spans here),
        which no longer copies its gradient to outlive the first span —
        and the optimizer step allocates no gradient-sized (4 MB) block."""
        import repro.core.zero_optimizer as zero_optimizer

        rng = seeded_rng(3)
        cfg = _tier_config(3, OffloadDevice.NVME)
        cfg = replace(cfg, offload=replace(cfg.offload, optimizer_chunk_numel=1 << 19))
        with ZeroInfinityEngine(
            cfg, model_factory=_big_table_model(tied=True)
        ) as eng:
            batch = lambda: _batch(rng, vocab=16384, bsz=1)  # noqa: E731
            for _ in range(2):
                eng.train_step(batch())
            flushed, read = [], []
            acquire_staging = eng.offload.acquire_staging  # the flush's alone
            eng.offload.acquire_staging = lambda numels, dtype: (
                staging := acquire_staging(numels, dtype),
                flushed.extend(staging.arrays),
            )[0]
            adam_step = zero_optimizer.adam_step
            monkeypatch.setattr(
                zero_optimizer,
                "adam_step",
                lambda master, grad, *a, **kw: (
                    read.append(grad),
                    adam_step(master, grad, *a, **kw),
                )[1],
            )
            peak = _traced_peak(
                eng,
                "optimizer.step",
                "_on_step_boundary",
                lambda: eng.train_step(batch()),
            )
            plan = eng.optimizer._subgroups()
            assert sum(not piece.whole for g in plan for piece in g.pieces) >= 4
        assert len(read) == sum(len(g.pieces) for g in plan)
        assert all(any(np.shares_memory(g, f) for f in flushed) for g in read)
        assert peak < 2 << 20, f"optimizer step peaked at {peak} bytes"

    @pytest.mark.parametrize("stage", [2, 3])
    def test_nvme_optimizer_step_allocates_no_shard_sized_block(self, stage):
        """With an NVMe tier the updated low-precision shard (4 MB here)
        is not a fresh array per (parameter, rank) per step: a shard that
        is an NVMe record is written from its sub-group's pinned staging,
        one that lives in memory from a buffer kept across steps."""
        rng = seeded_rng(3)
        with ZeroInfinityEngine(
            _tier_config(stage, OffloadDevice.NVME),
            model_factory=_big_table_model(tied=True),
        ) as eng:
            batch = lambda: _batch(rng, vocab=16384, bsz=1)  # noqa: E731
            for _ in range(2):
                eng.train_step(batch())
            shard = max(
                g.shard_numel * 4 for g in eng.optimizer.groups
            )
            assert shard == 4 << 20
            peak = _traced_peak(
                eng,
                "optimizer.step",
                "_on_step_boundary",
                lambda: eng.train_step(batch()),
            )
        assert peak < shard // 2, f"optimizer step peaked at {peak} bytes"

    @pytest.mark.parametrize("stage,device", GRAD_TIERS)
    def test_recycled_gradient_arrays_are_bounded(self, stage, device):
        """A parameter keeps at most ``world`` gradient arrays between
        steps — what one step's harvest hands back, the same ones step
        after step — and none after an aborted step.  Only arrays of a
        megabyte or more are kept (here: the two 8 MB tables)."""
        rng = seeded_rng(3)
        world = 2
        with ZeroInfinityEngine(
            _tier_config(stage, device), model_factory=_big_table_model(tied=False)
        ) as eng:
            batch = lambda: _batch(rng, vocab=16384, bsz=1)  # noqa: E731
            params = dict(eng.model.named_parameters())
            tables = [params["tok_emb.weight"], params["head.weight"]]
            for _ in range(2):
                eng.train_step(batch())
                assert [len(p._grad_free) for p in tables] == [world, world]
                assert not any(
                    p._grad_free for p in params.values() if p not in tables
                )
            held = {id(a) for p in tables for a in p._grad_free}
            eng.train_step(batch())
            assert {id(a) for p in tables for a in p._grad_free} == held
            eng.coordinator.abort_step()
            assert not any(p._grad_free for p in params.values())

    def test_gather_buffer_bytes_do_not_grow_with_depth(self):
        """Buffers are keyed by size and recycled across layers: a deeper
        model of the same width holds exactly the bytes a shallow one
        does — one layer's largest module plus the embedding — where a
        buffer per parameter would double with the depth."""

        def held(layers):
            model_cfg = TransformerConfig(
                num_layers=layers, hidden_dim=32, num_heads=4, vocab_size=VOCAB,
                max_seq=16,
            )
            rng = seeded_rng(3)
            with ZeroInfinityEngine(
                _stage3_config(OffloadDevice.CPU),
                model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(7)),
            ) as eng:
                for _ in range(2):
                    eng.train_step(_batch(rng))
                return sum(b.nbytes for b in _gather_buffers(eng))

        assert held(4) == held(2) > 0

    # 3 steps of the model above at world 2, measured on the commit before
    # the borrow: lending an array must be charged like the copy it replaced
    PARENT_COUNTERS = [
        pytest.param(
            2, dict(loss_scale=1.0), None,
            dict(
                host_link_bytes={0: 1513728, 1: 1513728},
                tier_peak_bytes={"gpu": 6000000, "cpu": 448512, "pinned": 0},
            ),
            id="zero2-cpu",
        ),
        # a static scale != 1 turns the overflow check on, a clip the norm:
        # both read every gradient shard through ``peek``
        pytest.param(
            3, dict(loss_scale=8.0), 0.05,
            dict(
                host_link_bytes={0: 2852352, 1: 2852352},
                tier_peak_bytes={"gpu": 6033792, "cpu": 560640, "pinned": 0},
            ),
            id="zero3-cpu-scaled-clipped",
        ),
    ]

    @pytest.mark.parametrize("stage,extra,grad_clip,want", PARENT_COUNTERS)
    def test_byte_accounting_is_unchanged(self, stage, extra, grad_clip, want):
        """Optimizer-side traffic is charged as on that commit.  At stage 3
        the figures also hold parameter traffic that is no longer
        generated, and are corrected by exactly it:

        * reads: per rank turn the head's backward finds the tied
          embedding still resident from its own forward (one gather of it
          fewer) and neither embedding's backward gathers its table
          (``Embedding.parameters_read("bwd")`` is empty), so the CPU tier
          serves ``2 x tok_emb + pos_emb`` fewer bytes per turn, 1/world of
          them over each rank's link;
        * gpu peak: the coalesced gather's persistent staging buffer,
          sized for the largest module (``mlp.fc_in``: weight + bias), no
          longer exists — shards land in the gather buffers themselves;
        * writes and cpu peak: every parameter is a sharded fp32 one on the
          cpu tier with its optimizer state, so its master is its
          parameter record.  Adam updates the record and it commits by
          reference with the moments: the separate write of the updated
          shard (4 B per padded shard element per step, half over each
          rank's link) and the master records on the cpu tier (4 B per
          padded shard element) are gone.  The master's read is now the
          record's, the same bytes.

        At both stages the gpu peak is also lower by one bucket buffer:
        the figures were taken with ``world`` per-rank input buffers *and*
        an output buffer of the same capacity, and the reduce-scatter now
        writes each shard where its tier keeps it, so the output buffer is
        gone — ``capacity x itemsize`` bytes of the one dtype in use.
        """
        from repro.obs import MemScope, use_memscope

        steps, world = 3, 2
        rng = seeded_rng(3)
        with use_memscope(MemScope(enabled=True)):
            with ZeroInfinityEngine(
                _resident_config(stage, OffloadDevice.CPU, **extra),
                model_factory=_model_factory,
                lr=1e-2,
                grad_clip=grad_clip,
            ) as eng:
                if stage == 3:
                    nbytes = {
                        g.name: g.padded_numel * g.dtype.itemsize
                        for g in eng.partitioner.groups
                    }
                    unread = (
                        steps
                        * world
                        * (2 * nbytes["tok_emb"] + nbytes["pos_emb"])
                    )
                    staging = nbytes["block0.mlp.fc_in"]
                    opt = eng.optimizer
                    assert all(opt.master_is_param(g) for g in opt.groups)
                    master = 4 * world * sum(g.shard_numel for g in opt.groups)
                    unwritten = steps * master
                    want = dict(
                        want,
                        host_link_bytes={
                            r: b - (unread + unwritten) // world
                            for r, b in want["host_link_bytes"].items()
                        },
                        tier_peak_bytes=dict(
                            want["tier_peak_bytes"],
                            gpu=want["tier_peak_bytes"]["gpu"] - staging,
                            cpu=want["tier_peak_bytes"]["cpu"] - master,
                        ),
                    )
                for _ in range(steps):
                    eng.train_step(_batch(rng))
                store = eng.coordinator.bucket_store
                (bucket,) = store._buckets.values()
                want = dict(
                    want,
                    tier_peak_bytes=dict(
                        want["tier_peak_bytes"],
                        gpu=want["tier_peak_bytes"]["gpu"]
                        - store.capacity * bucket.dtype.itemsize,
                    ),
                )
                counters = eng.offload.counters
                got = dict(
                    host_link_bytes=dict(counters.host_link_bytes),
                    tier_peak_bytes=dict(eng.report().tier_peak_bytes),
                )
        assert got == want
