"""Chaos matrix: training under injected faults matches fault-free training.

The headline resilience claim (docs/resilience.md): for every *recoverable*
fault class, a run with the fault plane armed trains to **bit-identical**
final weights versus the fault-free baseline — the recovery tiers (aio
retry, checksum re-fetch, pinned/sync fallback, step replay) are invisible
to the numerics.  Unrecoverable faults surface as one structured
:class:`FaultUnrecoverable`, never a hang or silent corruption.

Tier 1 runs a bounded fast subset of the matrix; ``REPRO_CHECK=all`` in the
environment widens it to fault class x stage {2,3} x world {1,2,4} x
{CPU, NVMe} plus more property-test examples.  Select with ``-m chaos``.
"""

import contextlib
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.check import CheckConfig, use_checker
from repro.comm.backend import LoopBackend
from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.faults import FaultUnrecoverable, use_faults
from repro.nn import GPTModel, TransformerConfig
from repro.utils.rng import seeded_rng
from tests.helpers import banked_grads, spool_sweep

pytestmark = pytest.mark.chaos

FULL = os.environ.get("REPRO_CHECK", "").strip().lower() == "all"

VOCAB = 64
STEPS = 3


def model_factory():
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=32, num_heads=4, vocab_size=VOCAB, max_seq=16
    )
    return GPTModel(cfg, rng=seeded_rng(7))


def make_batches(world, steps=STEPS, seed=3, bsz=2, seq=8):
    rng = seeded_rng(seed)
    return [
        [
            (
                rng.integers(0, VOCAB, size=(bsz, seq)),
                rng.integers(0, VOCAB, size=(bsz, seq)),
            )
            for _ in range(world)
        ]
        for _ in range(steps)
    ]


#: A pinned pool of one page keeps no gradient flush's staging: every flush
#: falls back to unpinned memory and writes its shards through.  At the
#: default budget gradients stay dirty in pinned staging and never reach
#: disk, so a fault aimed at a gradient write runs under this one.
PAGE = 4096


def chaos_config(stage, world, tier, *, step_retries=2, budget=None, **extra):
    """``tier``: "cpu" / "nvme" for everything offloadable, or "mixed" —
    optimizer state resident on the CPU, parameters and gradients on NVMe.
    ``budget``: the pinned pool's, when not the default."""
    dev = OffloadDevice.CPU if tier == "cpu" else OffloadDevice.NVME
    pinned = {} if budget is None else {"pinned_budget_bytes": budget}
    return ZeroConfig(
        world_size=world,
        stage=stage,
        step_retries=step_retries,
        offload=OffloadConfig(
            param_device=(
                dev if stage is ZeroStage.PARAMETERS else OffloadDevice.NONE
            ),
            grad_device=dev,
            optimizer_device=OffloadDevice.CPU if tier == "mixed" else dev,
            optimizer_chunk_numel=97,
            **pinned,
        ),
        **{"loss_scale": 1.0, **extra},
    )


def run_training(
    stage, world, tier, *, faults=None, seed=0, step_retries=2, **extra
):
    """Train STEPS steps; the plane is armed only around the steps, so
    engine init and the final gather are always fault-free.  Returns the
    losses, the final state, the engine report and the number of faults
    the plane injected."""
    cfg = chaos_config(stage, world, tier, step_retries=step_retries, **extra)
    batches = make_batches(world)
    with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
        ctx = (
            use_faults(faults, seed=seed)
            if faults
            else contextlib.nullcontext()
        )
        with ctx as plane:
            losses = [eng.train_step(b).mean_loss for b in batches]
            report = eng.report()
        state = eng.gather_state()
    injected = sum(plane.injected.values()) if faults else 0
    return losses, state, report, injected


_BASELINES: dict = {}


def baseline(stage, world, tier):
    key = (stage, world, tier)
    if key not in _BASELINES:
        losses, state, _, _ = run_training(stage, world, tier)
        _BASELINES[key] = (losses, state)
    return _BASELINES[key]


def assert_bit_identical(state, ref_state, losses, ref_losses, detail=""):
    assert losses == ref_losses, f"losses diverged {detail}"
    assert state.keys() == ref_state.keys()
    for name, ref in ref_state.items():
        assert np.array_equal(state[name], ref), f"{name} diverged {detail}"


# (id, spec, applicable stages) — every class the plane can inject that the
# recovery tiers must absorb without touching the numerics.  Fault sites
# that a placement never visits (e.g. aio on the CPU tier) make the run a
# no-op faithfulness check: armed plane, zero injections, identical bits.
BOTH = (ZeroStage.GRADIENTS, ZeroStage.PARAMETERS)
FAULT_CASES = [
    ("io-read-retry", "io_error@aio.read:times=2", BOTH),
    ("io-write-retry", "io_error@aio.write:times=2", BOTH),
    # exceeds the per-call aio budget -> step replay.  Under stage 2 the
    # first reads of the storm land mid-optimizer; the transactional step
    # (shadow writes + rollback) makes those replayable too, so the storm
    # recovers on both stages.
    ("read-storm", "io_error@aio.read:times=6", BOTH),
    ("bit-flip", "bit_flip@aio.read:times=1", BOTH),
    # run with a pinned pool of one PAGE (GRAD_WRITE_CASES)
    ("torn-grad-write", "torn_write@store.commit:times=1,key=grad16", BOTH),
    # optimizer-phase faults: injected into the chunked optimizer stream's
    # shadow writes and the small-shard state commits; the transaction
    # rolls the step back and the replay tier absorbs the fault
    ("opt-write-storm", "io_error@aio.write:times=6", BOTH),
    ("torn-opt-write", "torn_write@store.commit:times=1,key=master", BOTH),
    ("opt-slow", "slow@aio.write:p=0.4,delay_us=300", BOTH),
    ("pinned-squeeze", "pinned_exhaustion@pool.acquire:times=3", BOTH),
    ("slow-disk", "slow@aio.read:p=0.3,delay_us=200", BOTH),
    ("straggler", "straggler@rank.begin:rank=0,delay_us=1000,times=2", BOTH),
]

# stage-2 / cpu fast subset; opt-write-storm keeps one optimizer-phase
# fault in every tier-1 run
FAST_SMOKE_FAULTS = {"io-read-retry", "bit-flip", "opt-write-storm"}

# cases whose fault site is a gradient write: run under a pinned pool of
# one PAGE, so that every flush writes through and the fault fires
GRAD_WRITE_CASES = {"torn-grad-write"}


def matrix():
    if FULL:
        combos = [
            (s, w, t)
            for s in BOTH
            for w in (1, 2, 4)
            for t in ("cpu", "nvme")
        ]
    else:
        combos = [
            (ZeroStage.PARAMETERS, 2, "nvme"),
            (ZeroStage.PARAMETERS, 2, "cpu"),
            (ZeroStage.GRADIENTS, 2, "nvme"),
        ]
    params = []
    for fid, spec, stages in FAULT_CASES:
        for stage, world, tier in combos:
            if stage not in stages:
                continue
            if (
                not FULL
                and stage is ZeroStage.GRADIENTS
                and fid not in FAST_SMOKE_FAULTS
            ):
                continue
            if not FULL and tier == "cpu" and fid not in FAST_SMOKE_FAULTS:
                continue
            params.append(
                pytest.param(
                    fid,
                    spec,
                    stage,
                    world,
                    tier,
                    id=f"{fid}-zero{stage.value}-w{world}-{tier}",
                )
            )
    return params


class TestRecoverableMatrix:
    @pytest.mark.parametrize("fid,spec,stage,world,tier", matrix())
    def test_trains_bit_identical_under_faults(
        self, fid, spec, stage, world, tier
    ):
        ref_losses, ref_state = baseline(stage, world, tier)
        pressed = fid in GRAD_WRITE_CASES
        losses, state, _, injected = run_training(
            stage, world, tier, faults=spec, seed=11,
            budget=PAGE if pressed else None,
        )
        assert_bit_identical(
            state, ref_state, losses, ref_losses, detail=f"({fid})"
        )
        # the plane was armed; whatever it injected was fully absorbed
        if pressed and tier != "cpu":
            assert injected >= 1

    def test_recovery_counters_surface_in_report(self):
        spec = (
            "io_error@aio.read:times=2;"
            "bit_flip@aio.read:at=5;"
            "pinned_exhaustion@pool.acquire:times=1"
        )
        ref_losses, ref_state = baseline(ZeroStage.PARAMETERS, 2, "nvme")
        losses, state, rep, injected = run_training(
            ZeroStage.PARAMETERS, 2, "nvme", faults=spec
        )
        assert_bit_identical(state, ref_state, losses, ref_losses)
        assert rep.io_read_retries >= 2
        assert rep.checksum_refetches >= 1
        assert rep.pinned_fallbacks + rep.prefetch_fallbacks >= 1
        assert injected >= 4

    def test_read_storm_triggers_step_replay(self):
        ref_losses, ref_state = baseline(ZeroStage.PARAMETERS, 2, "nvme")
        losses, state, rep, _ = run_training(
            ZeroStage.PARAMETERS,
            2,
            "nvme",
            faults="io_error@aio.read:times=8",
            step_retries=3,
        )
        assert_bit_identical(state, ref_state, losses, ref_losses)
        assert 1 <= rep.step_retries <= 3

    @pytest.mark.parametrize(
        "stage", [ZeroStage.GRADIENTS, ZeroStage.PARAMETERS]
    )
    def test_optimizer_write_storm_triggers_step_replay(self, stage):
        """An exhausted write budget mid-optimizer rolls the transactional
        step back and rides the same replay tier as forward/backward
        faults — the PR-5 escalation carve-out is gone."""
        ref_losses, ref_state = baseline(stage, 2, "nvme")
        losses, state, rep, _ = run_training(
            stage,
            2,
            "nvme",
            faults="io_error@aio.write:times=6",
            step_retries=3,
        )
        assert_bit_identical(state, ref_state, losses, ref_losses)
        assert 1 <= rep.step_retries <= 3


    @pytest.mark.parametrize(
        "stage", [ZeroStage.GRADIENTS, ZeroStage.PARAMETERS]
    )
    def test_resident_optimizer_beside_nvme_rolls_back_and_replays(self, stage):
        """Optimizer state on the CPU, gradients (and stage-3 parameters)
        on NVMe: state is fetched as private copies — the undo log — and
        adopted by reference at commit.  A write storm on a later step's
        gradient landing (written through: a pinned pool of one PAGE) aborts
        it after earlier steps committed, one on the parameter shadow
        records aborts the optimizer phase itself with Adam already run on
        the copies; both replay bit-identically."""
        ref_losses, ref_state = baseline(stage, 2, "mixed")
        nvme_losses, nvme_state = baseline(stage, 2, "nvme")
        assert_bit_identical(ref_state, nvme_state, ref_losses, nvme_losses)
        specs = {"io_error@aio.write:key=grad16,after=20,times=6": PAGE}
        if stage is ZeroStage.PARAMETERS:
            specs["io_error@aio.write:key=param16,after=3,times=6"] = None
        for spec, budget in specs.items():
            losses, state, rep, _ = run_training(
                stage, 2, "mixed", faults=spec, step_retries=3, budget=budget
            )
            assert_bit_identical(
                state, ref_state, losses, ref_losses, detail=f"({spec})"
            )
            assert 1 <= rep.step_retries <= 3, spec

    @pytest.mark.parametrize(
        "stage", [ZeroStage.GRADIENTS, ZeroStage.PARAMETERS]
    )
    def test_a_failed_write_back_replays(self, stage):
        """A pinned pool of exactly one step's gradient staging keeps each
        flush dirty until the optimizer needs room beside it, then writes
        it back.  A write storm there aborts the step with the records
        still dirty; the abort drops them unwritten (gradients are not
        durable) and the replay recomputes them — bit-identically, with
        every pinned byte back in the pool."""
        from repro.core.offload import _aligned

        ref_losses, ref_state = baseline(stage, 2, "nvme")
        cfg = chaos_config(stage, 2, "nvme")
        with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
            opt = eng.optimizer
            opt.initialize_states()
            staging = sum(
                _aligned(4 * g.shard_numel) for g in opt.groups
            ) * 2  # ranks
        budget = -(-staging // PAGE) * PAGE
        losses, state, rep, injected = run_training(
            stage, 2, "nvme", budget=budget, step_retries=3,
            faults="io_error@aio.write:key=grad16,times=6",
        )
        assert_bit_identical(state, ref_state, losses, ref_losses)
        assert rep.step_retries >= 1
        assert injected

    @pytest.mark.parametrize("tier", ["nvme", "mixed"])
    def test_scaled_gradients_survive_a_replayed_optimizer_write(self, tier):
        """Under a loss scale the stored gradient shard is handed to Adam
        as it is — the kernel unscales tile by tile and never writes the
        gradient — so when the update is rolled back by a write fault, the
        replay re-reads the same bits."""
        extra = dict(loss_scale=8.0)
        stage = ZeroStage.PARAMETERS
        ref_losses, ref_state, _, _ = run_training(stage, 2, tier, **extra)
        losses, state, rep, _ = run_training(
            stage, 2, tier, step_retries=3, **extra,
            # only the optimizer phase writes parameter records
            faults="io_error@aio.write:key=param16,after=3,times=6",
        )
        assert_bit_identical(state, ref_state, losses, ref_losses)
        assert rep.step_retries >= 1

    def test_faults_under_read_ahead_roll_back_and_replay(self, tmp_path):
        """Corruption and a write storm land while the optimizer pipeline
        has reads and writes in flight: the worker-side CRC catches the
        flipped span and it is re-fetched; the exhausted write rolls the
        transaction back with its read-ahead drained and the step replays
        bit-identically — every staging buffer back in the pinned pool, no
        shadow record left behind, every spool file one of a live record's
        two slots, and only ``<key>.bin`` files once the engine closes."""
        stage, world = ZeroStage.PARAMETERS, 2
        ref_losses, ref_state = baseline(stage, world, "nvme")
        cfg = chaos_config(stage, world, "nvme", step_retries=3)
        cfg = replace(cfg, offload=replace(cfg.offload, nvme_dir=str(tmp_path)))
        batches = make_batches(world)
        # exp_avg is read by the optimizer pipeline alone, in spans (chunk
        # 97); three failures on one block exhaust its aio retry budget
        spec = (
            "bit_flip@aio.read:key=exp_avg,times=2;"
            "io_error@aio.write:key=exp_avg_sq,after=4,times=3"
        )
        with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
            losses = [eng.train_step(batches[0]).mean_loss]
            pool = eng.offload.pool
            live_before = pool._live_bytes
            with use_faults(spec, seed=5):
                losses += [eng.train_step(b).mean_loss for b in batches[1:]]
                rep = eng.report()
            assert pool._live_bytes == live_before
            assert spool_sweep(eng.offload.store) == []
            state = eng.gather_state()
        assert spool_sweep(eng.offload.store) == []
        assert_bit_identical(state, ref_state, losses, ref_losses)
        assert rep.checksum_refetches == 2
        assert rep.step_retries >= 1
        assert rep.checksum_failures == 0


class _OneRankOfMany(LoopBackend):
    """The loop backend, able to claim its ranks are separate processes:
    records the abort protocol a process-parallel backend would run."""

    def __init__(self, world):
        super().__init__(world)
        self.distributed = False
        self.aborts: list[bool] = []
        self.recoveries = 0

    @property
    def all_local(self):
        return not self.distributed

    def signal_abort(self, terminal=False):
        self.aborts.append(terminal)

    def recover_after_abort(self):
        self.recoveries += 1


class TestReplayDispatcher:
    """``_run_with_replay`` dispatches every transactional turn: a
    recoverable fault is retried, counted and flight-recorded; a terminal
    one tells the peers at once instead of leaving them to wait out their
    barrier timeout.  The turn here is a bare optimizer update over the
    gradients the last step left stored: with a pinned pool of one PAGE
    every flush writes its gradients through to NVMe, where they outlive
    the step (at the default budget they stay in pinned staging, and the
    step boundary drops them)."""

    def _trained_engine(self, backend, step_retries):
        cfg = chaos_config(
            ZeroStage.PARAMETERS, 2, "nvme", step_retries=step_retries,
            budget=PAGE,
        )
        eng = ZeroInfinityEngine(
            cfg, model_factory=model_factory, lr=1e-2, comm_backend=backend
        )
        for b in make_batches(2, steps=2):
            eng.train_step(b)
        backend.distributed = True  # the turn runs "under" an mp backend
        return eng

    def test_recoverable_fault_is_retried_counted_and_recorded(self):
        from repro.obs.flightrec import use_flightrec

        with self._trained_engine(_OneRankOfMany(2), 2) as ref:
            ref._run_with_replay(ref.optimizer.step)
            ref.comm.backend.distributed = False
            ref_state = ref.gather_state()

        backend = _OneRankOfMany(2)
        with self._trained_engine(backend, 2) as eng, use_flightrec() as fr:
            # one block's first try and both aio retries fail: the update
            # rolls back and the dispatcher replays it
            with use_faults("io_error@aio.write:times=3"):
                eng._run_with_replay(eng.optimizer.step)
            assert backend.aborts == [False] and backend.recoveries == 1
            assert eng.step_retries_used == 1
            assert [e.name for e in fr.events() if e.kind == "retry"] == [
                "step_replay"
            ]
            backend.distributed = False
            state = eng.gather_state()
        for name, expected in ref_state.items():
            assert np.array_equal(state[name], expected), name

    @pytest.mark.parametrize("kind", ["budget-exhausted", "unrecoverable"])
    def test_terminal_error_signals_peers_exactly_once(self, kind):
        backend = _OneRankOfMany(2)
        with self._trained_engine(backend, 0) as eng:
            if kind == "unrecoverable":

                def doomed():
                    raise FaultUnrecoverable(
                        "torn", site="optimizer.commit", kind="io_error"
                    )

                with pytest.raises(FaultUnrecoverable):
                    eng._run_with_replay(doomed)
            else:
                with use_faults("io_error@aio.write:times=3"):
                    with pytest.raises(FaultUnrecoverable) as exc:
                        eng._run_with_replay(eng.optimizer.step)
                # attributed to the fault that spent the budget
                assert isinstance(exc.value.__cause__, OSError)
                assert exc.value.site == "aio.write"
                assert exc.value.attempts == 0
            assert backend.aborts == [True] and backend.recoveries == 0
            assert eng.step_retries_used == 0
            backend.distributed = False


class TestFaultBetweenFlushChunks:
    """Process-parallel: the bucket flush is one exchange of several ring
    chunks.  A recoverable fault on one rank after chunk 0 crossed and
    before chunk 1 does leaves every bucket with half of its peers' bytes —
    which the unwind must discard, not reduce."""

    @pytest.mark.mp
    def test_replay_is_bit_identical_and_leaves_no_segment(self):
        import glob

        from repro.comm import run_multiproc
        from repro.comm.shm import SEGMENT_PREFIX
        from repro.tensor.flat import pad_to_multiple

        stage, world, tier = ZeroStage.PARAMETERS, 2, "cpu"
        ref_losses, ref_state = baseline(stage, world, tier)
        # the step-boundary flush publishes every (padded) gradient once;
        # a slot a little over half of that makes it exactly two chunks
        fill_bytes = sum(
            pad_to_multiple(p.data.size, world) * p.data.dtype.itemsize
            for p in model_factory().parameters()
        )
        slot = fill_bytes // 2 + 64

        def worker(backend):
            ring = backend.session.ring
            seen = {"chunks_of_long_exchanges": 0, "seq_after_recovery": []}
            if backend.rank == 1:
                publish = ring.publish

                def faulty_publish(buf, rank, *, total, **chunk):
                    if total > ring.slot_capacity:
                        seen["chunks_of_long_exchanges"] += 1
                        if seen["chunks_of_long_exchanges"] == 2:
                            # chunk 0 of the first flush is with the peer
                            raise OSError("transient fault between chunks")
                    publish(buf, rank, total=total, **chunk)

                ring.publish = faulty_publish
            recover = backend.recover_after_abort

            def recording_recover():
                recover()
                seen["seq_after_recovery"].append(backend._seq)

            backend.recover_after_abort = recording_recover
            cfg = chaos_config(stage, world, tier)
            with ZeroInfinityEngine(
                cfg, model_factory=model_factory, lr=1e-2, comm_backend=backend
            ) as eng:
                store = eng.coordinator.bucket_store
                reset = store.reset

                def recording_reset():
                    seen["banked_at_abort"] = banked_grads(store)
                    reset()
                    seen["banked_after_reset"] = banked_grads(store)

                store.reset = recording_reset
                losses = [eng.train_step(b).mean_loss for b in make_batches(world)]
                return (
                    losses,
                    eng.gather_state(),
                    eng.step_retries_used,
                    backend.peer_aborts_seen,
                    seen,
                )

        before = set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))
        out = run_multiproc(world, worker, timeout=60.0, slot_capacity=slot)
        assert set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")) == before
        for rank, (losses, state, retries, peer_aborts, seen) in enumerate(
            out.results
        ):
            assert_bit_identical(
                state, ref_state, losses, ref_losses, detail=f"(rank {rank})"
            )
            # one collective replay: rank 1 by its own OSError, rank 0 by the
            # CommPeerAbort its wait for chunk 1 turned into
            assert retries == 1
            assert peer_aborts == (1 if rank == 0 else 0)
            # the bucket still held the whole step, and dropped it
            assert seen["banked_at_abort"] > 0
            assert seen["banked_after_reset"] == 0
            assert seen["seq_after_recovery"] == [0]


class TestResidentOptimizerHasNoFaultSite:
    """Without an NVMe tier the optimizer phase touches no aio request, no
    spool commit and no pinned buffer: in-place update there IS the commit
    because nothing the fault plane can arm fires inside it."""

    ALL_KINDS = (
        "io_error@aio.read:times=99;io_error@aio.write:times=99;"
        "torn_write@store.commit:times=99;bit_flip@aio.read:times=99;"
        "slow@aio.read:times=99;slow@aio.write:times=99;"
        "pinned_exhaustion@pool.acquire:times=99;"
        "straggler@rank.begin:times=99,delay_us=10"
    )

    @pytest.mark.parametrize(
        "stage,device",
        [
            (ZeroStage.GRADIENTS, OffloadDevice.CPU),
            (ZeroStage.PARAMETERS, OffloadDevice.CPU),
            (ZeroStage.PARAMETERS, OffloadDevice.NONE),
        ],
    )
    def test_every_fault_kind_armed_none_fires_in_the_optimizer(
        self, stage, device
    ):
        from repro.faults.runtime import get_faults

        cfg = ZeroConfig(
            world_size=2,
            stage=stage,
            offload=OffloadConfig(
                param_device=(
                    device if stage is ZeroStage.PARAMETERS else OffloadDevice.NONE
                ),
                grad_device=device,
                optimizer_device=device,
            ),
            loss_scale=1.0,
        )
        fired_inside = []
        with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
            step = eng.optimizer.step

            def watched_step(**kwargs):
                before = dict(get_faults().injected)
                step(**kwargs)
                fired_inside.append(dict(get_faults().injected) != before)

            eng.optimizer.step = watched_step  # type: ignore[method-assign]
            with use_faults(self.ALL_KINDS, seed=1):
                for b in make_batches(2):
                    eng.train_step(b)
                injected = dict(get_faults().injected)
            assert eng.step_retries_used == 0
        assert fired_inside == [False] * STEPS
        # the plane was live: the one site a resident step does visit fired
        assert injected == {"straggler@rank.begin": 2 * STEPS}


class TestUnrecoverable:
    def test_persistent_corruption_is_one_structured_error(self):
        cfg = chaos_config(ZeroStage.PARAMETERS, 2, "nvme")
        batches = make_batches(2)
        with ZeroInfinityEngine(
            cfg, model_factory=model_factory, lr=1e-2
        ) as eng:
            with use_faults("bit_flip@aio.read:times=1000"):
                with pytest.raises(FaultUnrecoverable) as exc:
                    for b in batches:
                        eng.train_step(b)
            # attributed: which tier gave up, on what, after how many tries
            assert exc.value.site == "store.read"
            assert exc.value.kind == "checksum"
            assert exc.value.attempts >= 1
            rep = eng.report()
        assert rep.checksum_failures >= 1
        # the engine context exited cleanly after the failure (no hang,
        # no secondary error) — reaching here is the assertion

    def test_step_replay_never_retries_unrecoverable(self):
        """A FaultUnrecoverable must cost zero replay budget."""
        cfg = chaos_config(ZeroStage.PARAMETERS, 1, "nvme", step_retries=2)
        with ZeroInfinityEngine(
            cfg, model_factory=model_factory, lr=1e-2
        ) as eng:
            with use_faults("bit_flip@aio.read:times=1000"):
                with pytest.raises(FaultUnrecoverable):
                    eng.train_step(make_batches(1)[0])
            assert eng.step_retries_used == 0


class TestSanitizedChaos:
    def test_recovery_paths_are_zerosan_clean(self):
        """Retry, re-fetch, and fallback must not bend lifecycle, ordering,
        or aio-race rules — run a faulted training under every runtime
        checker pass in record mode and require silence."""
        spec = (
            "io_error@aio.read:times=2;"
            "pinned_exhaustion@pool.acquire:times=1;"
            "bit_flip@aio.read:at=7;"
            "io_error@aio.write:times=3"
        )
        with use_checker(CheckConfig.from_spec("all", mode="record")) as ctx:
            losses, state, rep, injected = run_training(
                ZeroStage.PARAMETERS, 2, "nvme", faults=spec
            )
        assert ctx.violation_counts() == {}
        assert injected >= 3


# -- property-based random schedules -----------------------------------------

RULE_FRAGMENTS = [
    "io_error@aio.read:times=%d",
    "io_error@aio.write:times=%d",
    "bit_flip@aio.read:times=%d",
    "torn_write@store.commit:times=%d",
    "pinned_exhaustion@pool.acquire:times=%d",
    "slow@aio.read:times=%d,delay_us=300",
    "straggler@rank.begin:rank=0,times=%d,delay_us=500",
]

rule_st = st.builds(
    lambda frag, times: frag % times,
    st.sampled_from(RULE_FRAGMENTS),
    st.integers(min_value=1, max_value=4),
)
schedule_st = st.lists(rule_st, min_size=1, max_size=2).map(";".join)


class TestRandomSchedules:
    @settings(
        max_examples=25 if FULL else 6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(spec=schedule_st, seed=st.integers(min_value=0, max_value=999))
    # five torn writes against four replays: the budget runs out
    @example(
        spec="torn_write@store.commit:times=4;torn_write@store.commit:times=1",
        seed=0,
    )
    def test_recovers_or_fails_structurally(self, spec, seed):
        """Any bounded schedule either trains to bit-identical weights or
        surfaces exactly one attributed FaultUnrecoverable — never a hang,
        a raw low-level error, or silently different bits."""
        ref_losses, ref_state = baseline(ZeroStage.PARAMETERS, 2, "nvme")
        try:
            losses, state, _, _ = run_training(
                ZeroStage.PARAMETERS,
                2,
                "nvme",
                faults=spec,
                seed=seed,
                step_retries=4,
            )
        except FaultUnrecoverable as err:
            assert err.site, spec
            assert err.kind, spec
        else:
            assert_bit_identical(
                state, ref_state, losses, ref_losses, detail=f"({spec!r})"
            )
