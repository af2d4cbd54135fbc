"""ZeroInfinityEngine end-to-end: numerical equivalence with DDP across
every stage and placement, loss scaling, reporting, and lifecycle.

These are the headline correctness tests of the reproduction: training with
ZeRO-3 + NVMe offload must produce the same losses and weights as classic
data parallelism, step for step.
"""

import os

import numpy as np
import pytest

from repro.baselines.ddp import DDPTrainer
from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.nn import GPTModel, TransformerConfig
from repro.nn.parameter import PartitionState
from repro.utils.rng import seeded_rng
from tests.helpers import ddp_state, spool_sweep


WORLD = 4
VOCAB = 64


def model_factory():
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=32, num_heads=4, vocab_size=VOCAB, max_seq=16
    )
    return GPTModel(cfg, rng=seeded_rng(7))


def make_batches(steps, seed=3, bsz=2, seq=8):
    rng = seeded_rng(seed)
    out = []
    for _ in range(steps):
        out.append(
            [
                (
                    rng.integers(0, VOCAB, size=(bsz, seq)),
                    rng.integers(0, VOCAB, size=(bsz, seq)),
                )
                for _ in range(WORLD)
            ]
        )
    return out


def ddp_reference(all_batches, lr=1e-2):
    ddp = DDPTrainer(model_factory, WORLD, lr=lr)
    losses = [np.mean(ddp.train_step(b)) for b in all_batches]
    return losses, ddp_state(ddp)


def zero_config(stage, param_dev, grad_dev, opt_dev, **kw):
    return ZeroConfig(
        world_size=WORLD,
        stage=stage,
        offload=OffloadConfig(
            param_device=param_dev,
            grad_device=grad_dev,
            optimizer_device=opt_dev,
            optimizer_chunk_numel=97,  # prime: exercises chunk remainders
        ),
        loss_scale=1.0,
        **kw,
    )


G, C, N = OffloadDevice.NONE, OffloadDevice.CPU, OffloadDevice.NVME

PLACEMENTS = [
    pytest.param(ZeroStage.NONE, G, G, G, id="dp-baseline"),
    pytest.param(ZeroStage.OPTIMIZER, G, G, G, id="zero1"),
    pytest.param(ZeroStage.GRADIENTS, G, G, G, id="zero2"),
    pytest.param(ZeroStage.GRADIENTS, G, C, C, id="zero-offload"),
    pytest.param(ZeroStage.PARAMETERS, G, G, G, id="zero3"),
    pytest.param(ZeroStage.PARAMETERS, C, C, C, id="inf-cpu"),
    pytest.param(ZeroStage.PARAMETERS, N, N, N, id="inf-nvme"),
    pytest.param(ZeroStage.PARAMETERS, N, C, N, id="inf-mixed"),
]


class TestEquivalenceWithDDP:
    """Every strategy trains bit-identically to the DDP oracle (Sec. 2:
    ZeRO 'retain[s] ... computational granularity and communication
    efficiency' of data parallelism — and its numerics)."""

    @pytest.fixture(scope="class")
    def reference(self):
        batches = make_batches(3)
        losses, state = ddp_reference(batches)
        return batches, losses, state

    @pytest.mark.parametrize("stage,pdev,gdev,odev", PLACEMENTS)
    def test_losses_and_weights_match(self, reference, stage, pdev, gdev, odev):
        batches, ref_losses, ref_state = reference
        cfg = zero_config(stage, pdev, gdev, odev)
        with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
            for step, b in enumerate(batches):
                result = eng.train_step(b)
                assert result.mean_loss == ref_losses[step], f"step {step}"
            state = eng.gather_state()
        for name, ref in ref_state.items():
            np.testing.assert_array_equal(state[name], ref, err_msg=name)

    def test_prefetch_off_equivalent(self, reference):
        batches, ref_losses, _ = reference
        cfg = zero_config(ZeroStage.PARAMETERS, N, N, N)
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=cfg.offload,
            loss_scale=1.0,
            prefetch_depth=0,
        )
        with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
            for step, b in enumerate(batches):
                assert eng.train_step(b).mean_loss == ref_losses[step]

    def test_activation_checkpointing_equivalent(self, reference):
        batches, ref_losses, _ = reference

        def ckpt_factory():
            cfg = TransformerConfig(
                num_layers=2,
                hidden_dim=32,
                num_heads=4,
                vocab_size=VOCAB,
                max_seq=16,
                activation_checkpointing=True,
            )
            return GPTModel(cfg, rng=seeded_rng(7))

        cfg = zero_config(ZeroStage.PARAMETERS, N, N, N)
        with ZeroInfinityEngine(cfg, model_factory=ckpt_factory, lr=1e-2) as eng:
            for step, b in enumerate(batches):
                assert eng.train_step(b).mean_loss == ref_losses[step]


class TestPartitionedInit:
    def test_model_never_fully_materialized(self, monkeypatch):
        from repro.nn.init_context import PartitionedInitContext

        routed = []  # parameters the context's partition_fn grouped
        init = PartitionedInitContext.__init__

        def counting_init(ctx, partition_fn):
            def counted(module):
                groups = partition_fn(module)
                routed.extend(p for g in groups for p in g.params)
                return groups

            init(ctx, counted)

        monkeypatch.setattr(PartitionedInitContext, "__init__", counting_init)
        cfg = zero_config(ZeroStage.PARAMETERS, N, N, N)
        with ZeroInfinityEngine(cfg, model_factory=model_factory) as eng:
            ctx = eng.init_context
            assert ctx is not None
            total = sum(p.full_numel for p in eng.model.parameters()) * 4
            # Sec. 7.2: parameters are partitioned as each module's
            # constructor returns, so the peak transient is the largest
            # leaf module's parameters, far below the total
            largest = max(
                sum(p.full_numel for p in m.direct_parameters()) * 4
                for m in eng.model.modules()
            )
            assert ctx.peak_unpartitioned_bytes == largest
            assert ctx.peak_unpartitioned_bytes < total / 2
            assert len(routed) == len(list(eng.model.named_parameters()))

    def test_all_params_partitioned_after_init(self):
        cfg = zero_config(ZeroStage.PARAMETERS, C, C, C)
        with ZeroInfinityEngine(cfg, model_factory=model_factory) as eng:
            states = {p.state for p in eng.model.parameters()}
            assert states == {PartitionState.PARTITIONED}

    def test_prebuilt_model_partitioned_post_hoc(self):
        model = model_factory()
        cfg = zero_config(ZeroStage.PARAMETERS, G, G, G)
        with ZeroInfinityEngine(cfg, model=model) as eng:
            assert all(
                p.state is PartitionState.PARTITIONED for p in model.parameters()
            )

    def test_both_model_args_raise(self):
        cfg = zero_config(ZeroStage.PARAMETERS, G, G, G)
        with pytest.raises(ValueError):
            ZeroInfinityEngine(cfg, model=model_factory(), model_factory=model_factory)
        with pytest.raises(ValueError):
            ZeroInfinityEngine(cfg)


class TestLossScaling:
    def test_dynamic_scaler_skips_overflow_steps(self):
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(),
            loss_scale=None,  # dynamic
        )
        with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
            init_scale = eng.scaler.loss_scale
            assert init_scale == 2.0**16
            batches = make_batches(2)
            r1 = eng.train_step(batches[0])
            # fp32 model with scale 65536 should not overflow
            assert not r1.skipped

    def test_static_scale_equivalence(self):
        """Training with static scale k == training with scale 1."""
        batches = make_batches(3, seed=9)
        losses = {}
        for scale in (1.0, 256.0):
            cfg = ZeroConfig(
                world_size=WORLD,
                stage=ZeroStage.PARAMETERS,
                offload=OffloadConfig(),
                loss_scale=scale,
            )
            with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
                losses[scale] = [eng.train_step(b).mean_loss for b in batches]
        np.testing.assert_allclose(losses[1.0], losses[256.0], rtol=1e-4)


class TestEngineBehaviour:
    def test_wrong_batch_count_raises(self):
        cfg = zero_config(ZeroStage.PARAMETERS, G, G, G)
        with ZeroInfinityEngine(cfg, model_factory=model_factory) as eng:
            with pytest.raises(ValueError):
                eng.train_step(make_batches(1)[0][:2])

    def test_evaluate_does_not_update(self):
        cfg = zero_config(ZeroStage.PARAMETERS, C, C, C)
        with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
            b = make_batches(1)[0]
            before = eng.gather_state()
            eng.evaluate(*b[0])
            after = eng.gather_state()
            for name in before:
                np.testing.assert_array_equal(before[name], after[name])

    def test_report_counts_movement(self):
        cfg = zero_config(ZeroStage.PARAMETERS, N, N, N)
        with ZeroInfinityEngine(cfg, model_factory=model_factory) as eng:
            eng.train_step(make_batches(1)[0])
            eng.train_step(make_batches(1, seed=5)[0])
            rep = eng.report()
            assert rep.nvme_read_bytes > 0
            assert rep.nvme_write_bytes > 0
            assert rep.gathers > 0 and rep.releases > 0
            assert rep.prefetch_hits > 0  # second step prefetches
            assert rep.comm_bytes_by_op.get("allgather", 0) > 0
            assert rep.comm_bytes_by_op.get("reduce_scatter", 0) > 0

    def test_bandwidth_centric_spreads_link_traffic(self):
        cfg = zero_config(ZeroStage.PARAMETERS, C, C, C)
        with ZeroInfinityEngine(cfg, model_factory=model_factory) as eng:
            eng.train_step(make_batches(1)[0])
            rep = eng.report()
            assert len(rep.host_link_bytes) == WORLD
            loads = list(rep.host_link_bytes.values())
            assert max(loads) < 2 * min(loads)  # roughly even

    def test_training_reduces_loss_over_steps(self):
        cfg = zero_config(ZeroStage.PARAMETERS, N, N, N)
        rng = seeded_rng(0)
        fixed = [
            (rng.integers(0, VOCAB, (2, 8)), rng.integers(0, VOCAB, (2, 8)))
            for _ in range(WORLD)
        ]
        with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=5e-3) as eng:
            first = eng.train_step(fixed).mean_loss
            for _ in range(15):
                last = eng.train_step(fixed).mean_loss
            assert last < first * 0.8

    def test_world_size_one(self):
        cfg = ZeroConfig(
            world_size=1,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(param_device=N, optimizer_device=N),
            loss_scale=1.0,
        )
        with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
            b = make_batches(1)[0][:1]
            r = eng.train_step(b)
            assert np.isfinite(r.mean_loss)


def ckpt_model_factory():
    cfg = TransformerConfig(
        num_layers=2,
        hidden_dim=32,
        num_heads=4,
        vocab_size=VOCAB,
        max_seq=16,
        activation_checkpointing=True,
    )
    return GPTModel(cfg, rng=seeded_rng(7))


def nvme_engine(world, **kw):
    cfg = ZeroConfig(
        world_size=world,
        stage=ZeroStage.PARAMETERS,
        offload=OffloadConfig(param_device=N, grad_device=N, optimizer_device=N),
        loss_scale=1.0,
        **kw,
    )
    return ZeroInfinityEngine(cfg, model_factory=ckpt_model_factory, lr=1e-2)


def world_batches(world, steps, seed=3):
    rng = seeded_rng(seed)
    return [
        [
            (rng.integers(0, VOCAB, (2, 8)), rng.integers(0, VOCAB, (2, 8)))
            for _ in range(world)
        ]
        for _ in range(steps)
    ]


def landed_state(eng):
    """(landed records, pinned bytes the not-landed in-flight reads hold)."""
    from repro.core.offload import LANDED, READING

    records = eng.offload._records.values()
    reading = {id(s): s for state, _, s in records if state == READING}
    landed = sum(state == LANDED for state, _, _ in records)
    return landed, sum(s.nbytes for s in reading.values())


class TestReadOnce:
    """Stage 3 with every state on NVMe reads each parameter record from
    NVMe once per step: the first gather lands a prefetched record, and the
    tied head's gather, the checkpoint recompute, backward and every later
    simulated rank's turn copy it out of the same pinned staging.

    So a step reads each record it writes once.  Per element of an fp32
    model: the parameter record (4 B), which is also the master — the
    optimizer takes it from the staging the gathers landed it in — and the
    exp_avg / exp_avg_sq shards (8 B): 12 B, and it writes the updated
    record and the two moments: 12 B.  The gradient (4 B) crosses neither
    way: the bucket flush leaves it dirty in pinned staging, where the
    optimizer reads it, and the step boundary drops it.  The e2e
    ``nvme_z3`` workload has 2 362 240 elements (a 16 896 x 128 tied table
    and one 128-wide layer, every numel even), so its per-step
    ``nvme.read_mb`` = ``nvme.write_mb`` = 12 x 2 362 240 B = 28.34688;
    with an fp32 master record beside the parameter it was 16 B per
    element, 37.79584, and with the gradient written by the flush and read
    back by the optimizer 20 B, 47.2448.  With a record read per gather
    instead, rank turn 1 re-read what turn 0 had read and each turn read
    the 8.65 MB table twice: 76.6444 MB at 20 B.
    """

    @pytest.mark.parametrize("world", [2, 4])
    def test_each_record_is_read_once_per_step(self, world, monkeypatch):
        from collections import Counter

        from repro.nvme.store import TensorStore

        reads = Counter()
        read_async = TensorStore.read_async

        def counting(store, key, out=None):
            reads.update([key] if isinstance(key, str) else key)
            return read_async(store, key, out)

        monkeypatch.setattr(TensorStore, "read_async", counting)
        batches = world_batches(world, 3)
        ddp = DDPTrainer(ckpt_model_factory, world, lr=1e-2)
        ref_losses = [ddp.train_step(b) for b in batches]
        links = []
        for depth in (2, 0):  # depth 0: no prefetch, every read from NVMe
            with nvme_engine(world, prefetch_depth=depth) as eng:
                c, store = eng.offload.counters, eng.offload.store
                link = []
                for step, b in enumerate(batches):
                    reads.clear()
                    read, before = c.nvme_read_bytes, dict(c.host_link_bytes)
                    losses = eng.train_step(b).losses
                    assert losses == list(ref_losses[step]), f"step {step}"
                    link.append(
                        {r: n - before.get(r, 0) for r, n in c.host_link_bytes.items()}
                    )
                    if depth == 0 or step == 0:
                        continue  # no trace to prefetch along yet
                    params = {k: n for k, n in reads.items() if k.endswith(".param16")}
                    assert len(params) == world * len(eng.partitioner.groups)
                    assert set(params.values()) == {1}
                    # every record once: the parameters, and the optimizer's
                    # gradient and state reads
                    records = sum(store.nbytes(k) for k in store.keys())
                    assert c.nvme_read_bytes - read == records
                state = eng.gather_state()
                links.append(link)
            for name, ref in ddp_state(ddp).items():
                np.testing.assert_array_equal(state[name], ref, err_msg=name)
        assert links[0] == links[1]  # the host-link copies all still happen

    def test_evaluate_releases_landed_records(self):
        with nvme_engine(2) as eng:
            (batch,) = world_batches(2, 1)
            eng.train_step(batch)  # records the prefetch trace
            assert landed_state(eng)[0] == 0  # the optimizer released them
            eng.evaluate(*batch[0])
            landed, in_flight = landed_state(eng)
            assert landed == 0
            assert eng.offload.pool._live_bytes == in_flight

    def test_an_aborted_step_releases_landed_records(self, monkeypatch):
        with nvme_engine(2) as eng:
            first, second = world_batches(2, 2)
            eng.train_step(first)
            begin_rank = eng.coordinator.begin_rank

            def fail_on_rank_1(rank):
                if rank == 1:  # rank 0's turn has landed every record
                    assert landed_state(eng)[0] > 0
                    raise RuntimeError("injected")
                begin_rank(rank)

            monkeypatch.setattr(eng.coordinator, "begin_rank", fail_on_rank_1)
            with pytest.raises(RuntimeError, match="injected"):
                eng.train_step(second)
            landed, in_flight = landed_state(eng)
            assert landed == 0
            assert eng.offload.pool._live_bytes == in_flight

    def test_a_failed_prefetch_falls_back_under_the_sanitizer(self):
        """A prefetch read that used up its aio retries falls back to a
        synchronous re-read, and the sanitizer sees no stale alias of the
        gather buffer it was reading into: the failed request's error keeps
        no frame that holds a view of it."""
        from repro.check.config import CheckConfig
        from repro.faults.runtime import use_faults

        def run(**kw):
            first, second = world_batches(2, 2)
            with nvme_engine(2, **kw) as eng:
                losses = [eng.train_step(first).mean_loss]
                with use_faults("io_error@aio.read:times=3"):
                    losses.append(eng.train_step(second).mean_loss)
                return losses, eng.offload.counters.prefetch_fallbacks

        plain = run()
        assert plain[1] == 2
        assert run(check=CheckConfig(zerosan=True, races=True)) == plain


class TestDirtyGradients:
    """NVMe gradients are the pinned pool's dirty records from their flush
    to the step boundary: the optimizer, the overflow check and the clip
    norm read them where they sit, and every step end — committed,
    skipped or aborted — hands every pinned byte back to the pool."""

    @staticmethod
    def _engine(**kw):
        cfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(param_device=N, grad_device=N, optimizer_device=N),
            **{"loss_scale": 1.0, **kw},
        )
        return ZeroInfinityEngine(cfg, model_factory=ckpt_model_factory, lr=1e-2)

    def test_every_step_end_empties_the_pool(self, monkeypatch):
        first, second, third = world_batches(2, 3)
        with self._engine(loss_scale=2.0) as eng:
            pool = eng.offload.pool
            check = eng.optimizer.grads_overflowed
            eng.train_step(first)  # committed
            assert pool._live_bytes == 0
            assert eng.offload.counters.nvme_write_bytes > 0
            monkeypatch.setattr(eng.optimizer, "grads_overflowed", lambda: True)
            assert eng.train_step(second).skipped
            assert pool._live_bytes == 0
            monkeypatch.setattr(eng.optimizer, "grads_overflowed", check)

            def fail(**kw):
                # every gradient of the step is dirty in pinned staging
                assert pool._live_bytes > 0
                raise RuntimeError("injected")

            monkeypatch.setattr(eng.optimizer, "step", fail)
            with pytest.raises(RuntimeError, match="injected"):
                eng.train_step(third)
            assert pool._live_bytes == 0
            assert not eng.offload._records

    @pytest.mark.parametrize(
        "kw",
        [dict(loss_scale=None), dict(grad_clip=0.5), dict(dtype=np.float16)],
        ids=["dynamic-scale", "clipped", "fp16"],
    )
    def test_overflow_check_and_clip_norm_read_nothing_from_nvme(self, kw):
        """``nvme_z3``'s engine shape (benchmarks/e2e/workloads.py): world
        2, stage 3, every state on NVMe, one 128-wide layer and a 16 896 x
        128 tied table, N = 2 362 240 elements in 16 tensors and 9 parameter
        groups — tok_emb (the tied table), pos_emb, ln1, attn.qkv,
        attn.proj, ln2, mlp.fc_in, mlp.fc_out and ln_f; the head registers
        only the tied table — every group's numel even (no shard padding).

        fp32 parameters: each group's master is its parameter record.  A
        step reads that record once (4 B per element), by the gathers, and
        the optimizer takes it from the pinned staging they left it in; it
        reads the two moments (8 B).  It writes the record and the two
        moments back: 12 x 2 362 240 B = 28 346 880 B each way, three
        shadow records promoted per (group, rank) shard: 9 groups x 3
        records x 2 ranks = 54 (one per parameter, before records were per
        group: 16 x 3 x 2 = 96).  With an fp32 master beside the record it
        was 16 B each way (37 795 840 B) and four promotes per shard.  The
        same holds with dynamic loss
        scaling (the overflow check reads every gradient shard) and with
        clipping (the norm does), where each was one more read of every
        gradient from NVMe, 4 B per element, before gradients stayed in
        pinned staging.

        fp16 parameters keep their fp32 master: the record (2 B) and the
        three fp32 shards (12 B) each way, 14 x 2 362 240 = 33 071 360 B,
        and four promotes per shard: 9 x 4 x 2 = 72."""
        dtype = kw.pop("dtype", np.float32)
        with self._nvme_z3(dtype, **kw) as eng:
            numel = 2_362_240
            assert eng.model.num_parameters() == numel
            assert len(eng.model.parameters()) == 16
            assert len(eng.partitioner.groups) == 9
            shards = 2 * 9
            counters = eng.offload.counters
            promotes = []
            promote = eng.offload.store.promote
            eng.offload.store.promote = lambda src, dst: (
                promotes.append(dst),
                promote(src, dst),
            )[1]
            moved = []
            for batch in self._nvme_z3_batches(3):
                before = counters.nvme_read_bytes, counters.nvme_write_bytes
                del promotes[:]
                assert not eng.train_step(batch).skipped
                moved.append(
                    (
                        counters.nvme_read_bytes - before[0],
                        counters.nvme_write_bytes - before[1],
                        len(promotes),
                    )
                )
        per_element, per_shard = (12, 3) if dtype == np.float32 else (14, 4)
        # step 0 has no trace to prefetch along yet
        assert moved[1:] == [(per_element * numel,) * 2 + (per_shard * shards,)] * 2
        assert per_shard * shards == (54 if dtype == np.float32 else 72)

    def test_a_steady_step_reuses_every_spool_file(self, monkeypatch):
        """On ``nvme_z3``'s shape each of the 54 records owns two slot files
        and every write lands in one of them: from the third step on the
        spool holds the same 108 files, inode for inode, and a step with
        ``os.replace`` and ``os.rename`` refusing still commits."""
        with self._nvme_z3(np.float32) as eng:
            spool = eng.offload.store.directory

            def files():
                return {(e.name, e.inode()) for e in os.scandir(spool)}

            def refuse(*args, **kwargs):
                raise AssertionError("a steady step renames no file")

            seen = []
            for step, batch in enumerate(self._nvme_z3_batches(6)):
                if step == 5:
                    monkeypatch.setattr(os, "replace", refuse)
                    monkeypatch.setattr(os, "rename", refuse)
                before = {k: ref.step for k, ref in eng.optimizer._refs.items()}
                assert not eng.train_step(batch).skipped
                after = {k: ref.step for k, ref in eng.optimizer._refs.items()}
                assert after == {k: before.get(k, 0) + 1 for k in after}
                seen.append(files())
            monkeypatch.undo()
            assert spool_sweep(eng.offload.store) == []
        assert len(seen[2]) == 2 * 54
        assert seen[2] == seen[3] == seen[4] == seen[5]

    @staticmethod
    def _nvme_z3(dtype, *, grad_clip=None, **kw):
        """``nvme_z3``'s engine shape (benchmarks/e2e/workloads.py) with
        ``dtype`` parameters."""
        model_cfg = TransformerConfig(
            num_layers=1,
            hidden_dim=128,
            num_heads=4,
            vocab_size=16896,
            max_seq=8,
            activation_checkpointing=True,
        )
        cfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(param_device=N, grad_device=N, optimizer_device=N),
            **{"loss_scale": 1.0, **kw},
        )
        return ZeroInfinityEngine(
            cfg,
            model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(0), dtype=dtype),
            grad_clip=grad_clip,
        )

    @staticmethod
    def _nvme_z3_batches(steps):
        rng = seeded_rng(1)
        for _ in range(steps):
            yield [
                (rng.integers(0, 16896, (1, 8)), rng.integers(0, 16896, (1, 8)))
                for _ in range(2)
            ]

    def test_fp16_parameter_records_go_back_before_the_optimizer_reads(self):
        """An fp16 parameter keeps its fp32 master, so the optimizer never
        takes its record: the record goes back to the pinned pool at the
        first staging acquisition after its gathers that is not a prefetch
        (a gradient flush, the optimizer's reads) instead of living until
        the commit promotes it.

        On ``nvme_z3``'s shape no parameter record is landed when the
        optimizer step begins, the step still moves 14 x 2 362 240 =
        33 071 360 B each way, and the pool's occupancy (live + cached)
        peaks at 30 658 560 B in every step — the peak measured the same
        way when every landed record went back at such an acquisition.
        Kept to the commit, the records raised it to 34 983 936 B."""
        from repro.core.offload import LANDED

        with self._nvme_z3(np.float16) as eng:
            counters, pool = eng.offload.counters, eng.offload.pool
            step = eng.optimizer.step
            landed_at_step = []

            def observed_step(**kw):
                landed_at_step.append(
                    sorted(
                        k
                        for k, rec in eng.offload._records.items()
                        if rec[0] == LANDED
                    )
                )
                return step(**kw)

            eng.optimizer.step = observed_step
            moved = []
            for batch in self._nvme_z3_batches(3):
                before = counters.nvme_read_bytes, counters.nvme_write_bytes
                pool.stats.peak_bytes = 0
                assert not eng.train_step(batch).skipped
                moved.append(
                    (
                        counters.nvme_read_bytes - before[0],
                        counters.nvme_write_bytes - before[1],
                        pool.stats.peak_bytes,
                    )
                )
        assert landed_at_step == [[]] * 3
        # step 0 has no trace to prefetch along yet
        assert [m[:2] for m in moved[1:]] == [(33_071_360,) * 2] * 2
        assert max(m[2] for m in moved) <= 30_658_560


class TestTilingIntegration:
    def test_engine_tiles_oversized_linears(self):
        cfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(),
            loss_scale=1.0,
            tile_linear_threshold_numel=32 * 32 * 2,  # tile the (hd,4hd) MLPs
            tile_factor=4,
        )
        with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as eng:
            from repro.core.tiling import TiledLinear

            tiled = [m for m in eng.model.modules() if isinstance(m, TiledLinear)]
            assert tiled  # the 32->128 and 128->32 MLP linears qualify
            rng = seeded_rng(4)
            b = [
                (rng.integers(0, VOCAB, (2, 8)), rng.integers(0, VOCAB, (2, 8)))
                for _ in range(2)
            ]
            r = eng.train_step(b)
            assert np.isfinite(r.mean_loss)

    def test_tiled_engine_matches_untiled(self):
        batches = make_batches(2, seed=21)

        def run(tile_factor):
            cfg = ZeroConfig(
                world_size=WORLD,
                stage=ZeroStage.PARAMETERS,
                offload=OffloadConfig(),
                loss_scale=1.0,
                tile_linear_threshold_numel=32 * 32 * 2 if tile_factor > 1 else None,
                tile_factor=tile_factor,
            )
            with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2) as e:
                return [e.train_step(b).mean_loss for b in batches]

        np.testing.assert_allclose(run(1), run(4), rtol=1e-5)
