"""Bucketed, zero-copy communication runtime: bit-equivalence and units.

The headline guarantee: routing every stage's gradients through the
coalesced allgather + gradient-bucket runtime changes *how many*
collectives run, not a single bit of the training numerics.  Bucketed
training must produce weights and losses **bit-identical** to the DDP
oracle (one allreduce per parameter: the same elementwise reduction in the
same rank order) whatever the bucket capacity.  The collective-level
reference — a bucket flush against one padded reduce-scatter per
parameter — is in ``TestGradientBucketStore``.
"""

import numpy as np
import pytest

from repro.baselines.ddp import DDPTrainer
from repro.comm import allgather, allgather_into, reduce_scatter, reduce_scatter_into
from repro.comm.collectives import allreduce
from repro.comm.group import ProcessGroup
from repro.core import (
    GradientBucketStore,
    ParamGroup,
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.nn import GPTModel, Linear, TransformerConfig
from repro.nn.parameter import Parameter
from repro.obs.memscope import use_memscope
from repro.utils.rng import seeded_rng, spawn_rngs
from tests.helpers import banked_grads, bucket_buffer_bytes, ddp_state

VOCAB = 64


def model_factory():
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=32, num_heads=4, vocab_size=VOCAB, max_seq=16
    )
    return GPTModel(cfg, rng=seeded_rng(7))


def make_batches(world, steps, seed=3, bsz=2, seq=8):
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


#: small enough that the test model flushes mid-step on capacity, and the
#: default, which holds a whole step's gradients
CAPACITIES = (4096, 500_000)


def config(world, stage, *, capacity=CAPACITIES[0], **kw):
    return ZeroConfig(
        world_size=world,
        stage=stage,
        loss_scale=1.0,
        reduce_bucket_numel=capacity,
        **kw,
    )


def ddp(world, batches, *, lr=1e-2):
    """The oracle: per-replica Adam over gradients allreduced one
    parameter at a time, shaped like :func:`train`'s result."""
    trainer = DDPTrainer(model_factory, world, lr=lr)
    losses = [trainer.train_step(b) for b in batches]
    return losses, ddp_state(trainer), trainer.comm.stats


def train(cfg, batches, *, rounds_of=None, lr=1e-2):
    with ZeroInfinityEngine(cfg, model_factory=model_factory, lr=lr) as eng:
        losses = []
        for b in batches:
            if rounds_of:
                res = eng.train_step_accumulated(
                    [b] * rounds_of
                )
            else:
                res = eng.train_step(b)
            losses.append(res.losses)
        return losses, eng.gather_state(), eng.report()


def assert_same_run(got, ref):
    """Losses float-exact, every weight bit-equal."""
    assert got[0] == ref[0]
    assert set(got[1]) == set(ref[1])
    for name, expected in ref[1].items():
        np.testing.assert_array_equal(got[1][name], expected, err_msg=name)


class TestBitEquivalence:
    """Bucketed + coalesced training is bit-identical to DDP, at every
    bucket capacity."""

    @pytest.mark.parametrize("world", [1, 2, 4])
    @pytest.mark.parametrize(
        "stage", [ZeroStage.GRADIENTS, ZeroStage.PARAMETERS]
    )
    def test_weights_and_losses_identical(self, world, stage):
        batches = make_batches(world, steps=2)
        ref = ddp(world, batches)
        small, large = (
            train(config(world, stage, capacity=c), batches) for c in CAPACITIES
        )
        assert_same_run(small, ref)
        assert_same_run(large, ref)
        # the capacity really moved the flush points...
        assert small[2].bucket_flushes > large[2].bucket_flushes
        # ...and the runtime actually bucketed: fewer reductions than the
        # one-per-parameter of data parallelism
        assert (
            large[2].comm_calls_by_op["reduce_scatter"]
            < ref[2].calls_by_op["allreduce"]
        )

    @pytest.mark.parametrize("world", [2, 4])
    def test_gradient_accumulation_identical(self, world):
        """Two rounds of the same batch sum to twice its gradient and the
        update divides by two — exact in binary floating point — so the
        step is DDP's single step on that batch, and each round's losses
        are DDP's."""
        batches = make_batches(world, steps=2, seed=11)
        losses, state, _ = ddp(world, batches)
        ref = [l + l for l in losses], state
        for capacity in CAPACITIES:
            got = train(
                config(world, ZeroStage.PARAMETERS, capacity=capacity),
                batches,
                rounds_of=2,
            )
            assert_same_run(got, ref)

    @pytest.mark.parametrize("world", [2, 4])
    def test_matches_ddp_oracle(self, world):
        batches = make_batches(world, steps=3, seed=5)
        assert_same_run(
            train(config(world, ZeroStage.PARAMETERS), batches),
            ddp(world, batches),
        )

    def test_nvme_offload_bucketed(self, tmp_path):
        """Bucketing composes with NVMe gradient offload + async writes."""
        world = 2
        batches = make_batches(world, steps=2, seed=9)
        ref = ddp(world, batches)
        for capacity in CAPACITIES:
            off = OffloadConfig(
                param_device=OffloadDevice.NVME,
                grad_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
                nvme_dir=str(tmp_path / f"spool{capacity}"),
            )
            got = train(
                config(world, ZeroStage.PARAMETERS, capacity=capacity, offload=off),
                batches,
            )
            assert_same_run(got, ref)


class TestOneGradientPath:
    """Below stage 3 the stage changes only what the memory model charges
    a rank: stages 0, 1 and 2 move gradients through the same bucketed
    reduce-scatter into the same stored shards, so they train, talk and
    flush identically — and none of them allreduces."""

    @pytest.mark.parametrize(
        "device", [OffloadDevice.NONE, OffloadDevice.CPU, OffloadDevice.NVME]
    )
    def test_stages_0_1_2_identical(self, tmp_path, device):
        world = 2
        batches = make_batches(world, steps=2, seed=13)
        runs = []
        for stage in (ZeroStage.NONE, ZeroStage.OPTIMIZER, ZeroStage.GRADIENTS):
            off = OffloadConfig(
                grad_device=device,
                optimizer_device=device,
                nvme_dir=str(tmp_path / f"spool{int(stage)}"),
            )
            runs.append(train(config(world, stage, offload=off), batches))
        ref = runs[0]
        assert "allreduce" not in ref[2].comm_calls_by_op
        assert ref[2].comm_calls_by_op["reduce_scatter"] > 0
        for got in runs[1:]:
            assert_same_run(got, ref)
            assert got[2].comm_calls_by_op == ref[2].comm_calls_by_op
            assert got[2].comm_bytes_by_op == ref[2].comm_bytes_by_op
            assert got[2].bucket_flushes == ref[2].bucket_flushes

    def test_stage_1_honours_grad_device(self):
        cfg = config(
            2,
            ZeroStage.OPTIMIZER,
            offload=OffloadConfig(grad_device=OffloadDevice.CPU),
        )
        with use_memscope() as scope, ZeroInfinityEngine(
            cfg, model_factory=model_factory, lr=1e-2
        ) as eng:
            eng.train_step(make_batches(2, steps=1)[0])
            assert scope.breakdown("cpu")["grad"] > 0
            assert "grad" not in scope.breakdown("gpu")


def add(store, group, per_rank):
    """Bank a one-member group's per-rank gradients."""
    store.add(group, [[g] for g in per_rank])


class TestGradientBucketStore:
    def _store(self, world=2, capacity=8):
        emitted = []
        store = GradientBucketStore(
            world,
            capacity,
            ProcessGroup(world),
            on_shard=lambda p, r, s: emitted.append((p, r, s.copy())),
        )
        return store, emitted

    def _param(self, n, world=2):
        """A one-member parameter group of ``n`` elements."""
        self.gids = getattr(self, "gids", 0) + 1
        member = Parameter(np.zeros(n, dtype=np.float32), name=f"p{n}")
        return ParamGroup(self.gids, 0, [member], world, None)

    def test_flush_on_capacity(self):
        store, emitted = self._store(world=2, capacity=8)
        p1, p2, p3 = self._param(4), self._param(4), self._param(4)
        add(store, p1, [np.ones(4, np.float32), np.ones(4, np.float32)])
        add(store, p2, [np.full(4, 2.0, np.float32)] * 2)
        assert store.stats.flushes == 0  # exactly fits: no flush yet
        add(store, p3, [np.ones(4, np.float32)] * 2)  # overflow -> flush
        assert store.stats.flushes == 1
        assert [e[0] for e in emitted] == [p1, p1, p2, p2]
        # p1 averaged over 2 ranks: shard 0 = first half
        np.testing.assert_array_equal(emitted[0][2], [1.0, 1.0])
        store.flush()
        assert store.stats.flushes == 2
        assert banked_grads(store) == 0

    def test_padding_to_world_multiple(self):
        store, emitted = self._store(world=2, capacity=8)
        p = self._param(3)  # pads to 4
        add(store, p, [np.array([1, 2, 3], np.float32)] * 2)
        store.flush()
        (param0, rank0, s0), (param1, rank1, s1) = emitted
        assert (rank0, rank1) == (0, 1)
        np.testing.assert_array_equal(s0, [1.0, 2.0])
        np.testing.assert_array_equal(s1, [3.0, 0.0])  # zero pad tail

    def test_oversized_gradient_gets_own_collective(self):
        store, emitted = self._store(world=2, capacity=8)
        p = self._param(20)
        add(store, p, [np.ones(20, np.float32)] * 2)
        assert store.stats.oversized_flushes == 1
        assert store.stats.flushes == 0
        assert len(emitted) == 2  # one shard per rank

    @pytest.mark.parametrize("numel", [20, 21])
    def test_oversized_gradient_is_padded_only_when_ragged(self, numel):
        """``numel % world == 0`` leaves nothing to pad: the per-rank
        gradients go to the collective as they are, not via zero-padded
        copies."""
        world = 2
        group = ProcessGroup(world)
        fed = []
        reduce = group.reduce_scatter_into
        group.reduce_scatter_into = lambda bufs, out, **kw: (  # type: ignore[method-assign]
            fed.extend(bufs), reduce(bufs, out, **kw)
        )[1]
        got = {}
        store = GradientBucketStore(
            world, 8, group, on_shard=lambda p, r, s: got.__setitem__(r, s.copy())
        )
        grads = [np.full((numel,), r + 1.0, np.float32) for r in range(world)]
        add(store, self._param(numel), grads)
        passed_through = [np.shares_memory(f, g) for f, g in zip(fed, grads)]
        assert passed_through == [numel % world == 0] * world
        reduced = np.concatenate([got[0], got[1]])
        np.testing.assert_array_equal(reduced[:numel], 1.5)
        np.testing.assert_array_equal(reduced[numel:], 0.0)

    def test_shards_are_readonly_views(self):
        world = 2
        seen = []
        store = GradientBucketStore(
            world,
            8,
            ProcessGroup(world),
            on_shard=lambda p, r, s: seen.append(s),
        )
        add(store, self._param(4), [np.ones(4, np.float32)] * 2)
        store.flush()
        assert all(not s.flags.writeable for s in seen)

    def test_identical_to_per_param_reduce_scatter(self):
        """Bucket reduction == per-parameter padded reduce-scatter, bitwise."""
        world = 4
        rngs = spawn_rngs(0, world)
        sizes = [5, 16, 3, 8]
        grads = [
            [r.standard_normal(n).astype(np.float32) for r in rngs]
            for n in sizes
        ]
        # reference: per-param padded reduce_scatter
        expect = []
        for n, per_rank in zip(sizes, grads):
            padded = ((n + world - 1) // world) * world
            flats = []
            for g in per_rank:
                f = np.zeros(padded, np.float32)
                f[:n] = g
                flats.append(f)
            expect.append(reduce_scatter(flats, op="mean"))
        got: dict[int, dict[int, np.ndarray]] = {}
        store = GradientBucketStore(
            world,
            12,  # forces multiple flushes
            ProcessGroup(world),
            on_shard=lambda p, r, s: got.setdefault(p.gid, {}).__setitem__(
                r, s.copy()
            ),
        )
        params = [self._param(n, world) for n in sizes]
        for p, per_rank in zip(params, grads):
            add(store, p, per_rank)
        store.flush()
        for p, exp in zip(params, expect):
            for r in range(world):
                np.testing.assert_array_equal(got[p.gid][r], exp[r])

    def test_a_group_is_one_entry_laid_out_like_the_group(self):
        """Three members, 9 elements padded to 10: one entry, and each
        rank's shard is the matching slice of the members back to back."""
        world = 2
        store, emitted = self._store(world=world, capacity=16)
        members = [
            Parameter(np.zeros(s, dtype=np.float32)) for s in ((2, 2), (3,), (2,))
        ]
        group = ParamGroup(0, 0, members, world, None)
        rngs = spawn_rngs(3, world)
        grads = [[r.standard_normal(m.full_shape).astype(np.float32) for m in members]
                 for r in rngs]
        expect = [
            np.concatenate([g.reshape(-1) for g in per_rank] + [np.zeros(1, np.float32)])
            for per_rank in grads
        ]
        mean = reduce_scatter(expect, op="mean")
        store.add(group, grads)
        store.flush()
        assert store.stats.grads_bucketed == 1 and store.stats.flushes == 1
        assert [(e[0], e[1]) for e in emitted] == [(group, 0), (group, 1)]
        for r in range(world):
            np.testing.assert_array_equal(emitted[r][2], mean[r])

    def test_an_oversized_group_computes_in_views_of_its_flat(self):
        """A group over the capacity with several members reduces one flat
        gradient per rank, laid out like the group; the members get their
        views of it back, so the next step's kernels write straight into
        it (weight and bias alike) and it is reduced again without a copy,
        to the same bits."""
        world = 2
        layer = Linear(512, 512)  # weight + bias: 1 MB of gradient, 2 members
        params = [layer._parameters["weight"], layer._parameters["bias"]]
        group = ParamGroup(0, 0, params, world, None)
        comm = ProcessGroup(world)
        fed, shards = [], []
        reduce = comm.reduce_scatter_into
        comm.reduce_scatter_into = lambda bufs, out, **kw: (  # type: ignore[method-assign]
            fed.append([id(b) for b in bufs]), reduce(bufs, out, **kw)
        )[1]
        store = GradientBucketStore(
            world, 8, comm, on_shard=lambda g, r, s: shards.append(s.copy())
        )
        x = seeded_rng(0).standard_normal((4, 512)).astype(np.float32)
        for _ in range(3):
            grads = []
            for _ in range(world):
                layer.backward(np.ones_like(layer(x)))
                grads.append([p.grad for p in params])
                for p in params:
                    p.grad = None
            store.add(group, grads)
            del grads
        first, second, third = fed
        assert set(first) == set(second) == set(third)
        assert all(p.grad_out(scratch=True).base is not None for p in params)
        for a, b in zip(shards[:world], shards[world:]):
            np.testing.assert_array_equal(a, b)

    def test_buffers_reused_across_flushes(self):
        store, _ = self._store(world=2, capacity=8)
        p = self._param(4)
        add(store, p, [np.ones(4, np.float32)] * 2)
        store.flush()
        before = bucket_buffer_bytes(store)
        add(store, p, [np.ones(4, np.float32)] * 2)
        store.flush()
        assert bucket_buffer_bytes(store) == before


class TestCollectiveCountUnchanged:
    def test_offload_z2_cpu_shape_reduces_in_four_collectives(self):
        """The benchmark's ZeRO-Offload shape (stage 2, grads + optimizer
        on the CPU, 3.2 M parameters at world 2): landing gradients without
        padded copies or an accumulator must not change what is reduced —
        4 bucket flushes, 4 reduce-scatters, nothing else on the wire."""
        cfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.GRADIENTS,
            offload=OffloadConfig(
                grad_device=OffloadDevice.CPU, optimizer_device=OffloadDevice.CPU
            ),
            loss_scale=1.0,
        )
        model_cfg = TransformerConfig(
            num_layers=1, hidden_dim=512, num_heads=4, vocab_size=128,
            max_seq=4, activation_checkpointing=True,
        )
        rng = seeded_rng(1)
        with ZeroInfinityEngine(
            cfg, model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(0))
        ) as eng:
            group_calls = []
            for name in ("reduce_scatter", "reduce_scatter_into", "allgather",
                         "allgather_into", "allreduce", "broadcast"):
                fn = getattr(eng.comm, name)
                setattr(
                    eng.comm, name,
                    lambda *a, _fn=fn, _name=name, **kw: (
                        group_calls.append(_name), _fn(*a, **kw)
                    )[1],
                )
            for _ in range(2):
                flushes = eng.report().bucket_flushes
                del group_calls[:]
                eng.train_step(
                    [
                        (rng.integers(0, 128, size=(1, 4)),
                         rng.integers(0, 128, size=(1, 4)))
                        for _ in range(2)
                    ]
                )
                assert group_calls == ["reduce_scatter_into"] * 4
                assert eng.report().bucket_flushes - flushes == 4


class TestZeroCopyCollectives:
    def test_allgather_into_matches_allgather(self):
        shards = [np.arange(3, dtype=np.float32) + 10 * r for r in range(3)]
        out = np.empty(9, dtype=np.float32)
        views = allgather_into(shards, out)
        np.testing.assert_array_equal(views[0], allgather(shards)[0])
        # every rank shares the same read-only memory, no copies
        assert all(np.shares_memory(v, out) for v in views)
        assert all(not v.flags.writeable for v in views)
        # the escape hatches are closed: .base is read-only too, and the
        # writeable flag cannot be flipped back on
        for v in views:
            with pytest.raises(TypeError):
                v.base[0] = 0.0
            with pytest.raises(ValueError):
                v.flags.writeable = True
        # still a live alias of the owner buffer, not a copy
        out[0] = 123.0
        assert views[0][0] == 123.0

    def test_allgather_into_reuses_buffer(self):
        out = np.empty(4, dtype=np.float32)
        allgather_into([np.ones(2, np.float32)] * 2, out)
        views = allgather_into([np.full(2, 7.0, np.float32)] * 2, out)
        np.testing.assert_array_equal(views[0], [7.0] * 4)

    def test_allgather_into_rejects_small_buffer(self):
        with pytest.raises(ValueError):
            allgather_into([np.ones(4)] * 2, np.empty(7))

    def test_reduce_scatter_into_matches_reduce_scatter(self):
        bufs = [np.arange(8, dtype=np.float32) * (r + 1) for r in range(2)]
        out = np.empty(8, dtype=np.float32)
        views = reduce_scatter_into(bufs, out, op="mean")
        ref = reduce_scatter(bufs, op="mean")
        for v, r in zip(views, ref):
            np.testing.assert_array_equal(v, r)
        assert all(np.shares_memory(v, out) for v in views)
        assert all(not v.flags.writeable for v in views)
        with pytest.raises(TypeError):
            views[0].base[0] = 0.0

    def test_reduce_scatter_into_size_checks(self):
        with pytest.raises(ValueError):
            reduce_scatter_into([np.ones(5)] * 2, np.empty(5))  # 5 % 2 != 0
        with pytest.raises(ValueError):
            reduce_scatter_into([np.ones(4)] * 2, np.empty(3))  # out too small

    def test_process_group_accounts_into_variants(self):
        pg = ProcessGroup(2)
        pg.allgather_into([np.ones(2, np.float32)] * 2, np.empty(4, np.float32))
        pg.reduce_scatter_into(
            [np.ones(4, np.float32)] * 2, np.empty(4, np.float32)
        )
        assert pg.stats.calls_by_op["allgather"] == 1
        assert pg.stats.calls_by_op["reduce_scatter"] == 1
        ref = ProcessGroup(2)
        ref.allgather([np.ones(2, np.float32)] * 2)
        ref.reduce_scatter([np.ones(4, np.float32)] * 2)
        assert pg.stats.bytes_by_op == ref.stats.bytes_by_op


class TestAllreduceMax:
    def test_max_result(self):
        bufs = [
            np.array([1.0, 5.0, -2.0], np.float32),
            np.array([4.0, 0.0, -1.0], np.float32),
        ]
        out = allreduce(bufs, op="max")
        for o in out:
            np.testing.assert_array_equal(o, [4.0, 5.0, -1.0])


class TestUpdateSliceWriteThrough:
    """``update_shard`` writes one rank's shard through to its tier."""

    def _engine(self, tmp_path, device):
        cfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=device, nvme_dir=str(tmp_path / "spool")
            ),
            loss_scale=1.0,
        )
        return ZeroInfinityEngine(cfg, model_factory=model_factory, lr=1e-2)

    @pytest.mark.parametrize(
        "device", [OffloadDevice.NONE, OffloadDevice.CPU, OffloadDevice.NVME]
    )
    def test_update_shard_round_trip(self, tmp_path, device):
        with self._engine(tmp_path, device) as eng:
            group = eng.partitioner.groups[0]
            sn = group.shard_numel
            new = np.arange(sn, dtype=np.float32)
            eng.partitioner.update_shard(group, 1, new)
            np.testing.assert_array_equal(
                eng.offload.fetch(group.key(1), rank=1), new
            )
            # neighbouring shard untouched
            other = eng.offload.fetch(group.key(0), rank=0)
            assert other.size == sn

    def test_cpu_link_traffic_is_slice_sized(self, tmp_path):
        with self._engine(tmp_path, OffloadDevice.CPU) as eng:
            group = eng.partitioner.groups[0]
            link = eng.offload.counters.host_link_bytes
            before = dict(link)
            eng.partitioner.update_shard(
                group, 1, np.zeros(group.shard_numel, np.float32)
            )
            # only rank 1's link carries the write
            assert all(n == before.get(r, 0) for r, n in link.items() if r != 1)
            written = link[1] - before.get(1, 0)
            # the update moves one shard, not the whole padded buffer
            assert written == group.shard_numel * 4
            assert written < group.padded_numel * 4
