"""Engine features beyond the core loop: sharded checkpointing, gradient
accumulation, activation-offload placements (CPU and the Sec. 8.2
future-work NVMe variant)."""

import os

import numpy as np
import pytest

from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.core.checkpoint_io import load_checkpoint, save_checkpoint
from repro.nn import GPTModel, TransformerConfig
from repro.utils.rng import seeded_rng
from tests.helpers import count_offload_bytes, store_keys

WORLD = 2
VOCAB = 32


def factory(ckpt=False):
    cfg = TransformerConfig(
        num_layers=2,
        hidden_dim=16,
        num_heads=2,
        vocab_size=VOCAB,
        max_seq=8,
        activation_checkpointing=ckpt,
    )
    return GPTModel(cfg, rng=seeded_rng(3))


def make_rounds(n_rounds, seed=5, bsz=1):
    rng = seeded_rng(seed)
    return [
        [
            (rng.integers(0, VOCAB, (bsz, 8)), rng.integers(0, VOCAB, (bsz, 8)))
            for _ in range(WORLD)
        ]
        for _ in range(n_rounds)
    ]


def zcfg(stage=ZeroStage.PARAMETERS, **off):
    return ZeroConfig(
        world_size=WORLD,
        stage=stage,
        offload=OffloadConfig(**off),
        loss_scale=1.0,
    )


class TestGradientAccumulation:
    @pytest.mark.parametrize(
        "stage,off",
        [
            (ZeroStage.NONE, {}),
            (ZeroStage.GRADIENTS, {}),
            (ZeroStage.PARAMETERS, {}),
            (
                ZeroStage.PARAMETERS,
                dict(
                    param_device=OffloadDevice.NVME,
                    grad_device=OffloadDevice.NVME,
                    optimizer_device=OffloadDevice.NVME,
                ),
            ),
        ],
        ids=["dp", "zero2", "zero3", "inf-nvme"],
    )
    def test_accumulation_equals_big_batch(self, stage, off):
        """2 rounds of bsz 1 == 1 round of bsz 2 (same tokens)."""
        rounds = make_rounds(2, bsz=1)
        merged = [
            (
                np.concatenate([rounds[0][r][0], rounds[1][r][0]]),
                np.concatenate([rounds[0][r][1], rounds[1][r][1]]),
            )
            for r in range(WORLD)
        ]
        with ZeroInfinityEngine(zcfg(stage, **off), model_factory=factory, lr=1e-2) as a:
            a.train_step_accumulated(rounds)
            state_a = a.gather_state()
        with ZeroInfinityEngine(zcfg(stage, **off), model_factory=factory, lr=1e-2) as b:
            b.train_step(merged)
            state_b = b.gather_state()
        # tolerance note: for near-zero gradients Adam's m/sqrt(v) update is
        # sign-like, so fp32 summation-order noise between (g1+g2)/2 and
        # mean-over-merged-batch is amplified to O(lr * noise_sign); bound
        # the drift at a small fraction of one update instead of exact-match
        for name in state_a:
            np.testing.assert_allclose(
                state_a[name], state_b[name], rtol=1e-3, atol=5e-5, err_msg=name
            )

    def test_multiple_accumulated_steps(self):
        with ZeroInfinityEngine(zcfg(), model_factory=factory, lr=1e-2) as eng:
            losses = []
            for step in range(3):
                r = eng.train_step_accumulated(make_rounds(2, seed=step))
                losses.append(r.mean_loss)
            assert all(np.isfinite(l) for l in losses)
            assert eng.steps_taken == 3

    def test_empty_rounds_raise(self):
        with ZeroInfinityEngine(zcfg(), model_factory=factory) as eng:
            with pytest.raises(ValueError):
                eng.train_step_accumulated([])

    def test_wrong_round_width_raises(self):
        with ZeroInfinityEngine(zcfg(), model_factory=factory) as eng:
            with pytest.raises(ValueError):
                eng.train_step_accumulated([make_rounds(1)[0][:1]])

    def test_no_stale_grads_across_steps(self):
        """Accumulation state must reset between optimizer steps."""
        with ZeroInfinityEngine(zcfg(), model_factory=factory, lr=1e-2) as a, \
             ZeroInfinityEngine(zcfg(), model_factory=factory, lr=1e-2) as b:
            rounds = make_rounds(1, seed=9)
            # a: two identical separate steps; b: would differ if step 2
            # merged step 1's gradients
            a.train_step_accumulated(rounds)
            a.train_step_accumulated(rounds)
            b.train_step(rounds[0])
            b.train_step(rounds[0])
            sa, sb = a.gather_state(), b.gather_state()
            for name in sa:
                np.testing.assert_allclose(sa[name], sb[name], rtol=1e-6)


class TestActivationOffload:
    @pytest.mark.parametrize("device", [OffloadDevice.CPU, OffloadDevice.NVME])
    def test_offloaded_checkpoints_train_identically(self, device):
        rounds = make_rounds(1, seed=11, bsz=2)
        losses = {}
        for dev in (OffloadDevice.NONE, device):
            cfg = zcfg(
                param_device=OffloadDevice.NVME if dev is OffloadDevice.NVME else OffloadDevice.NONE,
                activation_device=dev,
            )
            with ZeroInfinityEngine(
                cfg, model_factory=lambda: factory(ckpt=True), lr=1e-2
            ) as eng:
                losses[dev] = [eng.train_step(rounds[0]).mean_loss for _ in range(2)]
        base, offl = losses[OffloadDevice.NONE], losses[device]
        np.testing.assert_allclose(base, offl, rtol=1e-6)

    def test_offloader_traffic_recorded(self):
        cfg = zcfg(activation_device=OffloadDevice.CPU)
        with ZeroInfinityEngine(
            cfg, model_factory=lambda: factory(ckpt=True), lr=1e-2
        ) as eng:
            moved = count_offload_bytes(eng.model)
            eng.train_step(make_rounds(1)[0])
            assert moved["offloaded"] > 0
            assert moved["offloaded"] == moved["restored"]  # every one came back

    def test_nvme_checkpoints_are_single_use(self):
        cfg = zcfg(
            param_device=OffloadDevice.NVME,
            activation_device=OffloadDevice.NVME,
        )
        with ZeroInfinityEngine(
            cfg, model_factory=lambda: factory(ckpt=True), lr=1e-2
        ) as eng:
            eng.train_step(make_rounds(1)[0])
            leftover = [k for k in store_keys(eng.offload.store) if k.startswith("act.")]
            assert leftover == []  # deleted after their backward

    def test_one_layer_model_offloads_nothing(self):
        """A one-layer model's only block is its last: it keeps its
        activations and recomputes nothing, so activation offload
        configured on it is accepted, moves 0 bytes and trains as without
        it."""
        cfg1 = TransformerConfig(
            num_layers=1, hidden_dim=16, num_heads=2, vocab_size=VOCAB,
            max_seq=8, activation_checkpointing=True,
        )
        rounds = make_rounds(1, seed=11)
        losses = {}
        for dev in (OffloadDevice.NONE, OffloadDevice.CPU):
            with ZeroInfinityEngine(
                zcfg(activation_device=dev),
                model_factory=lambda: GPTModel(cfg1, rng=seeded_rng(3)),
                lr=1e-2,
            ) as eng:
                moved = count_offload_bytes(eng.model)
                losses[dev] = [eng.train_step(rounds[0]).mean_loss for _ in range(2)]
                assert moved == {"offloaded": 0, "restored": 0}
        assert losses[OffloadDevice.NONE] == losses[OffloadDevice.CPU]

    def test_offload_without_checkpointing_raises(self):
        cfg = zcfg(activation_device=OffloadDevice.CPU)
        with pytest.raises(ValueError, match="CheckpointedBlock"):
            ZeroInfinityEngine(cfg, model_factory=lambda: factory(ckpt=False))


class TestSummary:
    def test_summary_mentions_configuration(self):
        cfg = zcfg(
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
        )
        with ZeroInfinityEngine(cfg, model_factory=factory) as eng:
            text = eng.summary()
            assert "stage 3" in text
            assert f"{WORLD} rank" in text
            assert "params=nvme" in text
            assert "at depth 2" in text  # the prefetcher's line
            assert "static x1" in text

    def test_summary_tracks_steps(self):
        with ZeroInfinityEngine(zcfg(), model_factory=factory, lr=1e-3) as eng:
            eng.train_step(make_rounds(1)[0])
            assert "1 taken" in eng.summary()


class TestShardedCheckpoint:
    def _train(self, engine, steps, seed=21):
        for s in range(steps):
            engine.train_step(make_rounds(1, seed=seed + s)[0])

    @pytest.mark.parametrize(
        "stage,off",
        [
            (ZeroStage.PARAMETERS, {}),
            (
                ZeroStage.PARAMETERS,
                dict(
                    param_device=OffloadDevice.NVME,
                    optimizer_device=OffloadDevice.NVME,
                    grad_device=OffloadDevice.NVME,
                ),
            ),
            (ZeroStage.GRADIENTS, {}),
        ],
        ids=["zero3", "inf-nvme", "zero2"],
    )
    def test_save_load_resume_matches_uninterrupted(self, tmp_path, stage, off):
        """Train 2 + save + load + train 2 == train 4 straight."""
        ck = str(tmp_path / "ck")
        with ZeroInfinityEngine(zcfg(stage, **off), model_factory=factory, lr=1e-2) as a:
            self._train(a, 2)
            save_checkpoint(a, ck)
            self._train(a, 2, seed=40)
            direct = a.gather_state()
        with ZeroInfinityEngine(zcfg(stage, **off), model_factory=factory, lr=1e-2) as b:
            load_checkpoint(b, ck)
            assert b.steps_taken == 2
            self._train(b, 2, seed=40)
            resumed = b.gather_state()
        for name in direct:
            np.testing.assert_allclose(
                resumed[name], direct[name], rtol=1e-5, atol=1e-7, err_msg=name
            )

    def test_manifest_contents(self, tmp_path):
        ck = str(tmp_path / "ck")
        with ZeroInfinityEngine(zcfg(), model_factory=factory, lr=1e-2) as eng:
            self._train(eng, 1)
            manifest = save_checkpoint(eng, ck)
        assert manifest["world_size"] == WORLD
        assert manifest["steps_taken"] == 1
        assert os.path.exists(os.path.join(ck, "manifest.json"))
        assert any(f.endswith(".npy") for f in os.listdir(os.path.join(ck, "param")))

    def test_world_size_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "ck")
        with ZeroInfinityEngine(zcfg(), model_factory=factory) as eng:
            save_checkpoint(eng, ck)
        other = ZeroConfig(world_size=4, stage=ZeroStage.PARAMETERS, loss_scale=1.0)
        with ZeroInfinityEngine(other, model_factory=factory) as eng:
            with pytest.raises(ValueError, match="world"):
                load_checkpoint(eng, ck)

    def test_name_mismatch_rejected(self, tmp_path):
        ck = str(tmp_path / "ck")
        with ZeroInfinityEngine(zcfg(), model_factory=factory) as eng:
            save_checkpoint(eng, ck)

        def other_factory():
            cfg = TransformerConfig(
                num_layers=1, hidden_dim=16, num_heads=2, vocab_size=VOCAB, max_seq=8
            )
            return GPTModel(cfg, rng=seeded_rng(0))

        with ZeroInfinityEngine(zcfg(), model_factory=other_factory) as eng:
            with pytest.raises(ValueError, match="name"):
                load_checkpoint(eng, ck)

    @pytest.mark.parametrize("new_world", [1, 3, 4])
    def test_reshard_to_different_world(self, tmp_path, new_world):
        """Elastic resume: train at world 2, reshard, resume at world N
        with identical weights and optimizer state."""
        from repro.core.checkpoint_io import reshard_checkpoint

        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        with ZeroInfinityEngine(zcfg(), model_factory=factory, lr=1e-2) as a:
            self._train(a, 2)
            save_checkpoint(a, src)
            expected = a.gather_state()
        manifest = reshard_checkpoint(src, dst, new_world)
        assert manifest["world_size"] == new_world
        cfg = ZeroConfig(
            world_size=new_world, stage=ZeroStage.PARAMETERS, loss_scale=1.0
        )
        with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-2) as b:
            load_checkpoint(b, dst)
            assert b.steps_taken == 2
            got = b.gather_state()
            for name in expected:
                np.testing.assert_array_equal(got[name], expected[name])
            # optimizer step counters survived (bias correction continuity)
            ref = next(iter(b.optimizer._refs.values()))
            assert ref.step == 2
            # and training continues
            rng = seeded_rng(77)
            batch = [
                (rng.integers(0, VOCAB, (1, 8)), rng.integers(0, VOCAB, (1, 8)))
                for _ in range(new_world)
            ]
            r = b.train_step(batch)
            assert np.isfinite(r.mean_loss)

    @pytest.mark.parametrize(
        "off",
        [
            {},
            dict(
                param_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
                grad_device=OffloadDevice.NVME,
            ),
        ],
        ids=["zero3", "inf-nvme"],
    )
    def test_a_master_that_is_the_parameter_round_trips(self, tmp_path, off):
        """Every group here is a sharded fp32 one on the optimizer state's
        tier, so its master is its parameter record: the checkpoint still
        holds a ``master`` file per (group, rank), written from that
        record, and loading it installs the parameter shard.

        Saved at step 2 and loaded into a fresh engine at the same world
        and, through :func:`reshard_checkpoint`, at world 4, training
        continues bit-equal to an uninterrupted run.  Every rank sees the
        same microbatch, so the averaged gradient is the same bits at any
        world ((g + g) / 2 = g) and the world-4 run has an uninterrupted
        twin to match: the world-2 one (asserted below)."""
        from repro.core.checkpoint_io import _optim_path, reshard_checkpoint

        data = [b[0] for b in make_rounds(4, seed=61)]

        def cfg(world):
            return ZeroConfig(
                world_size=world,
                stage=ZeroStage.PARAMETERS,
                offload=OffloadConfig(
                    nvme_dir=str(tmp_path / f"spool{world}") if off else None,
                    **off,
                ),
                loss_scale=1.0,
            )

        def train(eng, batches):
            world = eng.config.world_size
            return [eng.train_step([b] * world).losses[0] for b in batches]

        ck, wide = str(tmp_path / "ck"), str(tmp_path / "wide")
        with ZeroInfinityEngine(cfg(2), model_factory=factory, lr=1e-2) as a:
            assert all(a.optimizer.master_is_param(g) for g in a.partitioner.groups)
            first = train(a, data[:2])
            save_checkpoint(a, ck)
            direct = train(a, data[2:])
            direct_state = a.gather_state()
            names = [g.name for g in a.partitioner.groups]
        for name in names:
            for rank in range(2):
                assert os.path.exists(_optim_path(ck, name, rank, "master"))
        with ZeroInfinityEngine(cfg(4), model_factory=factory, lr=1e-2) as twin:
            assert train(twin, data) == first + direct
            twin_state = twin.gather_state()
        reshard_checkpoint(ck, wide, 4)
        for world, directory in ((2, ck), (4, wide)):
            with ZeroInfinityEngine(cfg(world), model_factory=factory, lr=1e-2) as b:
                load_checkpoint(b, directory)
                assert train(b, data[2:]) == direct, world
                state = b.gather_state()
            for name, expected in direct_state.items():
                assert np.array_equal(state[name], expected), (world, name)
                assert np.array_equal(twin_state[name], expected), name

    def test_reshard_2_1_4_2_matches_gather_state_bit_for_bit(self, tmp_path):
        """One file per (group, rank): resharding re-splits each group's
        flat layout.  Through worlds 2 -> 1 -> 4 -> 2 every loaded engine's
        ``gather_state()`` is the saved one bit for bit, the optimizer's
        step counts carry over, and the round trip writes the very shards
        it started from."""
        from repro.core.checkpoint_io import (
            _optim_path,
            _param_path,
            reshard_checkpoint,
        )

        def cfg(world):
            return ZeroConfig(world_size=world, stage=ZeroStage.PARAMETERS, loss_scale=1.0)

        dirs = {w: str(tmp_path / f"w{w}") for w in ("2", "1", "4", "2b")}
        with ZeroInfinityEngine(cfg(2), model_factory=factory, lr=1e-2) as a:
            self._train(a, 2)
            save_checkpoint(a, dirs["2"])
            expected = a.gather_state()
            groups = [g.name for g in a.partitioner.groups]
        for src, dst, world in (("2", "1", 1), ("1", "4", 4), ("4", "2b", 2)):
            assert reshard_checkpoint(dirs[src], dirs[dst], world)["world_size"] == world
            with ZeroInfinityEngine(cfg(world), model_factory=factory, lr=1e-2) as b:
                load_checkpoint(b, dirs[dst])
                got = b.gather_state()
                assert {r.step for r in b.optimizer._refs.values()} == {2}
            assert got.keys() == expected.keys()
            for name in expected:
                assert np.array_equal(got[name], expected[name]), (world, name)

        def files(directory, name, rank):
            return [_param_path(directory, name, rank)] + [
                _optim_path(directory, name, rank, kind)
                for kind in ("master", "exp_avg", "exp_avg_sq")
            ]

        for name in groups:
            for rank in range(2):
                pairs = zip(files(dirs["2"], name, rank), files(dirs["2b"], name, rank))
                for before, after in pairs:
                    x, y = np.load(before), np.load(after)
                    assert x.dtype == y.dtype and np.array_equal(x, y), after

    def test_a_version_1_manifest_is_rejected_by_its_version(self, tmp_path):
        """Format 1 kept one file per parameter; it is not read, and the
        error names the version it found."""
        import json

        from repro.core.checkpoint_io import reshard_checkpoint

        ck = str(tmp_path / "ck")
        with ZeroInfinityEngine(zcfg(), model_factory=factory) as eng:
            manifest = save_checkpoint(eng, ck)
            assert manifest["format_version"] == 2
            with open(os.path.join(ck, "manifest.json"), "w") as f:
                json.dump({**manifest, "format_version": 1}, f)
            with pytest.raises(ValueError, match="format version 1"):
                load_checkpoint(eng, ck)
        with pytest.raises(ValueError, match="format version 1"):
            reshard_checkpoint(ck, str(tmp_path / "dst"), 4)

    def test_reshard_rejects_bad_world(self, tmp_path):
        from repro.core.checkpoint_io import reshard_checkpoint

        src = str(tmp_path / "src")
        with ZeroInfinityEngine(zcfg(), model_factory=factory) as eng:
            save_checkpoint(eng, src)
        with pytest.raises(ValueError):
            reshard_checkpoint(src, str(tmp_path / "dst"), 0)


class TestTracedParameterReads:
    def test_one_swap_in_span_per_cpu_shard_read(self):
        """The gather path reads parameter shards with ``fetch_into``: a
        traced stage-3 CPU-offload step shows every one of those reads (and
        every plain ``fetch``) as an ``offload:swap_in`` span."""
        from repro.obs.tracer import Tracer, use_tracer

        cfg = zcfg(
            param_device=OffloadDevice.CPU,
            grad_device=OffloadDevice.CPU,
            optimizer_device=OffloadDevice.CPU,
        )
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
                eng.train_step(make_rounds(1)[0])
                reads = {"fetch": 0, "fetch_into": 0}
                for name in reads:
                    fn = getattr(eng.offload, name)

                    def counted(*a, _fn=fn, _name=name, **kw):
                        reads[_name] += 1
                        return _fn(*a, **kw)

                    setattr(eng.offload, name, counted)
                before = len(tracer.records())
                eng.train_step(make_rounds(1, seed=6)[0])
                spans = [
                    r for r in tracer.records()[before:]
                    if r.name == "offload:swap_in" and r.args.get("tier") == "cpu"
                ]
        # forward + backward gathers of every partitioned tensor, per rank
        assert reads["fetch_into"] >= 2 * WORLD * len(eng.model.parameters())
        assert len(spans) == reads["fetch"] + reads["fetch_into"]
