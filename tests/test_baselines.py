"""DDP oracle invariants, Megatron and pipeline cost models, 3D parallelism."""

import numpy as np
import pytest

from repro.baselines import (
    DDPTrainer,
    ThreeDConfig,
    ThreeDModel,
    best_threed_config,
    megatron_comm_bytes_per_block,
    pipeline_bubble_fraction,
)
from repro.hardware import dgx2_cluster
from repro.nn import GPTModel, TransformerConfig
from repro.utils.rng import seeded_rng
from tests.helpers import ddp_state


def tiny_factory():
    cfg = TransformerConfig(
        num_layers=1, hidden_dim=16, num_heads=2, vocab_size=32, max_seq=8
    )
    return GPTModel(cfg, rng=seeded_rng(5))


class TestDDP:
    def test_replicas_stay_in_sync(self, rng):
        ddp = DDPTrainer(tiny_factory, world_size=3, lr=1e-2)
        for _ in range(3):
            batches = [
                (rng.integers(0, 32, (2, 4)), rng.integers(0, 32, (2, 4)))
                for _ in range(3)
            ]
            ddp.train_step(batches)
        ref = ddp_state(ddp, 0)
        for rank in (1, 2):
            for name, value in ddp_state(ddp, rank).items():
                assert np.array_equal(ref[name], value), (rank, name)

    def test_identical_batches_identical_losses(self, rng):
        ddp = DDPTrainer(tiny_factory, world_size=2, lr=1e-2)
        b = (rng.integers(0, 32, (2, 4)), rng.integers(0, 32, (2, 4)))
        losses = ddp.train_step([b, b])
        assert losses[0] == pytest.approx(losses[1])

    def test_wrong_batch_count_raises(self, rng):
        ddp = DDPTrainer(tiny_factory, world_size=2)
        with pytest.raises(ValueError):
            ddp.train_step([(np.zeros((1, 2), dtype=int),) * 2])

    def test_memory_redundancy(self):
        """DDP's defining property: full replication (what ZeRO removes)."""
        ddp = DDPTrainer(tiny_factory, world_size=4)
        sizes = [
            sum(p.nbytes for p in m.parameters()) for m in ddp.replicas
        ]
        assert len(set(sizes)) == 1 and sizes[0] > 0  # 4 full copies


class TestMegatronLinears:
    def test_comm_volume_formula(self):
        assert megatron_comm_bytes_per_block(bsz=4, seq=128, hidden_dim=256) == (
            2 * 4 * 128 * 256 * 2
        )


class TestPipeline:
    def test_bubble_formula(self):
        assert pipeline_bubble_fraction(4, 12) == pytest.approx(3 / 15)
        assert pipeline_bubble_fraction(1, 8) == 0.0

    def test_bubble_shrinks_with_microbatches(self):
        fracs = [pipeline_bubble_fraction(8, m) for m in (8, 16, 64, 256)]
        assert fracs == sorted(fracs, reverse=True)

    def test_invalid_schedule_raises(self):
        with pytest.raises(ValueError):
            pipeline_bubble_fraction(0, 4)
        with pytest.raises(ValueError):
            pipeline_bubble_fraction(4, 0)


class TestThreeD:
    def test_memory_per_param(self):
        cluster = dgx2_cluster(2)
        model = ThreeDModel(cluster, ThreeDConfig(mp=4, pp=2, dp=4))
        # model-state bytes per parameter per GPU: 20 / (mp*pp*dp)
        assert 20.0 / model.config.num_gpus == pytest.approx(20 / 32)

    def test_config_must_cover_cluster(self):
        with pytest.raises(ValueError):
            ThreeDModel(dgx2_cluster(1), ThreeDConfig(mp=4, pp=2, dp=4))

    def test_mp_within_node(self):
        with pytest.raises(ValueError):
            ThreeDModel(dgx2_cluster(2), ThreeDConfig(mp=32, pp=1, dp=1))

    def test_scale_ceiling_fig1(self):
        """Fig. 1: 3D parallelism tops out near 650B on 512 GPUs."""
        from repro.core.config import Strategy
        from repro.core.scale import max_model_size

        r = max_model_size(
            Strategy.THREED, dgx2_cluster(32), mp_degree=4, bsz_per_gpu=1
        )
        assert 4e11 < r.max_params < 9e11

    def test_pipeline_needs_enough_layers(self):
        cluster = dgx2_cluster(32)
        model = ThreeDModel(cluster, ThreeDConfig(mp=4, pp=64, dp=2))
        ok, why = model.fits(
            int(1e12),
            hidden_dim=25600,
            num_layers=32,  # fewer than 64 stages
            attn_heads=256,
            bsz_per_gpu=1,
        )
        assert not ok and "stage" in why

    def test_step_time_oom_reported(self):
        cluster = dgx2_cluster(1)
        model = ThreeDModel(cluster, ThreeDConfig(mp=4, pp=1, dp=4))
        t = model.step_time(
            int(1e12), hidden_dim=25600, num_layers=128, attn_heads=256,
            bsz_per_gpu=1,
        )
        assert not t.fits
        assert t.tflops_per_gpu == 0.0

    def test_efficient_when_it_fits(self):
        """Fig. 5a: at 0.5T on 512 GPUs, 3D parallelism is competitive."""
        cluster = dgx2_cluster(32)
        cfg, t = best_threed_config(
            cluster,
            int(0.5e12),
            hidden_dim=18432,
            num_layers=124,
            attn_heads=64,
            bsz_per_gpu=7,
        )
        assert cfg is not None
        assert t.tflops_per_gpu > 35.0  # on par with ZeRO-Infinity's ~49

    def test_best_config_none_when_too_big(self):
        cfg, t = best_threed_config(
            dgx2_cluster(1),
            int(5e12),
            hidden_dim=48 * 1024,
            num_layers=174,
            attn_heads=256,
            bsz_per_gpu=1,
        )
        assert cfg is None and t is None

    def test_bubble_hurts_small_microbatch_counts(self):
        cluster = dgx2_cluster(32)
        model = ThreeDModel(cluster, ThreeDConfig(mp=4, pp=8, dp=16))
        kw = dict(
            hidden_dim=18432, num_layers=124, attn_heads=64, bsz_per_gpu=2
        )
        fast = model.step_time(int(0.5e12), microbatches=64, **kw)
        slow = model.step_time(int(0.5e12), microbatches=8, **kw)
        assert slow.total > fast.total
