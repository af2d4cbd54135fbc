"""Parameter persistence threshold."""

import numpy as np
import pytest

from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.nn import GPTModel, TransformerConfig
from repro.nn.parameter import PartitionState
from repro.utils.rng import seeded_rng, spawn_rngs

WORLD = 2
VOCAB = 32


def factory():
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=16, num_heads=2, vocab_size=VOCAB, max_seq=8
    )
    return GPTModel(cfg, rng=seeded_rng(3))


def batches(seed=0):
    rngs = spawn_rngs(seed, WORLD)
    return [
        (r.integers(0, VOCAB, (1, 8)), r.integers(0, VOCAB, (1, 8))) for r in rngs
    ]


def engine_with_threshold(threshold, **off):
    cfg = ZeroConfig(
        world_size=WORLD,
        stage=ZeroStage.PARAMETERS,
        offload=OffloadConfig(**off),
        loss_scale=1.0,
        param_persistence_threshold_numel=threshold,
    )
    return ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-2)


class TestPersistenceThreshold:
    def test_small_params_stay_resident(self):
        with engine_with_threshold(64) as eng:
            for name, p in eng.model.named_parameters():
                if p.full_numel <= 64:
                    assert p.state is PartitionState.AVAILABLE, name
                    assert p.zero_meta is None
                else:
                    assert p.state is PartitionState.PARTITIONED, name

    def test_zero_threshold_partitions_everything(self):
        with engine_with_threshold(0) as eng:
            assert all(
                p.state is PartitionState.PARTITIONED
                for p in eng.model.parameters()
            )

    def test_training_equivalent_to_unthresholded(self):
        bs = [batches(s) for s in range(3)]
        losses = {}
        for threshold in (0, 64):
            with engine_with_threshold(threshold) as eng:
                losses[threshold] = [eng.train_step(b).mean_loss for b in bs]
        np.testing.assert_allclose(losses[0], losses[64], rtol=1e-5)

    def test_fewer_gathers_with_persistence(self):
        counts = {}
        for threshold in (0, 64):
            with engine_with_threshold(threshold) as eng:
                eng.train_step(batches())
                counts[threshold] = eng.report().gathers
        assert counts[64] < counts[0]

    def test_persistent_params_updated_by_optimizer(self):
        with engine_with_threshold(1 << 30) as eng:  # everything persistent
            assert all(p.zero_meta is None for p in eng.model.parameters())
            before = {n: p.data.copy() for n, p in eng.model.named_parameters()}
            eng.train_step(batches())
            changed = [
                n
                for n, p in eng.model.named_parameters()
                if not np.array_equal(before[n], p.data)
            ]
            assert changed  # updates landed despite no partitioning

    def test_works_with_nvme_offload(self):
        with engine_with_threshold(
            64,
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
        ) as eng:
            r = eng.train_step(batches())
            assert np.isfinite(r.mean_loss)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ZeroConfig(world_size=2, param_persistence_threshold_numel=-1)

    def test_persistence_composes_with_accumulation(self):
        """Persistent params + gradient accumulation: two rounds of bsz 1
        equal one round of bsz 2 even with mixed partitioning."""
        rounds = [batches(s) for s in (0, 1)]
        merged = [
            (
                np.concatenate([rounds[0][r][0], rounds[1][r][0]]),
                np.concatenate([rounds[0][r][1], rounds[1][r][1]]),
            )
            for r in range(WORLD)
        ]
        with engine_with_threshold(64) as a:
            a.train_step_accumulated(rounds)
            sa = a.gather_state()
        with engine_with_threshold(64) as b:
            b.train_step(merged)
            sb = b.gather_state()
        for name in sa:
            np.testing.assert_allclose(
                sa[name], sb[name], rtol=1e-3, atol=5e-5, err_msg=name
            )
