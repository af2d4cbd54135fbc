"""Synthetic datasets, LR schedules, and the Trainer loop."""

import os

import numpy as np
import pytest

from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    load_checkpoint,
)
from repro.nn import GPTModel, TransformerConfig
from repro.utils.rng import seeded_rng
from repro.workloads import (
    ConstantSchedule,
    MarkovCorpus,
    Trainer,
    TrainerConfig,
    per_rank_batches,
)


class TestMarkovCorpus:
    def test_shapes_and_shift(self, rng):
        corpus = MarkovCorpus(50, seed=1)
        ids, targets = corpus.sample(rng, bsz=3, seq=12)
        assert ids.shape == targets.shape == (3, 12)
        np.testing.assert_array_equal(ids[:, 1:], targets[:, :-1])

    def test_transitions_follow_table(self, rng):
        corpus = MarkovCorpus(20, seed=2, branching=3)
        ids, targets = corpus.sample(rng, bsz=4, seq=50)
        for b in range(4):
            for t in range(50):
                assert targets[b, t] in corpus._successors[ids[b, t]]

    def test_entropy_floor_below_uniform(self):
        """Next-token prediction has a floor above zero and below chance:
        the empirical conditional entropy of a sampled stream."""
        corpus = MarkovCorpus(64, seed=3, branching=4)
        ids, targets = corpus.sample(seeded_rng(5), bsz=64, seq=256)
        counts = np.zeros((64, 64))
        np.add.at(counts, (ids.ravel(), targets.ravel()), 1.0)
        rows = counts.sum(axis=1, keepdims=True)
        p = np.divide(counts, rows, out=np.zeros_like(counts), where=rows > 0)
        logp = np.log(p, out=np.zeros_like(p), where=p > 0)
        h = -(counts * logp).sum() / counts.sum()
        assert 0.0 < h < np.log(64)

    def test_deterministic_given_rng(self):
        corpus = MarkovCorpus(30, seed=4)
        a = corpus.sample(seeded_rng(9), bsz=2, seq=8)
        b = corpus.sample(seeded_rng(9), bsz=2, seq=8)
        np.testing.assert_array_equal(a[0], b[0])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            MarkovCorpus(1)
        with pytest.raises(ValueError):
            MarkovCorpus(10).sample(seeded_rng(0), bsz=0, seq=5)


class TestPerRankBatches:
    def test_ranks_get_distinct_data(self):
        it = per_rank_batches(
            MarkovCorpus(32, seed=0), world_size=3, bsz_per_rank=2, seq=8, seed=1
        )
        batch = next(it)
        assert len(batch) == 3
        assert not np.array_equal(batch[0][0], batch[1][0])

    def test_reproducible(self):
        def first():
            it = per_rank_batches(
                MarkovCorpus(32, seed=0), world_size=2, bsz_per_rank=1, seq=4, seed=5
            )
            return next(it)

        a, b = first(), first()
        np.testing.assert_array_equal(a[0][0], b[0][0])


class TestSchedules:
    def test_constant_with_warmup(self):
        s = ConstantSchedule(lr=1.0, warmup_steps=4)
        assert s(0) == 0.25
        assert s(3) == 1.0
        assert s(100) == 1.0

    def test_apply_mutates_optimizer(self):
        class Opt:
            lr = 0.0

        o = Opt()
        ConstantSchedule(lr=0.5).apply(o, 3)
        assert o.lr == 0.5

    def test_invalid_schedules_raise(self):
        with pytest.raises(ValueError):
            ConstantSchedule(lr=0)
        with pytest.raises(ValueError):
            ConstantSchedule(lr=1, warmup_steps=-1)


class CopyTaskDataset:
    """Sequences of the form ``prefix + prefix``; highly learnable.

    The target is the next token, which is deterministic in the second
    half, so a capable model drives the loss well below its start.
    """

    def __init__(self, vocab_size: int) -> None:
        if vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        self.vocab_size = vocab_size

    def sample(
        self, rng: np.random.Generator, *, bsz: int, seq: int
    ) -> tuple[np.ndarray, np.ndarray]:
        if seq % 2:
            raise ValueError("copy task needs an even sequence length")
        half = seq // 2
        prefix = rng.integers(0, self.vocab_size, size=(bsz, half + 1))
        tokens = np.concatenate([prefix, prefix[:, 1:half + 1]], axis=1)
        return tokens[:, :-1], tokens[:, 1:]


def tiny_engine(world=2, **off):
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=16, num_heads=2, vocab_size=32, max_seq=8
    )
    zcfg = ZeroConfig(
        world_size=world, offload=OffloadConfig(**off), loss_scale=1.0
    )
    return ZeroInfinityEngine(
        zcfg, model_factory=lambda: GPTModel(cfg, rng=seeded_rng(1)), lr=5e-3
    )


class TestTrainer:
    def test_copy_task_learns(self):
        """Induction takes a while for a 2-layer hd-16 model; 60 steps at a
        hot LR reliably drops the loss well below the log(V) floor of the
        unpredictable first half."""
        with tiny_engine() as engine:
            data = per_rank_batches(
                CopyTaskDataset(32), world_size=2, bsz_per_rank=8, seq=8, seed=0
            )
            trainer = Trainer(
                engine,
                data,
                TrainerConfig(total_steps=60, log_every=0),
                schedule=ConstantSchedule(lr=2e-2),
            )
            hist = trainer.fit()
            assert len(hist.losses) == 60
            assert hist.final_loss < hist.losses[0] * 0.75

    def test_schedule_recorded(self):
        with tiny_engine() as engine:
            data = per_rank_batches(
                MarkovCorpus(32), world_size=2, bsz_per_rank=2, seq=8, seed=0
            )
            trainer = Trainer(
                engine,
                data,
                TrainerConfig(total_steps=6, log_every=0),
                schedule=ConstantSchedule(lr=1e-2, warmup_steps=3),
            )
            hist = trainer.fit()
            assert hist.lrs[0] < hist.lrs[2]  # warming up
            assert hist.lrs[3:] == [1e-2] * 3  # then constant

    def test_eval_hook(self):
        with tiny_engine() as engine:
            rng = seeded_rng(2)
            ev_ids = rng.integers(0, 32, (2, 8))
            ev_tgt = rng.integers(0, 32, (2, 8))
            data = per_rank_batches(
                MarkovCorpus(32), world_size=2, bsz_per_rank=2, seq=8, seed=0
            )
            trainer = Trainer(
                engine,
                data,
                TrainerConfig(total_steps=4, log_every=0, eval_every=2),
                eval_fn=lambda e: e.evaluate(ev_ids, ev_tgt),
            )
            hist = trainer.fit()
            assert set(hist.eval_losses) == {2, 4}

    def test_checkpoint_and_resume(self, tmp_path):
        data_args = dict(world_size=2, bsz_per_rank=2, seq=8, seed=0)
        cfg = TrainerConfig(
            total_steps=4,
            log_every=0,
            checkpoint_every=2,
            checkpoint_dir=str(tmp_path),
        )
        with tiny_engine() as engine:
            Trainer(
                engine, per_rank_batches(MarkovCorpus(32), **data_args), cfg
            ).fit()
            final_direct = engine.gather_state()
        # resume from step 2 and replay the same data stream
        with tiny_engine() as engine:
            data = per_rank_batches(MarkovCorpus(32), **data_args)
            load_checkpoint(engine, str(tmp_path / "step2"))
            next(data), next(data)  # skip the two consumed steps
            Trainer(engine, data, cfg).fit()
            resumed = engine.gather_state()
        for name in final_direct:
            np.testing.assert_allclose(
                resumed[name], final_direct[name], rtol=1e-4, atol=1e-6
            )

    def test_grad_accumulation_path(self):
        with tiny_engine() as engine:
            data = per_rank_batches(
                MarkovCorpus(32), world_size=2, bsz_per_rank=1, seq=8, seed=0
            )
            cfg = TrainerConfig(total_steps=3, grad_accumulation=2, log_every=0)
            hist = Trainer(engine, data, cfg).fit()
            assert len(hist.losses) == 3
            assert engine.steps_taken == 3

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainerConfig(total_steps=0)
        with pytest.raises(ValueError):
            TrainerConfig(total_steps=5, checkpoint_every=1)
