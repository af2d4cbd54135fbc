"""JSONL metrics logging: durability, batching, and trainer integration."""

import json
import os

import numpy as np
import pytest

from repro.core import ZeroConfig, ZeroInfinityEngine
from repro.nn import GPTModel, TransformerConfig
from repro.utils.rng import seeded_rng
from repro.workloads import (
    ConstantSchedule,
    MarkovCorpus,
    MetricsLogger,
    Trainer,
    TrainerConfig,
    per_rank_batches,
)


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestMetricsLogger:
    def test_log_and_reload(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with MetricsLogger(path, run_name="exp1") as log:
            log.log("config", world=4)
            log.log_step(0, 3.5, 1e-3)
            log.log_step(1, 3.2, 1e-3, skipped=False)
        records = read_jsonl(path)
        assert len(records) == 3
        assert records[0]["run"] == "exp1"
        assert records[1]["event"] == "step"
        assert [r["seq"] for r in records] == [0, 1, 2]

    def test_append_mode_across_sessions(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with MetricsLogger(path) as log:
            log.log_step(0, 3.0, 1e-3)
        with MetricsLogger(path) as log:
            log.log_step(1, 2.5, 1e-3)
        assert [r["step"] for r in read_jsonl(path)] == [0, 1]

    def test_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "run.jsonl")
        with MetricsLogger(path) as log:
            log.log("x")
        assert os.path.exists(path)

    def test_close_is_idempotent(self, tmp_path):
        log = MetricsLogger(str(tmp_path / "run.jsonl"))
        log.log("x")
        assert not log.closed
        log.close()
        log.close()  # second close must be a no-op, not an error
        assert log.closed

    def test_log_after_close_raises(self, tmp_path):
        log = MetricsLogger(str(tmp_path / "run.jsonl"))
        log.close()
        with pytest.raises(ValueError, match="closed"):
            log.log("late")

    def test_flush_every_batches_writes(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        log = MetricsLogger(path, flush_every=3)
        log.log("a")
        log.log("b")
        assert read_jsonl(path) == []  # buffered: nothing durable yet
        log.log("c")  # third event crosses the batch boundary
        assert [r["event"] for r in read_jsonl(path)] == ["a", "b", "c"]
        log.log("d")
        log.close()  # close flushes the partial batch
        assert len(read_jsonl(path)) == 4

    def test_flush_every_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            MetricsLogger(str(tmp_path / "run.jsonl"), flush_every=0)


class TestTrainerIntegration:
    def test_trainer_writes_metrics(self, tmp_path):
        cfg = TransformerConfig(
            num_layers=1, hidden_dim=16, num_heads=2, vocab_size=32, max_seq=8
        )
        zcfg = ZeroConfig(world_size=2, loss_scale=1.0)
        path = str(tmp_path / "train.jsonl")
        with ZeroInfinityEngine(
            zcfg, model_factory=lambda: GPTModel(cfg, rng=seeded_rng(0)), lr=1e-3
        ) as engine, MetricsLogger(path) as metrics:
            data = per_rank_batches(
                MarkovCorpus(32), world_size=2, bsz_per_rank=2, seq=8, seed=0
            )
            trainer = Trainer(
                engine,
                data,
                TrainerConfig(total_steps=4, log_every=0),
                schedule=ConstantSchedule(lr=1e-3),
                metrics=metrics,
            )
            hist = trainer.fit()
        records = [r for r in read_jsonl(path) if r["event"] == "step"]
        assert len(records) == 4
        logged = [r["loss"] for r in records]
        np.testing.assert_allclose(logged, hist.losses)
        assert all("loss_scale" in r for r in records)
