"""Elastic training: checkpoint on N ranks, resume on M.

A fine-tuning job starts on a small allocation, checkpoints, and resumes on
a bigger one (or a degraded one after a node failure).  The sharded
checkpoint written by ``save_checkpoint`` is tied to its world size; the
resharder converts it — concatenating every parameter's fp16 shards and
fp32 optimizer shards, stripping the old padding, and re-splitting for the
new layout — so the run continues bit-exactly where it left off.

Run:  python examples/elastic_resume.py
"""

import tempfile

import numpy as np

from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.checkpoint_io import reshard_checkpoint
from repro.nn import GPTModel, TransformerConfig
from repro.utils.rng import seeded_rng, spawn_rngs
from repro.workloads import MarkovCorpus, per_rank_batches

VOCAB = 64


def factory():
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=32, num_heads=4, vocab_size=VOCAB, max_seq=16
    )
    return GPTModel(cfg, rng=seeded_rng(9))


def engine_for(world: int) -> ZeroInfinityEngine:
    cfg = ZeroConfig(
        world_size=world,
        offload=OffloadConfig(
            param_device=OffloadDevice.NVME, optimizer_device=OffloadDevice.NVME
        ),
        loss_scale=1.0,
    )
    return ZeroInfinityEngine(cfg, model_factory=factory, lr=3e-3)


def main() -> None:
    corpus = MarkovCorpus(VOCAB, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = f"{tmp}/world2", f"{tmp}/world8"

        # phase 1: a small 2-rank allocation
        with engine_for(2) as engine:
            data = per_rank_batches(corpus, world_size=2, bsz_per_rank=4, seq=16, seed=1)
            for step in range(5):
                r = engine.train_step(next(data))
                print(f"[world=2] step {step}  loss {r.mean_loss:.4f}")
            save_checkpoint(engine, src)
            frozen = engine.gather_state()

        # reshard 2 -> 8 (every parameter group's shards re-split for 8 ranks)
        manifest = reshard_checkpoint(src, dst, new_world_size=8)
        print(
            f"\nresharded checkpoint: world {2} -> {manifest['world_size']},"
            f" {len(manifest['groups'])} parameter groups\n"
        )

        # phase 2: resume on an 8-rank allocation
        with engine_for(8) as engine:
            load_checkpoint(engine, dst)
            restored = engine.gather_state()
            drift = max(
                float(np.abs(restored[k] - frozen[k]).max()) for k in frozen
            )
            print(f"[world=8] restored exactly (max weight drift: {drift:.1e})")
            data = per_rank_batches(corpus, world_size=8, bsz_per_rank=1, seq=16, seed=2)
            for step in range(5, 8):
                r = engine.train_step(next(data))
                print(f"[world=8] step {step}  loss {r.mean_loss:.4f}")
        assert drift == 0.0


if __name__ == "__main__":
    main()
