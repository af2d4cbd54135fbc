"""Larger-configuration integration tests (the sizes unit tests avoid).

A wider world (8 ranks), a deeper model (4 layers, ~1M parameters),
mixed placements, activation checkpointing with NVMe offload, accumulation
and checkpoint/restore in one scenario — the closest this suite gets to a
production fine-tuning job, still in seconds.
"""

import threading

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
from repro.core.checkpoint_io import load_checkpoint, save_checkpoint
from repro.nn import GPTModel, TransformerConfig
from repro.nvme import TensorStore
from repro.utils.rng import seeded_rng, spawn_rngs
from tests.helpers import store_keys

WORLD = 8
VOCAB = 128


def big_factory():
    cfg = TransformerConfig(
        num_layers=4,
        hidden_dim=64,
        num_heads=8,
        vocab_size=VOCAB,
        max_seq=16,
        tie_embeddings=True,
        activation_checkpointing=True,
    )
    return GPTModel(cfg, rng=seeded_rng(21))


def batches(seed=0, bsz=2):
    rngs = spawn_rngs(seed, WORLD)
    return [
        (r.integers(0, VOCAB, (bsz, 16)), r.integers(0, VOCAB, (bsz, 16)))
        for r in rngs
    ]


class TestWideWorldIntegration:
    def test_8rank_nvme_full_stack_matches_ddp(self, tmp_path):
        """8 ranks, NVMe everything, activation offload, tied weights,
        accumulation — numerically equal to DDP, then checkpoint/restore."""
        rounds = [batches(s, bsz=1) for s in (0, 1)]
        merged = [
            (
                np.concatenate([rounds[0][r][0], rounds[1][r][0]]),
                np.concatenate([rounds[0][r][1], rounds[1][r][1]]),
            )
            for r in range(WORLD)
        ]
        ddp = DDPTrainer(big_factory, WORLD, lr=1e-2)
        ref_losses = ddp.train_step(merged)

        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME,
                grad_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
                activation_device=OffloadDevice.NVME,
                optimizer_chunk_numel=977,
            ),
            loss_scale=1.0,
        )
        with ZeroInfinityEngine(cfg, model_factory=big_factory, lr=1e-2) as eng:
            assert eng.model.num_parameters() > 200_000
            result = eng.train_step_accumulated(rounds)
            # per-round per-rank losses average to the merged-batch losses
            got = np.asarray(result.losses).reshape(2, WORLD).mean(axis=0)
            np.testing.assert_allclose(got, ref_losses, rtol=1e-4)

            save_checkpoint(eng, str(tmp_path / "ck"))
            before = eng.gather_state()
        # a fresh engine restores to identical weights
        with ZeroInfinityEngine(cfg, model_factory=big_factory, lr=1e-2) as eng2:
            load_checkpoint(eng2, str(tmp_path / "ck"))
            after = eng2.gather_state()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_engine_flag_introspection_path(self):
        """The introspect_activations engine flag installs without harm on
        a model that returns plain arrays."""
        cfg = ZeroConfig(world_size=2, stage=ZeroStage.PARAMETERS, loss_scale=1.0)
        small = lambda: GPTModel(
            TransformerConfig(
                num_layers=1, hidden_dim=16, num_heads=2, vocab_size=VOCAB, max_seq=8
            ),
            rng=seeded_rng(0),
        )
        with ZeroInfinityEngine(
            cfg, model_factory=small, lr=1e-3, introspect_activations=True
        ) as eng:
            rngs = spawn_rngs(1, 2)
            b = [
                (r.integers(0, VOCAB, (1, 8)), r.integers(0, VOCAB, (1, 8)))
                for r in rngs
            ]
            r1 = eng.train_step(b)
            assert np.isfinite(r1.mean_loss)


class TestStoreThreadSafety:
    def test_concurrent_writers_and_readers(self, tmp_path):
        """Many threads hammer the store on disjoint keys: all round-trips
        are bitwise, no metadata corruption."""
        errors: list[Exception] = []
        with TensorStore(str(tmp_path)) as store:

            def worker(tid: int) -> None:
                try:
                    rng = seeded_rng(tid)
                    for i in range(15):
                        key = f"t{tid}.k{i}"
                        data = rng.standard_normal(257 + tid).astype(np.float32)
                        store.write(key, data)
                        out = store.read(key)
                        np.testing.assert_array_equal(out, data)
                        if i % 3 == 0:
                            store.delete(key)
                except Exception as e:  # noqa: BLE001 - surfaced below
                    errors.append(e)

            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert errors == []
            # remaining keys are exactly the non-deleted ones
            assert all(
                int(k.split("k")[-1]) % 3 != 0 for k in store_keys(store)
            )

    def test_concurrent_same_key_overwrites_atomic_metadata(self, tmp_path):
        """Racing overwrites of one key: the final read matches *some*
        writer's payload (no torn metadata)."""
        with TensorStore(str(tmp_path)) as store:
            store.write("x", np.zeros(64, dtype=np.float32))
            payloads = {
                t: np.full(64, float(t), dtype=np.float32) for t in range(6)
            }

            def writer(t):
                for _ in range(10):
                    store.write("x", payloads[t])

            threads = [threading.Thread(target=writer, args=(t,)) for t in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            final = store.read("x")
            assert any(
                np.array_equal(final, p) for p in payloads.values()
            )
