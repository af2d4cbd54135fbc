"""End-to-end mixed-precision training: the recipe the paper assumes.

The model computes in fp16 with fp32 master weights in the partitioned
optimizer; dynamic loss scaling keeps small gradients above the fp16
underflow threshold.  These tests validate the whole recipe on the real
engine: stable training in fp16, scaler backoff on induced overflow, and
the observability breakdown of where the fp16/fp32 states live.
"""

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
from repro.obs.memscope import use_memscope
from repro.utils.rng import seeded_rng, spawn_rngs

WORLD = 2
VOCAB = 32


def fp16_factory():
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=16, num_heads=2, vocab_size=VOCAB, max_seq=8
    )
    return GPTModel(cfg, rng=seeded_rng(3), dtype=np.float16)


def batches(seed=0):
    rngs = spawn_rngs(seed, WORLD)
    return [
        (r.integers(0, VOCAB, (2, 8)), r.integers(0, VOCAB, (2, 8))) for r in rngs
    ]


class TestFp16Training:
    def test_params_are_fp16_and_master_fp32(self):
        cfg = ZeroConfig(world_size=WORLD, stage=ZeroStage.PARAMETERS)
        with ZeroInfinityEngine(cfg, model_factory=fp16_factory, lr=1e-3) as eng:
            eng.train_step(batches())
            state = eng.gather_state()
            assert all(v.dtype == np.float16 for v in state.values())
            # fp32 master state exists per (param, rank)
            ref = next(iter(eng.optimizer._refs.values()))
            master = eng.offload.fetch(ref.master, rank=0)
            assert master.dtype == np.float32

    def test_dynamic_scaling_trains_stably(self):
        cfg = ZeroConfig(
            world_size=WORLD, stage=ZeroStage.PARAMETERS, loss_scale=None
        )
        with ZeroInfinityEngine(cfg, model_factory=fp16_factory, lr=5e-3) as eng:
            fixed = batches(seed=4)
            losses = [eng.train_step(fixed).mean_loss for _ in range(12)]
            effective = [l for i, l in enumerate(losses)]
            assert all(np.isfinite(l) for l in effective)
            assert losses[-1] < losses[0]

    def test_fp16_nvme_roundtrip_preserves_dtype(self):
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME,
                grad_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
            ),
            loss_scale=None,
        )
        with use_memscope() as scope, ZeroInfinityEngine(
            cfg, model_factory=fp16_factory, lr=1e-3
        ) as eng:
            eng.train_step(batches())
            state = eng.gather_state()
            assert all(v.dtype == np.float16 for v in state.values())
            # param/grad spool entries are half precision on "disk"
            assert scope.breakdown("nvme")["param_fp16"] == sum(
                v.size * 2 for v in state.values()
            )

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_scaler_backs_off_on_injected_overflow(self):
        cfg = ZeroConfig(
            world_size=WORLD, stage=ZeroStage.GRADIENTS, loss_scale=None
        )
        with ZeroInfinityEngine(cfg, model_factory=fp16_factory, lr=1e-3) as eng:
            scale_before = eng.scaler.loss_scale
            b = batches()
            # poison one rank's inputs so the loss (and scaled grads) blow up
            # by corrupting a parameter to a huge value
            eng.model.ln_f.gain.data[:] = np.float16(60000)
            result = eng.train_step(b)
            assert result.skipped
            assert eng.scaler.loss_scale == scale_before / 2
            assert eng.steps_skipped == 1

    def test_scale_one_fp16_loses_small_gradients(self):
        """Why loss scaling exists: at scale 1, fp16 drops gradients that
        the scaled run preserves (counted as exact zeros in grad shards)."""
        def count_zero_grads(loss_scale):
            cfg = ZeroConfig(
                world_size=WORLD,
                stage=ZeroStage.GRADIENTS,
                loss_scale=loss_scale,
            )
            zeros = total = 0
            with ZeroInfinityEngine(cfg, model_factory=fp16_factory, lr=0.0) as eng:
                b = batches(seed=8)
                # run fwd/bwd without optimizer interference (lr 0 anyway)
                eng.coordinator.begin_accumulation()
                for rank, batch in enumerate(b):
                    eng.coordinator.begin_rank(rank)
                    eng.model(*batch)
                    eng.model.backward(loss_scale)
                    eng.coordinator.end_rank_backward()
                eng.coordinator.end_accumulation()
                for group in eng.partitioner.groups:
                    for rank in range(WORLD):
                        g = eng.offload.fetch(group.key(rank, "grad16"), rank=rank)
                        zeros += int((g == 0).sum())
                        total += g.size
            return zeros / total

        unscaled = count_zero_grads(1.0)
        scaled = count_zero_grads(1024.0)
        assert scaled < unscaled  # scaling rescues underflowed gradients

    def test_memory_breakdown_kinds(self):
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=OffloadDevice.CPU,
                optimizer_device=OffloadDevice.CPU,
            ),
            loss_scale=1.0,
        )
        with use_memscope() as scope, ZeroInfinityEngine(
            cfg, model_factory=fp16_factory, lr=1e-3
        ) as eng:
            eng.train_step(batches())
            cpu = scope.breakdown("cpu")
            assert cpu["param_fp16"] > 0
            # optimizer state is fp32 master, exp_avg and exp_avg_sq:
            # 2x the fp16 param bytes per buffer
            assert cpu["optimizer_state"] == 3 * 2 * cpu["param_fp16"]
