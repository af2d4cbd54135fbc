"""Functional-layer micro-benchmarks (real numpy execution, real file I/O).

Unlike the figure benches (which model a V100 cluster), these time the
actual code paths of the functional engine on this machine, answering: what
does each ZeRO-Infinity mechanism cost *in this implementation*?

* full training step: DDP baseline vs ZeRO-3 vs ZeRO-Infinity (NVMe);
* parameter gather path: resident vs NVMe, prefetched vs cold;
* tiled vs dense linear forward+backward;
* tensor-store swap throughput.
"""

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
from repro.core.tiling import TiledLinear
from repro.nn import GPTModel, Linear, TransformerConfig
from repro.nvme import TensorStore
from repro.utils.rng import seeded_rng, spawn_rngs

WORLD = 4
VOCAB = 64


def factory():
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=64, num_heads=4, vocab_size=VOCAB, max_seq=16
    )
    return GPTModel(cfg, rng=seeded_rng(7))


def batches(seed=0, bsz=2, seq=16):
    rngs = spawn_rngs(seed, WORLD)
    return [
        (r.integers(0, VOCAB, (bsz, seq)), r.integers(0, VOCAB, (bsz, seq)))
        for r in rngs
    ]


class TestStepLatency:
    def test_ddp_baseline_step(self, benchmark):
        trainer = DDPTrainer(factory, WORLD, lr=1e-3)
        b = batches()
        benchmark(lambda: trainer.train_step(b))

    def test_zero3_step(self, benchmark):
        cfg = ZeroConfig(world_size=WORLD, stage=ZeroStage.PARAMETERS, loss_scale=1.0)
        with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
            b = batches()
            benchmark(lambda: eng.train_step(b))

    def test_zero_infinity_nvme_step(self, benchmark):
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME,
                grad_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
            ),
            loss_scale=1.0,
        )
        with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
            b = batches()
            eng.train_step(b)  # warm the trace so prefetching is active
            benchmark(lambda: eng.train_step(b))


class TestGatherPath:
    def _engine(self, device):
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(param_device=device),
            loss_scale=1.0,
        )
        return ZeroInfinityEngine(cfg, model_factory=factory)

    def test_gather_release_resident(self, benchmark):
        with self._engine(OffloadDevice.NONE) as eng:
            p = eng.model.parameters()[0]

            def cycle():
                eng.partitioner.gather(p)
                eng.partitioner.release(p)

            benchmark(cycle)

    def test_gather_release_nvme(self, benchmark):
        with self._engine(OffloadDevice.NVME) as eng:
            p = eng.model.parameters()[0]

            def cycle():
                eng.partitioner.gather(p)
                eng.partitioner.release(p)

            benchmark(cycle)


class TestTiledLinearCost:
    """Tiling trades a modest dispatch overhead for bounded working memory."""

    def _layers(self, tiles):
        dense = Linear(256, 1024, rng=seeded_rng(0))
        layer = (
            dense if tiles == 1 else TiledLinear.from_linear(dense, out_tiles=tiles)
        )
        x = seeded_rng(1).standard_normal((8, 256)).astype(np.float32)
        g = seeded_rng(2).standard_normal((8, 1024)).astype(np.float32)
        return layer, x, g

    @pytest.mark.parametrize("tiles", [1, 4, 16])
    def test_forward_backward(self, benchmark, tiles):
        layer, x, g = self._layers(tiles)

        def step():
            layer(x)
            layer.backward(g)
            layer.zero_grad()

        benchmark(step)


class TestSwapThroughput:
    @pytest.mark.parametrize("mb", [1, 16])
    def test_write_read_roundtrip(self, benchmark, tmp_path, mb):
        data = np.zeros(mb * (1 << 20) // 4, dtype=np.float32)
        with TensorStore(str(tmp_path / f"spool{mb}")) as store:

            def roundtrip():
                store.write("x", data)
                store.read("x")

            benchmark(roundtrip)
