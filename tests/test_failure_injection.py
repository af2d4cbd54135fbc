"""Failure injection: the stack fails loudly and cleanly, never silently.

Storage-layer faults (truncated spool files, deleted shards, worker-thread
exceptions, exhausted pinned budgets) must surface as exceptions at the
call that observes them — not hang, not corrupt numerics, not poison
engine shutdown.
"""

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
from repro.faults import FaultUnrecoverable, use_faults
from repro.nn import GPTModel, TransformerConfig
from repro.nvme import AsyncIOEngine, PinnedBufferPool, TensorStore
from repro.nvme.buffers import PinnedBudgetExceeded
from repro.utils.rng import seeded_rng, spawn_rngs
from tests.helpers import spool_sweep

WORLD = 2
VOCAB = 32


def factory():
    cfg = TransformerConfig(
        num_layers=1, hidden_dim=16, num_heads=2, vocab_size=VOCAB, max_seq=8
    )
    return GPTModel(cfg, rng=seeded_rng(3))


def batches(seed=0):
    rngs = spawn_rngs(seed, WORLD)
    return [
        (r.integers(0, VOCAB, (1, 8)), r.integers(0, VOCAB, (1, 8))) for r in rngs
    ]


class TestStorageFaults:
    def test_truncated_spool_file_raises_ioerror(self, tmp_path):
        with TensorStore(str(tmp_path)) as store:
            store.write("x", np.arange(1000, dtype=np.float32))
            path = store._records["x"].path
            with open(path, "r+b") as f:
                f.truncate(100)  # corrupt: shorter than the record
            with pytest.raises(IOError):
                store.read("x")

    def test_deleted_shard_file_raises(self, tmp_path):
        with TensorStore(str(tmp_path)) as store:
            store.write("x", np.zeros(10, dtype=np.float32))
            os.remove(store._records["x"].path)
            with pytest.raises(OSError):
                store.read("x")

    def test_engine_surfaces_missing_shard(self, tmp_path):
        """Deleting a parameter shard mid-training raises at the gather;
        every replay hits the same hole, so the step gives up attributed,
        with the missing file as the cause."""
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME, nvme_dir=str(tmp_path)
            ),
            loss_scale=1.0,
            prefetch_depth=0,
        )
        with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
            eng.train_step(batches())
            key = eng.partitioner.groups[0].key(0)
            os.remove(eng.offload.store._records[key].path)
            with pytest.raises(FaultUnrecoverable) as exc:
                eng.train_step(batches(seed=1))
            assert isinstance(exc.value.__cause__, FileNotFoundError)

    def test_abandoned_prefetch_error_is_reported(self, tmp_path):
        """A prefetch whose read fails and whose key is overwritten before
        anyone waits on it is drained, counted once and reported by
        ``engine.report()`` beside the fallbacks."""
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME, nvme_dir=str(tmp_path)
            ),
            loss_scale=1.0,
        )
        with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
            eng.train_step(batches())
            assert eng.report().abandoned_prefetch_errors == 0
            off = eng.offload
            off.stash("k", np.zeros(256, np.float32), OffloadDevice.NVME, rank=0)
            with use_faults("io_error@aio.read:times=3"):  # past its retries
                assert off.prefetch("k", rank=0)
                off.stash("k", np.ones(256, np.float32), OffloadDevice.NVME, rank=0)
            assert eng.report().abandoned_prefetch_errors == 1

    def test_failed_prefetch_surfaces_at_fetch(self, tmp_path):
        """An async read that fails mid-flight raises when awaited."""
        cfg = OffloadConfig(param_device=OffloadDevice.NVME, nvme_dir=str(tmp_path))
        from repro.core.offload import InfinityOffloadEngine

        eng = InfinityOffloadEngine(cfg)
        eng.stash("k", np.zeros(100_000, dtype=np.float32), OffloadDevice.NVME, rank=0)
        path = eng.store._records["k"].path
        os.remove(path)
        assert eng.prefetch("k", rank=0)  # submission succeeds
        with pytest.raises(OSError):
            eng.fetch("k", rank=0)  # the wait observes the failure
        # engine shutdown must not re-raise the already-observed error
        eng.close()

    def test_kernel_exception_mid_pipeline_propagates_and_rolls_back(
        self, tmp_path, monkeypatch
    ):
        """An exception out of the update kernel — not an I/O fault, so no
        replay — while the optimizer pipeline has reads ahead and shadow
        writes behind: it reaches the caller, every staging buffer returns
        to the pool, no shadow record survives, and the stored state is the
        pre-step state (retrying the step matches an undisturbed run)."""
        from repro.core import zero_optimizer

        nvme = OffloadDevice.NVME

        def engine(spool):
            cfg = ZeroConfig(
                world_size=WORLD,
                stage=ZeroStage.PARAMETERS,
                offload=OffloadConfig(
                    param_device=nvme,
                    grad_device=nvme,
                    optimizer_device=nvme,
                    optimizer_chunk_numel=97,  # spans + packs: many sub-groups
                    nvme_dir=str(spool),
                ),
                loss_scale=1.0,
            )
            return ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-2)

        with engine(tmp_path / "ref") as eng:
            eng.train_step(batches())
            eng.train_step(batches(seed=1))
            ref = eng.gather_state()

        kernel = zero_optimizer.adam_step
        calls = []

        def failing_kernel(*args, **kwargs):
            calls.append(None)
            if len(calls) == 5:
                raise RuntimeError("kernel failed")
            return kernel(*args, **kwargs)

        spool = tmp_path / "faulted"
        with engine(spool) as eng:
            eng.train_step(batches())
            live = eng.offload.pool._live_bytes
            with monkeypatch.context() as patched:
                patched.setattr(zero_optimizer, "adam_step", failing_kernel)
                with pytest.raises(RuntimeError, match="kernel failed"):
                    eng.train_step(batches(seed=1))
            assert eng.offload.pool._live_bytes == live
            assert spool_sweep(eng.offload.store) == []
            eng.train_step(batches(seed=1))
            got = eng.gather_state()
        assert spool_sweep(eng.offload.store) == []
        for name, expected in ref.items():
            np.testing.assert_array_equal(got[name], expected, err_msg=name)


class TestResourceExhaustion:
    def test_pinned_exhaustion_falls_back_unpinned(self, tmp_path):
        """Prefetch under a starved pinned pool degrades, not fails."""
        from repro.core.offload import InfinityOffloadEngine

        cfg = OffloadConfig(
            param_device=OffloadDevice.NVME,
            nvme_dir=str(tmp_path),
            pinned_budget_bytes=4096,  # far below the tensor size
        )
        eng = InfinityOffloadEngine(cfg)
        data = np.arange(100_000, dtype=np.float32)
        eng.stash("k", data, OffloadDevice.NVME, rank=0)
        assert eng.prefetch("k", rank=0)  # fell back to unpinned staging
        out = eng.fetch("k", rank=0)
        np.testing.assert_array_equal(out, data)
        eng.close()

    def test_direct_pool_exhaustion_still_raises(self):
        pool = PinnedBufferPool(4096, alignment=64)
        with pytest.raises(PinnedBudgetExceeded):
            pool.acquire(10_000, np.float32)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_engine_usable_after_skipped_step(self):
        """A skipped (overflow) step must leave the engine consistent."""
        cfg = ZeroConfig(
            world_size=WORLD, stage=ZeroStage.PARAMETERS, loss_scale=None
        )
        with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
            before = eng.gather_state()
            # force an overflow: the seed gradient itself exceeds fp32 max
            eng.scaler.scale = 1e45
            r = eng.train_step(batches())
            assert r.skipped
            after = eng.gather_state()
            for name in before:  # no partial update leaked
                np.testing.assert_array_equal(before[name], after[name])
            # and the next (sane) step trains
            eng.scaler.scale = 1024.0
            r2 = eng.train_step(batches(seed=2))
            assert not r2.skipped


class TestShutdownHygiene:
    def test_double_close_is_safe(self):
        cfg = ZeroConfig(world_size=WORLD, stage=ZeroStage.PARAMETERS)
        eng = ZeroInfinityEngine(cfg, model_factory=factory)
        eng.close()
        eng.close()  # idempotent

    def test_closed_aio_engine_rejects_new_work(self, tmp_path):
        eng = AsyncIOEngine()
        eng.close()
        with pytest.raises(RuntimeError):
            eng.submit_read(str(tmp_path / "x"), np.zeros(4))

    def test_spool_directory_removed_on_close(self):
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(param_device=OffloadDevice.NVME),
        )
        eng = ZeroInfinityEngine(cfg, model_factory=factory)
        spool = eng.offload.store.directory
        assert os.path.isdir(spool)
        eng.close()
        assert not os.path.exists(spool)
