"""Unit tests for repro.faults and the per-layer resilience tiers.

The chaos *matrix* (full engine runs under fault schedules) lives in
``tests/test_chaos.py``; this file pins down the primitives it builds on:
the spec grammar, deterministic scheduling, the virtual clock, bounded
retries, checksum verify-on-fetch, atomic spool commits (the torn-write
regression), leak-proof pinned acquisition, and the offload fallbacks.
"""

import os
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.checkpoint_io import _atomic_json, _atomic_save
from repro.core.config import OffloadConfig, OffloadDevice
from repro.core.offload import InfinityOffloadEngine
from repro.faults import (
    FaultPlane,
    FaultRule,
    FaultUnrecoverable,
    InjectedExhaustion,
    InjectedIOError,
    InjectedTornWrite,
    RetryPolicy,
    parse_faults,
    run_with_retries,
    use_faults,
    virtual_clock,
)
from repro.nvme.buffers import PinnedBudgetExceeded, PinnedBufferPool
from repro.nvme.store import TensorStore


class TestSpec:
    def test_parse_format_round_trip(self):
        spec = (
            "io_error@aio.read:times=2;"
            "bit_flip@aio.read:key=master;"
            "slow@aio.write:p=0.5,delay_us=500"
        )
        rules = parse_faults(spec)
        assert parse_faults("; ".join(r.format() for r in rules)) == rules

    def test_parse_fields(self):
        (rule,) = parse_faults("io_error@aio.write:times=3,after=2,key=grad16")
        assert rule.kind == "io_error"
        assert rule.site == "aio.write"
        assert rule.times == 3
        assert rule.after == 2
        assert rule.key == "grad16"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_faults("meteor@aio.read")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            parse_faults("io_error@gpu.hbm")

    def test_kind_site_compatibility(self):
        # exhaustion only makes sense where an allocation happens
        with pytest.raises(ValueError):
            parse_faults("pinned_exhaustion@aio.read")

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(kind="io_error", site="aio.read", p=1.5)


class TestPlane:
    def test_times_fires_exactly_n(self):
        plane = FaultPlane("io_error@aio.read:times=2")
        hits = 0
        for _ in range(10):
            try:
                plane.on_event("aio.read", key="k")
            except InjectedIOError:
                hits += 1
        assert hits == 2
        assert plane.injected == {"io_error@aio.read": 2}
        assert sum(plane.injected.values()) == 2

    def test_at_fires_on_exact_occurrence(self):
        plane = FaultPlane("io_error@aio.read:at=3")
        outcomes = []
        for _ in range(6):
            try:
                plane.on_event("aio.read")
                outcomes.append(False)
            except InjectedIOError:
                outcomes.append(True)
        assert outcomes == [False, False, False, True, False, False]

    def test_key_filter_is_substring(self):
        plane = FaultPlane("io_error@aio.read:key=exp_avg")
        plane.on_event("aio.read", key="p3.r0.master")  # no match, no raise
        with pytest.raises(InjectedIOError):
            plane.on_event("aio.read", key="p3.r0.exp_avg")

    def test_rank_filter(self):
        plane = FaultPlane("straggler@rank.begin:rank=1,delay_us=777,times=1")
        before = virtual_clock().now_us()
        plane.on_event("rank.begin", rank=0)
        assert virtual_clock().now_us() == before
        plane.on_event("rank.begin", rank=1)
        assert virtual_clock().now_us() == before + 777

    def test_probability_schedule_is_seed_deterministic(self):
        def fires(seed):
            plane = FaultPlane("io_error@aio.read:p=0.5", seed=seed)
            out = []
            for _ in range(64):
                try:
                    plane.on_event("aio.read")
                    out.append(0)
                except InjectedIOError:
                    out.append(1)
            return out

        assert fires(7) == fires(7)
        assert fires(7) != fires(8)
        assert 0 < sum(fires(7)) < 64  # actually probabilistic

    def test_bit_flip_corrupts_deterministic_byte(self):
        buf_a = np.zeros(256, dtype=np.uint8)
        buf_b = np.zeros(256, dtype=np.uint8)
        FaultPlane("bit_flip@aio.read").corrupt("aio.read", buf_a, key="k")
        FaultPlane("bit_flip@aio.read").corrupt("aio.read", buf_b, key="k")
        assert buf_a.sum() == 0xFF  # exactly one byte flipped
        assert np.array_equal(buf_a, buf_b)  # the same byte both times

    def test_exhaustion_is_a_memory_error(self):
        plane = FaultPlane("pinned_exhaustion@pool.acquire")
        with pytest.raises(MemoryError):
            plane.on_event("pool.acquire", nbytes=4096)

    def test_torn_write_is_an_os_error(self):
        plane = FaultPlane("torn_write@store.commit")
        with pytest.raises(OSError):
            plane.on_event("store.commit", key="x.bin")


class TestRetry:
    def test_succeeds_within_budget_on_virtual_clock(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        before = virtual_clock().now_us()
        policy = RetryPolicy(attempts=2, backoff_us=100, backoff_mult=2.0)
        assert run_with_retries("aio.read", flaky, policy=policy) == "ok"
        assert calls["n"] == 3
        # 100us after try 1, 200us after try 2 — virtual, never slept
        assert virtual_clock().now_us() == before + 300

    def test_exhaustion_reraises_the_original_error(self):
        def always():
            raise OSError("device gone")

        policy = RetryPolicy(attempts=2, backoff_us=1)
        with pytest.raises(OSError, match="device gone"):
            run_with_retries("aio.write", always, policy=policy)

    def test_non_retryable_errors_pass_straight_through(self):
        def boom():
            raise ValueError("logic bug")

        calls = []
        with pytest.raises(ValueError):
            run_with_retries(
                "aio.read",
                boom,
                policy=RetryPolicy(attempts=5, backoff_us=1),
                on_retry=lambda: calls.append(1),
            )
        assert calls == []


class TestStoreResilience:
    def test_injected_read_errors_healed_by_aio_retries(self, tmp_path):
        with TensorStore(str(tmp_path)) as store:
            data = np.arange(1024, dtype=np.float32)
            store.write("k", data)
            with use_faults("io_error@aio.read:times=2"):
                out = store.read("k")
            assert np.array_equal(out, data)
            assert store.engine.stats.read_retries == 2

    def test_read_error_storm_escapes_after_budget(self, tmp_path):
        with TensorStore(str(tmp_path)) as store:
            store.write("k", np.zeros(64, dtype=np.float32))
            with use_faults("io_error@aio.read:times=50"):
                with pytest.raises(InjectedIOError):
                    store.read("k")

    def test_bit_flip_healed_by_checksum_refetch(self, tmp_path):
        with TensorStore(str(tmp_path)) as store:
            data = np.arange(4096, dtype=np.float32)
            store.write("k", data)
            with use_faults("bit_flip@aio.read:times=1"):
                out = store.read("k")
            assert np.array_equal(out, data)
            assert store.checksum_refetches == 1
            assert store.checksum_failures == 0

    def test_persistent_corruption_is_unrecoverable_and_attributed(
        self, tmp_path
    ):
        with TensorStore(str(tmp_path), refetch_retries=2) as store:
            store.write("p0.r0.master", np.ones(512, dtype=np.float32))
            with use_faults("bit_flip@aio.read:times=10"):
                with pytest.raises(FaultUnrecoverable) as exc:
                    store.read("p0.r0.master")
            assert exc.value.site == "store.read"
            assert exc.value.kind == "checksum"
            assert exc.value.attempts == 2
            assert store.checksum_failures == 1

    def test_torn_commit_keeps_old_record_readable(self, tmp_path):
        """Satellite regression: a writer killed mid-write must never tear.

        The injected torn write raises at the commit point — after the bytes
        landed in the record's idle slot, before the metadata flips to it —
        exactly where a killed writer stops.
        """
        with TensorStore(str(tmp_path)) as store:
            v1 = np.full(256, 1.0, dtype=np.float32)
            v2 = np.full(256, 2.0, dtype=np.float32)
            store.write("k", v1)
            with use_faults("torn_write@store.commit:times=1"):
                with pytest.raises(InjectedTornWrite):
                    store.write("k", v2)
            # old bytes and old metadata both still describe v1
            assert np.array_equal(store.read("k"), v1)
            # and no temp spool file was made to leave behind
            leftovers = [f for f in os.listdir(tmp_path) if ".tmp" in f]
            assert leftovers == []
            # and the store heals: the next write commits normally
            store.write("k", v2)
            assert np.array_equal(store.read("k"), v2)

    def test_torn_commit_of_a_new_key_rolls_back_metadata(self, tmp_path):
        with TensorStore(str(tmp_path)) as store:
            with use_faults("torn_write@store.commit:times=1"):
                with pytest.raises(InjectedTornWrite):
                    store.write("fresh", np.zeros(64, dtype=np.float32))
            assert "fresh" not in store


class TestPinnedPoolLeaks:
    def test_failed_fresh_acquire_leaks_nothing(self):
        """Satellite regression: a raise inside acquire must not leak the
        reservation — loop acquire/fail and assert the pool is unchanged."""
        pool = PinnedBufferPool(1 << 20)
        with use_faults("pinned_exhaustion@pool.acquire:times=8"):
            for _ in range(8):
                with pytest.raises(InjectedExhaustion):
                    pool.acquire(1024, np.float32)
        assert pool._live_bytes == 0
        assert pool._cached_bytes == 0
        # pool still fully usable at the full budget
        buf = pool.acquire((1 << 20) // 4, np.float32)
        buf.release()
        assert pool._live_bytes == 0

    def test_failed_reuse_acquire_restores_free_list(self):
        pool = PinnedBufferPool(1 << 20)
        pool.acquire(1024, np.float32).release()  # seed the free list
        cached_before = pool._cached_bytes
        with use_faults("pinned_exhaustion@pool.acquire:times=4"):
            for _ in range(4):
                with pytest.raises(InjectedExhaustion):
                    pool.acquire(1024, np.float32)
        assert pool._live_bytes == 0
        assert pool._cached_bytes == cached_before
        # the cached buffer is still reusable
        buf = pool.acquire(1024, np.float32)
        assert pool.stats.reuse_hits == 1
        buf.release()

    def test_organic_budget_exceeded_still_raises_and_leaks_nothing(self):
        pool = PinnedBufferPool(4096)
        with pytest.raises(PinnedBudgetExceeded):
            pool.acquire(8192, np.float32)
        assert pool._live_bytes == 0
        assert pool._cached_bytes == 0

    def test_interleaved_fail_and_success_conserves_bytes(self):
        pool = PinnedBufferPool(1 << 20)
        with use_faults("pinned_exhaustion@pool.acquire:p=0.5", seed=3):
            for _ in range(32):
                try:
                    pool.acquire(2048, np.float32).release()
                except MemoryError:
                    pass
        assert pool._live_bytes == 0


class TestOffloadFallbacks:
    def _nvme_engine(self, tmp_path):
        return InfinityOffloadEngine(
            OffloadConfig(
                param_device=OffloadDevice.NVME,
                grad_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
                nvme_dir=str(tmp_path),
            )
        )

    def test_failed_prefetch_falls_back_to_sync_read(self, tmp_path):
        with self._nvme_engine(tmp_path) as off:
            data = np.arange(2048, dtype=np.float32)
            off.stash("k", data, OffloadDevice.NVME, rank=0)
            # 3 fires: the prefetch read's first try + both retries fail;
            # the sync fallback read then runs with the rule exhausted
            with use_faults("io_error@aio.read:times=3"):
                assert off.prefetch("k", rank=0)
                out = off.fetch("k", rank=0)
            assert np.array_equal(out, data.reshape(out.shape))
            assert off.counters.prefetch_fallbacks == 1
            assert off.pool._live_bytes == 0

    def test_failed_prefetch_fetch_into_falls_back(self, tmp_path):
        with self._nvme_engine(tmp_path) as off:
            data = np.arange(1024, dtype=np.float32)
            off.stash("k", data, OffloadDevice.NVME, rank=0)
            dest = np.empty(1024, dtype=np.float32)
            with use_faults("io_error@aio.read:times=3"):
                assert off.prefetch("k", rank=0)
                off.fetch_into("k", dest, rank=0)
            assert np.array_equal(dest, data)
            assert off.counters.prefetch_fallbacks == 1

    def test_pinned_exhaustion_prefetch_stages_unpinned(self, tmp_path):
        with self._nvme_engine(tmp_path) as off:
            data = np.arange(512, dtype=np.float32)
            off.stash("k", data, OffloadDevice.NVME, rank=0)
            with use_faults("pinned_exhaustion@pool.acquire:times=1"):
                assert off.prefetch("k", rank=0)
                out = off.fetch("k", rank=0)
            assert np.array_equal(out, data.reshape(out.shape))
            assert off.counters.pinned_fallbacks == 1

    @pytest.mark.parametrize("failure", ["io_error", "corrupt_record"])
    def test_overwrite_drains_failed_prefetch_without_raising(
        self, failure, tmp_path
    ):
        """The prefetch read dies of an I/O error past its retries, or of a
        checksum mismatch on bytes corrupted on disk (FaultUnrecoverable):
        either way the overwrite drains it, counts it once and proceeds."""
        with self._nvme_engine(tmp_path) as off:
            v1 = np.zeros(256, dtype=np.float32)
            v2 = np.ones(256, dtype=np.float32)
            off.stash("k", v1, OffloadDevice.NVME, rank=0)
            if failure == "io_error":
                faults = use_faults("io_error@aio.read:times=3")
            else:
                with open(os.path.join(tmp_path, "k.bin"), "r+b") as f:
                    f.write(b"\xff" * 16)
                faults = nullcontext()
            with faults:
                assert off.prefetch("k", rank=0)
                off.stash("k", v2, OffloadDevice.NVME, rank=0)  # must not raise
            assert off.counters.abandoned_prefetch_errors == 1
            assert np.array_equal(off.fetch("k", rank=0), v2)
            assert off.pool._live_bytes == 0


class TestAtomicCheckpointWrites:
    def test_atomic_save_round_trip(self, tmp_path):
        path = str(tmp_path / "shard.npy")
        data = np.arange(64, dtype=np.float16)
        _atomic_save(path, data)
        assert np.array_equal(np.load(path), data)
        assert os.listdir(tmp_path) == ["shard.npy"]

    def test_killed_writer_preserves_previous_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "shard.npy")
        v1 = np.arange(64, dtype=np.float32)
        _atomic_save(path, v1)

        def dying_save(f, arr):
            f.write(b"\x93NUMPY-partial-garbage")
            raise KeyboardInterrupt  # the harshest writer death

        monkeypatch.setattr(np, "save", dying_save)
        with pytest.raises(KeyboardInterrupt):
            _atomic_save(path, v1 * 2)
        monkeypatch.undo()
        assert np.array_equal(np.load(path), v1)  # old bytes intact
        assert os.listdir(tmp_path) == ["shard.npy"]  # temp cleaned up

    def test_atomic_json_round_trip_and_rollback(self, tmp_path, monkeypatch):
        import json as json_mod

        path = str(tmp_path / "manifest.json")
        _atomic_json(path, {"a": 1})
        assert json_mod.load(open(path)) == {"a": 1}

        def dying_dump(obj, f, **kw):
            f.write("{tor")
            raise OSError("disk full")

        monkeypatch.setattr(json_mod, "dump", dying_dump)
        import repro.core.checkpoint_io as ckio

        monkeypatch.setattr(ckio.json, "dump", dying_dump)
        with pytest.raises(OSError):
            _atomic_json(path, {"a": 2})
        monkeypatch.undo()
        assert json_mod.load(open(path)) == {"a": 1}
        assert os.listdir(tmp_path) == ["manifest.json"]
