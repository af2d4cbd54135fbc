"""Async I/O engine, pinned buffer pool, tensor store."""

import os
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvme import (
    AsyncIOEngine,
    PinnedBufferPool,
    TensorStore,
)
from repro.faults import use_faults
from tests.helpers import spool_sweep
from repro.nvme.buffers import PinnedBudgetExceeded


@pytest.fixture
def engine():
    with AsyncIOEngine(num_threads=4, block_bytes=4096) as eng:
        yield eng


@pytest.fixture
def store(tmp_path):
    with TensorStore(str(tmp_path / "spool")) as ts:
        yield ts


class TestAsyncIOEngine:
    def test_write_read_roundtrip(self, engine, tmp_path):
        path = str(tmp_path / "f.bin")
        data = np.arange(10_000, dtype=np.float32)
        engine.write(path, data)
        out = np.empty_like(data)
        engine.read(path, out)
        np.testing.assert_array_equal(data, out)

    def test_async_handles_complete(self, engine, tmp_path):
        path = str(tmp_path / "f.bin")
        data = np.arange(1000, dtype=np.float64)
        req = engine.submit_write(path, data)
        req.wait()
        assert req.done()
        out = np.empty_like(data)
        req2 = engine.submit_read(path, out)
        req2.wait()
        np.testing.assert_array_equal(data, out)

    def test_offset_io(self, engine, tmp_path):
        path = str(tmp_path / "f.bin")
        engine.write(path, np.zeros(100, dtype=np.float32))
        engine.write(path, np.ones(10, dtype=np.float32), file_offset=40)
        out = np.empty(100, dtype=np.float32)
        engine.read(path, out)
        assert np.all(out[10:20] == 1.0)
        assert np.all(out[:10] == 0.0)

    def test_large_request_splits_into_blocks(self, tmp_path):
        with AsyncIOEngine(num_threads=4, block_bytes=1024) as eng:
            path = str(tmp_path / "big.bin")
            data = np.random.default_rng(0).random(100_000).astype(np.float32)
            eng.write(path, data)
            out = np.empty_like(data)
            eng.read(path, out)
            np.testing.assert_array_equal(data, out)
            # 400 KB / 1 KB blocks = hundreds of sub-operations issued
            assert os.path.getsize(path) == data.nbytes

    def test_synchronize_flushes_all(self, engine, tmp_path):
        reqs = [
            engine.submit_write(
                str(tmp_path / f"f{i}.bin"), np.full(1000, i, dtype=np.float32)
            )
            for i in range(8)
        ]
        engine.synchronize()
        assert all(r.done() for r in reqs)

    def test_short_read_raises(self, engine, tmp_path):
        path = str(tmp_path / "small.bin")
        engine.write(path, np.zeros(4, dtype=np.float32))
        out = np.empty(100, dtype=np.float32)
        req = engine.submit_read(path, out)
        with pytest.raises(IOError):
            req.wait()

    def test_noncontiguous_read_target_raises(self, engine, tmp_path):
        path = str(tmp_path / "f.bin")
        engine.write(path, np.zeros(16, dtype=np.float32))
        out = np.empty((4, 8), dtype=np.float32)[:, ::2]
        with pytest.raises(ValueError):
            engine.submit_read(path, out)

    def test_closed_engine_rejects(self, tmp_path):
        eng = AsyncIOEngine()
        eng.close()
        with pytest.raises(RuntimeError):
            eng.submit_write(str(tmp_path / "x"), np.zeros(1))

    def test_stats_accumulate(self, engine, tmp_path):
        path = str(tmp_path / "f.bin")
        data = np.arange(256, dtype=np.float32)
        req = engine.submit_write(path, data)
        req.wait()
        assert req.nbytes == data.nbytes == os.path.getsize(path)
        out = np.empty(256, dtype=np.float32)
        req = engine.submit_read(path, out)
        req.wait()
        assert req.nbytes == data.nbytes
        np.testing.assert_array_equal(out, data)
        assert engine.stats.write_requests == 1
        assert engine.stats.read_requests == 1

    def test_bulk_request_is_one_handle_over_many_records(self, engine, tmp_path):
        data = [np.full(300 * (i + 1), i, dtype=np.float32) for i in range(5)]
        paths = [str(tmp_path / f"r{i}.bin") for i in range(5)]
        req = engine.submit_write(
            [(p, d, 0) for p, d in zip(paths, data)], checksum=True
        )
        req.wait()
        assert engine.stats.write_requests == 1
        assert req.nbytes == sum(d.nbytes for d in data)
        assert req.checksums == [zlib.crc32(d.tobytes()) for d in data]
        outs = [np.empty_like(d) for d in data]
        req = engine.submit_read(
            [(p, o, 0) for p, o in zip(paths, outs)], checksum=True
        )
        req.wait()
        assert engine.stats.read_requests == 1
        for d, o in zip(data, outs):
            np.testing.assert_array_equal(d, o)
        assert req.checksums == [zlib.crc32(d.tobytes()) for d in data]

    def test_multi_block_record_gets_one_whole_record_crc(self, tmp_path):
        """A record larger than block_bytes is read and written in parallel
        sub-blocks, yet checksummed once over the whole record."""
        with AsyncIOEngine(num_threads=4, block_bytes=1024) as eng:
            path = str(tmp_path / "big.bin")
            data = np.random.default_rng(0).random(25_000).astype(np.float32)
            want = zlib.crc32(data.tobytes())
            req = eng.submit_write(path, data, checksum=True)
            req.wait()
            assert req.checksums == [want]
            out = np.empty_like(data)
            req = eng.submit_read(path, out, checksum=True)
            req.wait()
            assert req.checksums == [want]
            np.testing.assert_array_equal(data, out)

    def test_short_preadv_is_resumed_and_checksummed_whole(
        self, engine, tmp_path, monkeypatch
    ):
        """The kernel may return fewer bytes than asked: the read resumes
        where it stopped, straight into the target, and the checksum still
        covers the whole record."""
        path = str(tmp_path / "f.bin")
        data = np.arange(5000, dtype=np.float32)
        engine.write(path, data)
        real = os.preadv
        calls = []

        def stingy(fd, buffers, offset):
            calls.append(offset)
            return real(fd, [buffers[0][:777]], offset)

        monkeypatch.setattr(os, "preadv", stingy)
        out = np.zeros_like(data)
        req = engine.submit_read(path, out, checksum=True)
        req.wait()
        assert len(calls) > data.nbytes // 4096  # every block took several
        np.testing.assert_array_equal(data, out)
        assert req.checksums == [zlib.crc32(data.tobytes())]

    def test_failed_bulk_request_fails_the_one_handle(self, engine, tmp_path):
        good = str(tmp_path / "good.bin")
        engine.write(good, np.ones(8, dtype=np.float32))
        outs = [np.empty(8, dtype=np.float32) for _ in range(2)]
        req = engine.submit_read(
            [(good, outs[0], 0), (str(tmp_path / "missing.bin"), outs[1], 0)]
        )
        with pytest.raises(OSError):
            req.wait()
        engine.synchronize()  # already observed: not reported twice

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            AsyncIOEngine(num_threads=0)
        with pytest.raises(ValueError):
            AsyncIOEngine(block_bytes=0)


class TestPinnedBufferPool:
    def test_acquire_release_cycle(self):
        pool = PinnedBufferPool(10_000)
        buf = pool.acquire(100, np.float32)
        assert buf.array.shape == (100,)
        assert pool._live_bytes > 0
        buf.release()
        assert pool._live_bytes == 0
        assert pool._cached_bytes > 0

    def test_reuse_hits(self):
        pool = PinnedBufferPool(10_000, alignment=64)
        a = pool.acquire(100, np.float32)
        a.release()
        b = pool.acquire(50, np.float32)  # smaller fits in cached buffer
        assert pool.stats.reuse_hits == 1
        b.release()

    def test_budget_enforced(self):
        pool = PinnedBufferPool(1000, alignment=64)
        a = pool.acquire(200, np.float32)  # 800 bytes
        with pytest.raises(PinnedBudgetExceeded):
            pool.acquire(200, np.float32)
        a.release()
        pool.acquire(200, np.float32)  # fine after release

    def test_eviction_makes_room(self):
        pool = PinnedBufferPool(1000, alignment=64)
        a = pool.acquire(100, np.float32)
        a.release()  # cached 448 bytes (aligned)
        b = pool.acquire(200, np.float32)  # needs eviction of the cached one
        assert b.array.size == 200

    def test_a_request_no_eviction_could_fit_leaves_the_cache(self):
        pool = PinnedBufferPool(1000, alignment=64)
        pool.acquire(100, np.float32).release()  # cached 448 bytes
        held = pool.acquire(128, np.float32)  # 512 live beside it
        assert not pool.fits(800) and pool.fits(448)
        with pytest.raises(PinnedBudgetExceeded):
            pool.acquire(200, np.float32)  # 512 + 832 > 1000 regardless
        assert pool._cached_bytes == 448
        pool.acquire(100, np.float32)
        assert pool.stats.reuse_hits == 1
        held.release()

    def test_double_release_raises(self):
        pool = PinnedBufferPool(1000, alignment=64)
        buf = pool.acquire(10, np.float32)
        buf.release()
        with pytest.raises(RuntimeError):
            buf.release()

    def test_context_manager_releases(self):
        pool = PinnedBufferPool(10_000)
        with pool.acquire(10, np.float32):
            assert pool._live_bytes > 0
        assert pool._live_bytes == 0

    def test_peak_tracking(self):
        pool = PinnedBufferPool(100_000, alignment=64)
        bufs = [pool.acquire(1000, np.float32) for _ in range(3)]
        peak = pool.stats.peak_bytes
        for b in bufs:
            b.release()
        assert pool.stats.peak_bytes == peak >= 12_000

    def test_drain(self):
        pool = PinnedBufferPool(10_000)
        pool.acquire(100, np.float32).release()
        pool.drain()
        assert pool._cached_bytes == 0

    def test_small_requests_leave_large_buffers_alone(self):
        """Reuse stays within a size class (buffer <= 2x the request)."""
        pool = PinnedBufferPool(1 << 20, alignment=4096)
        pool.acquire(384 << 10, np.uint8).release()
        small = pool.acquire(4096, np.uint8)
        assert small.nbytes == 4096 and pool.stats.reuse_hits == 0
        assert pool._cached_bytes == 384 << 10  # still there for its own class
        pool.acquire(256 << 10, np.uint8)
        assert pool.stats.reuse_hits == 1

    def test_fallbacks_do_not_grow_with_the_budget(self):
        """The NVMe step's request mix — a window of few-KB prefetch
        buffers through forward/backward, then a window of optimizer
        sub-group buffers that together fill a 1 MB budget — against
        growing budgets: a caller that falls back to unpinned staging on
        exhaustion does so no more often with more pinned memory.  (When a
        small request could take any cached buffer large enough, the 1 MB
        pool's prefetches sat in both optimizer buffers and every later one
        fell back: more fallbacks than at 256 KB.)"""
        kb = 1 << 10

        def fallbacks(budget):
            pool = PinnedBufferPool(budget)
            missed = 0

            def phase(sizes, in_flight):
                nonlocal missed
                window = []
                for nbytes in sizes:
                    if len(window) == in_flight:
                        held = window.pop(0)
                        if held is not None:
                            held.release()
                    try:
                        window.append(pool.acquire(nbytes, np.uint8))
                    except PinnedBudgetExceeded:
                        missed += 1
                        window.append(None)
                for held in window:
                    if held is not None:
                        held.release()

            for _ in range(3):
                phase([(1 + i % 8) * kb for i in range(24)], in_flight=4)
                phase([(384, 640)[i % 2] * kb for i in range(6)], in_flight=2)
            return missed

        counts = [fallbacks(b * kb) for b in (256, 1024, 4096, 16384)]
        assert counts[0] > 0 and counts[-1] == 0
        assert counts == sorted(counts, reverse=True), counts

    @given(sizes=st.lists(st.integers(1, 500), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_budget_never_exceeded_property(self, sizes):
        """Invariant: live + cached <= budget at all times."""
        pool = PinnedBufferPool(8192, alignment=64)
        live = []
        for s in sizes:
            try:
                live.append(pool.acquire(s, np.float32))
            except PinnedBudgetExceeded:
                if live:
                    live.pop().release()
            assert pool._live_bytes + pool._cached_bytes <= pool.budget_bytes
        for b in live:
            b.release()


class TestTensorStore:
    def test_roundtrip_bitwise(self, store, rng):
        a = rng.random((37, 13)).astype(np.float16)
        store.write("x", a)
        out = store.read("x")
        assert out.dtype == np.float16
        np.testing.assert_array_equal(a, out)

    def test_read_into_buffer(self, store):
        a = np.arange(100, dtype=np.float32)
        store.write("x", a)
        buf = np.empty(100, dtype=np.float32)
        out = store.read("x", buf)
        assert out.base is buf or out is buf
        np.testing.assert_array_equal(out, a)

    def test_read_wrong_size_raises(self, store):
        store.write("x", np.zeros(10, dtype=np.float32))
        with pytest.raises(ValueError):
            store.read("x", np.empty(11, dtype=np.float32))

    def test_missing_key_raises(self, store):
        with pytest.raises(KeyError):
            store.read("nope")

    def test_overwrite_changes_size(self, store):
        store.write("x", np.zeros(100, dtype=np.float32))
        store.write("x", np.ones(10, dtype=np.float32))
        out = store.read("x")
        assert out.shape == (10,)
        assert np.all(out == 1.0)

    def test_contains_and_keys(self, store):
        store.write("a", np.zeros(1))
        store.write("b", np.zeros(1))
        assert "a" in store and "c" not in store
        assert sorted(store.keys()) == ["a", "b"]

    def test_total_bytes(self, store):
        store.write("a", np.zeros(10, dtype=np.float32))
        store.write("b", np.zeros(5, dtype=np.float16))
        assert store.total_bytes == 50

    def test_delete(self, store):
        store.write("a", np.zeros(1))
        store.delete("a")
        assert "a" not in store
        store.delete("a")  # idempotent

    def test_async_write_then_read(self, store):
        a = np.arange(1000, dtype=np.float32)
        req = store.write_async("x", a)
        req.wait()
        np.testing.assert_array_equal(store.read("x"), a)

    def test_meta(self, store):
        store.write("x", np.zeros((4, 5), dtype=np.float16))
        shape, dtype, nbytes = store.meta("x")
        assert shape == (4, 5) and dtype == np.float16 and nbytes == 40

    def test_slash_keys_map_to_flat_files(self, store):
        store.write("blocks.0/attn/weight", np.ones(3))
        assert "blocks.0/attn/weight" in store
        np.testing.assert_array_equal(store.read("blocks.0/attn/weight"), [1, 1, 1])

    def test_temp_dir_cleanup(self):
        ts = TensorStore()
        d = ts.directory
        ts.write("x", np.zeros(10))
        ts.close()
        assert not os.path.exists(d)

    def test_ranged_read_write(self, store):
        a = np.arange(100, dtype=np.float32)
        store.write("x", a)
        out, req = store.read_range("x", 10, 5)
        req.wait()
        np.testing.assert_array_equal(out, a[10:15])
        store.write_range("x", 10, np.full(5, -1, dtype=np.float32)).wait()
        full = store.read("x")
        assert np.all(full[10:15] == -1)
        assert full[9] == 9 and full[15] == 15

    def test_bulk_forms_move_many_records_in_one_request(self, store):
        arrays = {f"k{i}": np.full(50 + i, i, dtype=np.float32) for i in range(4)}
        before = store.engine.stats.write_requests
        store.write_async(list(arrays), list(arrays.values())).wait()
        assert store.engine.stats.write_requests == before + 1
        before = store.engine.stats.read_requests
        outs, req = store.read_async(list(arrays))
        req.wait()
        assert store.engine.stats.read_requests == before + 1
        for out, ref in zip(outs, arrays.values()):
            np.testing.assert_array_equal(out, ref)
        outs, req = store.read_range([("k0", 5, 10), ("k3", 0, 53)])
        req.wait()
        np.testing.assert_array_equal(outs[0], arrays["k0"][5:15])
        np.testing.assert_array_equal(outs[1], arrays["k3"])
        store.write_range(
            [("k0", 5, np.ones(10, np.float32)), ("k1", 0, np.ones(3, np.float32))]
        ).wait()
        assert store.read("k0")[5:15].sum() == 10
        assert store.read("k1")[:3].sum() == 3

    def test_record_is_published_with_its_crc_at_commit(self, store):
        """Metadata appears when the bytes have landed, never before: a new
        key is absent and an overwritten key still describes (and verifies
        against) its old bytes until the write's commit point."""
        gate = threading.Event()
        real = store.engine._pwrite

        def held(path, data, offset):
            gate.wait(timeout=10)
            real(path, data, offset)

        store.write("old", np.zeros(64, dtype=np.float32))
        store.engine._pwrite = held
        fresh = store.write_async("fresh", np.ones(8, dtype=np.float32))
        over = store.write_async("old", np.ones(16, dtype=np.float32))
        assert "fresh" not in store
        assert store.meta("old")[0] == (64,)
        gate.set()
        fresh.wait()
        over.wait()
        assert store.meta("fresh")[0] == (8,) and store.meta("old")[0] == (16,)
        assert store.read("old").sum() == 16

    def test_shadow_records_are_written_in_place(self, tmp_path):
        """A ``.pipe`` record lands in place in its key's idle slot and
        ``promote`` flips the key to it: across rewrites and promotes the
        spool keeps the same two files (no temp file, no rename); a failed
        shadow leaves no record, and its slot goes with ``delete``; after
        ``close`` only ``k.bin`` is left, holding the live bytes."""
        from repro.nvme.store import shadow_key

        store = TensorStore(str(tmp_path / "spool"))
        slot = os.path.join(store.directory, "k.pipe.bin")

        def inodes():
            return {
                f: os.stat(os.path.join(store.directory, f)).st_ino
                for f in os.listdir(store.directory)
            }

        store.write("k", np.zeros(32, dtype=np.float32))
        store.write(shadow_key("k"), np.ones(32, dtype=np.float32))
        assert store._records[shadow_key("k")].path == slot
        first = inodes()
        assert set(first) == {"k.bin", "k.pipe.bin"}
        store.write(shadow_key("k"), np.ones(32, dtype=np.float32))
        store.promote(shadow_key("k"), "k")
        assert store._records["k"].path == slot  # the flip renamed nothing
        assert store.read("k").sum() == 32  # CRC moved with the record
        store.write(shadow_key("k"), np.full(32, 2, dtype=np.float32))
        store.promote(shadow_key("k"), "k")  # back into the first slot
        assert inodes() == first
        assert store.read("k").sum() == 64
        with use_faults("io_error@aio.write:times=10"):
            with pytest.raises(OSError):
                store.write(shadow_key("k"), np.ones(32, dtype=np.float32))
        assert shadow_key("k") not in store
        store.delete(shadow_key("k"))
        assert sorted(os.listdir(store.directory)) == ["k.bin"]
        assert spool_sweep(store) == []
        store.write(shadow_key("k"), np.full(32, 3, dtype=np.float32))
        store.promote(shadow_key("k"), "k")  # live in k.pipe.bin again
        store.close()
        assert spool_sweep(store) == []
        assert sorted(os.listdir(store.directory)) == ["k.bin"]
        with open(os.path.join(store.directory, "k.bin"), "rb") as f:
            assert np.frombuffer(f.read(), np.float32).sum() == 96

    @staticmethod
    def _hold_reads(store, monkeypatch) -> threading.Event:
        """Park every read of ``store`` on its aio worker until the
        returned event is set."""
        release = threading.Event()
        pread = store.engine._pread

        def held(path, out, offset):
            assert release.wait(10)
            pread(path, out, offset)

        monkeypatch.setattr(store.engine, "_pread", held)
        return release

    def test_a_slot_is_rewritten_only_after_its_reads(self, store, monkeypatch):
        """A read of ``k``'s live slot is in flight, and will need a checksum
        re-fetch, when a promote makes that slot idle and the next shadow
        write lands in it: the write waits for the read itself, re-fetch
        included, and the read returns the old bytes, verified."""
        from repro.nvme.store import shadow_key

        v1, v2, v3 = (np.full(4096, v, np.float32) for v in (1.0, 2.0, 3.0))
        store.write("k", v1)
        release = self._hold_reads(store, monkeypatch)
        with use_faults("bit_flip@aio.read:times=1"):
            out, req = store.read_async("k")  # k.bin, parked
            store.write(shadow_key("k"), v2)  # k.pipe.bin: no read there
            store.promote(shadow_key("k"), "k")
            writer = threading.Thread(target=store.write, args=(shadow_key("k"), v3))
            writer.start()
            writer.join(0.3)
            assert writer.is_alive()  # k.bin is idle, but still being read
            release.set()
            writer.join(10)
            assert not writer.is_alive()
        assert store.checksum_refetches == 1  # done before the write landed
        req.wait()
        np.testing.assert_array_equal(out, v1)
        np.testing.assert_array_equal(store.read("k"), v2)
        store.promote(shadow_key("k"), "k")
        np.testing.assert_array_equal(store.read("k"), v3)

    def test_the_race_detector_sees_a_reused_slot(self, tmp_path, monkeypatch):
        """With the wait for a slot's reads taken out, rewriting the slot
        under an in-flight read is flagged by the aio race detector, and
        the read, landing the new bytes, fails its checksum."""
        from repro.check import CheckConfig, CheckContext
        from repro.faults import FaultUnrecoverable
        from repro.nvme.store import shadow_key

        ctx = CheckContext(CheckConfig(races=True, mode="record"))
        with AsyncIOEngine(check=ctx) as eng:
            with TensorStore(str(tmp_path / "s"), engine=eng) as ts:
                ts.write("k", np.zeros(64, np.float32))
                ts.write(shadow_key("k"), np.ones(64, np.float32))
                release = self._hold_reads(ts, monkeypatch)
                _, req = ts.read_async("k")
                ts.promote(shadow_key("k"), "k")
                monkeypatch.setattr(ts, "_quiesce", lambda path: None)
                ts.write(shadow_key("k"), np.ones(64, np.float32))
                release.set()
                with pytest.raises(FaultUnrecoverable):
                    req.wait()
        assert ctx.violation_counts() == {"aio-race": 1}

    def test_slot_reuse_under_thread_switching(self, store):
        """Stress: with the interpreter switching threads every
        microsecond and four aio workers on the box's cores, 150 rounds
        of read the live slot, commit a new version (by promote, or by a
        live write every third round), write the next one into the slot
        just read.  No read is waited on until the end, and each returns
        the version it was submitted at, verified without a re-fetch."""
        import sys

        from repro.nvme.store import shadow_key

        def version(v):
            return np.full(2048, v, np.float32)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            store.write("k", version(0))
            reads = []
            for v in range(1, 151):
                reads.append((v - 1, *store.read_async("k")))
                if v % 3:
                    store.write(shadow_key("k"), version(v))
                    store.promote(shadow_key("k"), "k")
                else:
                    store.write("k", version(v))
            for v, out, req in reads:
                req.wait()
                np.testing.assert_array_equal(out, version(v))
        finally:
            sys.setswitchinterval(switch)
        assert store.checksum_refetches == 0
        assert sorted(os.listdir(store.directory)) == ["k.bin", "k.pipe.bin"]

    def test_delete_removes_both_slots(self, store):
        """A shadow key's delete — a transaction's rollback — takes its
        record and its slot and leaves the live one; a primary key's takes
        both slots."""
        from repro.nvme.store import shadow_key

        data = np.ones(16, np.float32)
        store.write("k", data)
        store.write(shadow_key("k"), data)
        store.promote(shadow_key("k"), "k")  # live in k.pipe.bin
        store.write(shadow_key("k"), data)  # into k.bin
        assert sorted(os.listdir(store.directory)) == ["k.bin", "k.pipe.bin"]
        store.delete(shadow_key("k"))
        assert os.listdir(store.directory) == ["k.pipe.bin"]
        np.testing.assert_array_equal(store.read("k"), data)
        store.write(shadow_key("k"), data)
        store.delete("k")
        assert os.listdir(store.directory) == []
        assert store.keys() == []

    def test_a_live_write_never_overwrites_an_unpromoted_shadow(self, store):
        """The idle slot holds a shadow record nobody promoted: a live write
        or a ``create`` of the key raises, and the shadow is untouched."""
        from repro.nvme.store import shadow_key

        store.write("k", np.zeros(16, np.float32))
        store.write(shadow_key("k"), np.ones(16, np.float32))
        with pytest.raises(RuntimeError, match="unpromoted shadow"):
            store.write("k", np.full(16, 2, np.float32))
        with pytest.raises(RuntimeError, match="unpromoted shadow"):
            store.create("k", (16,), np.float32)
        np.testing.assert_array_equal(store.read(shadow_key("k")), np.ones(16))
        np.testing.assert_array_equal(store.read("k"), np.zeros(16))

    def test_multi_block_record_verifies_one_whole_record_crc(self, tmp_path):
        with AsyncIOEngine(num_threads=4, block_bytes=1024) as eng:
            with TensorStore(str(tmp_path / "s"), engine=eng) as ts:
                data = np.random.default_rng(1).random(20_000).astype(np.float32)
                ts.write("big", data)
                with use_faults("bit_flip@aio.read:at=7"):  # one sub-block
                    out = ts.read("big")
                np.testing.assert_array_equal(out, data)
                assert ts.checksum_refetches == 1

    def test_spans_are_verified_like_whole_records(self, store):
        """Ranged I/O carries per-span CRCs: a record laid out in spans
        (``crc_numel``) or rewritten span by span verifies every span read,
        and a whole-record read of it verifies span by span."""
        data = np.arange(1000, dtype=np.float32)
        store.write_async("x", data, crc_numel=400).wait()
        with use_faults("bit_flip@aio.read:times=1"):
            out, req = store.read_range("x", 400, 400)
            req.wait()
        np.testing.assert_array_equal(out, data[400:800])
        assert store.checksum_refetches == 1
        store.write_range("x", 400, -data[400:800]).wait()
        with use_faults("bit_flip@aio.read:at=2"):
            whole = store.read("x")
        np.testing.assert_array_equal(whole[400:800], -data[400:800])
        np.testing.assert_array_equal(whole[:400], data[:400])
        assert store.checksum_refetches == 2

    def test_ranged_out_of_bounds(self, store):
        store.write("x", np.zeros(10, dtype=np.float32))
        with pytest.raises(ValueError):
            store.read_range("x", 8, 5)
        with pytest.raises(ValueError):
            store.write_range("x", 8, np.zeros(5, dtype=np.float32))
