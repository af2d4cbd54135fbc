"""Parameter partitioning and the infinity offload engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.group import ProcessGroup
from repro.core.config import OffloadConfig, OffloadDevice
from repro.core.offload import InfinityOffloadEngine
from repro.core.partition import ParameterPartitioner
from repro.nn.parameter import Parameter, PartitionState
from repro.obs.memscope import use_memscope
from repro.utils.rng import seeded_rng


def make_partitioner(world=4, device=OffloadDevice.NONE, **kw):
    cfg = OffloadConfig(
        param_device=device,
        pinned_budget_bytes=1 << 20,
    )
    offload = InfinityOffloadEngine(cfg)
    return ParameterPartitioner(world, offload=offload, **kw), offload


class TestPartitionGatherRoundtrip:
    @pytest.mark.parametrize("device", list(OffloadDevice))
    @pytest.mark.parametrize("world", [1, 2, 3, 7])
    def test_roundtrip_identity(self, device, world, rng):
        part, offload = make_partitioner(world, device)
        try:
            original = rng.standard_normal((5, 7)).astype(np.float32)
            p = Parameter(original.copy(), name="w")
            part.partition([p])
            assert p.state is PartitionState.PARTITIONED
            assert p.data.size == 0
            part.gather(p)
            assert p.state is PartitionState.AVAILABLE
            np.testing.assert_array_equal(p.data, original)
        finally:
            offload.close()

    def test_gather_idempotent(self, rng):
        part, offload = make_partitioner(2)
        p = Parameter(rng.standard_normal(6).astype(np.float32))
        part.partition([p])
        part.gather(p)
        data = p.data
        part.gather(p)  # second gather is a no-op
        assert p.data is data
        offload.close()

    def test_release_drops_full_tensor(self, rng):
        part, offload = make_partitioner(2)
        p = Parameter(rng.standard_normal(6).astype(np.float32))
        part.partition([p])
        part.gather(p)
        part.release(p)
        assert p.state is PartitionState.PARTITIONED
        assert p.data.size == 0
        part.gather(p)  # can be gathered again from shards
        assert p.data.size == 6
        offload.close()

    def test_double_partition_raises(self, rng):
        part, offload = make_partitioner(2)
        p = Parameter(rng.standard_normal(4).astype(np.float32))
        part.partition([p])
        with pytest.raises(RuntimeError):
            part.partition([p])
        offload.close()

    def test_gather_unpartitioned_with_no_meta_raises(self):
        part, offload = make_partitioner(2)
        p = Parameter(np.zeros(4, dtype=np.float32))
        p.state = PartitionState.PARTITIONED  # corrupt state
        with pytest.raises(RuntimeError):
            part.gather(p)
        offload.close()

    @given(
        numel=st.integers(1, 200),
        world=st.integers(1, 9),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, numel, world):
        part, offload = make_partitioner(world)
        original = np.arange(numel, dtype=np.float32)
        p = Parameter(original.copy())
        part.partition([p])
        part.gather(p)
        np.testing.assert_array_equal(p.data, original)
        offload.close()


class TestGroups:
    """A module's parameters are one group: one flat layout, one record per
    rank, one buffer when gathered."""

    def _members(self, rng):
        return [
            Parameter(rng.standard_normal((3, 5)).astype(np.float32), name="w"),
            Parameter(rng.standard_normal(3).astype(np.float32), name="b"),
            Parameter(rng.standard_normal((2, 2)).astype(np.float32), name="g"),
        ]

    @pytest.mark.parametrize("device", list(OffloadDevice))
    @pytest.mark.parametrize("world", [1, 2, 3, 7])
    def test_members_round_trip_through_one_record_per_rank(self, device, world, rng):
        """22 elements, padded once to the world size; each rank's shard is
        one record whatever the member count."""
        part, offload = make_partitioner(world, device)
        try:
            params = self._members(rng)
            originals = [p.data.copy() for p in params]
            group = part.partition(params)
            assert group.numel == 22
            assert group.padded_numel == -(-22 // world) * world
            assert [p.group for p in params] == [group] * 3
            assert all(p.full_shape == o.shape for p, o in zip(params, originals))
            flat = np.concatenate([o.reshape(-1) for o in originals])
            for r in range(world):
                shard = offload.fetch(group.key(r), rank=r)
                assert shard.size == group.shard_numel
                lo = r * group.shard_numel
                np.testing.assert_array_equal(
                    shard[: max(0, min(22 - lo, shard.size))], flat[lo : lo + shard.size]
                )
            part.gather(params[1])  # any member brings the whole group
            for p, o in zip(params, originals):
                assert p.state is PartitionState.AVAILABLE
                np.testing.assert_array_equal(p.data, o)
        finally:
            offload.close()

    def test_a_gathered_group_is_one_buffer_and_a_release_returns_it(self, rng):
        part, offload = make_partitioner(2)
        params = self._members(rng)
        group = part.partition(params)
        part.gather_coalesced([group])
        for p in params:
            assert np.shares_memory(p.data, group.flat)
        flat = id(group.flat)  # not the buffer: ZeroSan counts its holders
        part.release(params[0])
        assert all(p.state is PartitionState.PARTITIONED for p in params)
        assert group.flat is None
        free = part._free_flats[(group.dtype, group.padded_numel)]
        assert [id(f) for f in free] == [flat]
        assert part.gather_coalesced([group, group]) == 1  # the recycled buffer
        assert not free
        offload.close()

    def test_a_module_groups_per_dtype_and_tied_parameters_once(self, rng):
        """A module's parameters of one dtype are one group; a parameter a
        second module registers stays in the first module's group."""
        from repro.nn.module import Module

        first, second = Module(), Module()
        first.w = Parameter(np.ones((2, 3), dtype=np.float32))
        first.h = Parameter(np.ones(4, dtype=np.float16))
        first.b = Parameter(np.ones(3, dtype=np.float32))
        second.tied = first._parameters["w"]
        second.own = Parameter(np.ones(2, dtype=np.float32))
        part, offload = make_partitioner(2)
        made = part.group_module(first, partition=True)
        assert [[p.full_shape for p in g.params] for g in made] == [
            [(2, 3), (3,)],
            [(4,)],
        ]
        (own,) = part.group_module(second, partition=True)
        assert own.params == [second._parameters["own"]]
        assert second._parameters["tied"].group is made[0]
        offload.close()

    def test_a_replicated_group_is_the_members_storage(self, rng):
        part, offload = make_partitioner(3)
        params = self._members(rng)
        originals = [p.data.copy() for p in params]
        group = part.replicate(params)
        assert group.padded_numel == 24 and not group.partitioned
        for p, o in zip(params, originals):
            assert np.shares_memory(p.data, group.flat)
            np.testing.assert_array_equal(p.data, o)
        group.shard(group.flat, 0)[:] = 0  # rank 0's slice: all of w's first 8
        assert not params[0].data.reshape(-1)[:8].any()
        part.release(group)  # nothing to release: replicated for good
        assert params[0].state is PartitionState.AVAILABLE
        offload.close()


class TestShardUpdate:
    def test_update_then_gather_sees_new_values(self, rng):
        world = 4
        part, offload = make_partitioner(world)
        p = Parameter(np.zeros(8, dtype=np.float32))
        part.partition([p])
        for r in range(world):
            part.update_shard(p.group, r, np.full(2, float(r), dtype=np.float32))
        part.gather(p)
        np.testing.assert_array_equal(
            p.data, [0, 0, 1, 1, 2, 2, 3, 3]
        )
        offload.close()

    @pytest.mark.parametrize("device", [OffloadDevice.NONE, OffloadDevice.CPU])
    def test_shard_out_is_the_stored_shard_and_installs_in_place(self, device):
        """Writing the update into the stored shard itself and handing that
        array to ``update_shard`` is the whole install, on either resident
        tier."""
        world = 2
        part, offload = make_partitioner(world, device)
        p = Parameter(np.zeros(5, dtype=np.float32))
        group = part.partition([p])
        for r in range(world):
            out = offload.resident(group.key(r))
            assert out.shape == (3,) and out.flags.writeable
            out[:] = r + 1.0
            part.update_shard(group, r, out)
            assert np.shares_memory(offload.resident(group.key(r)), out)
        part.gather(p)
        np.testing.assert_array_equal(p.data, [1, 1, 1, 2, 2])
        offload.close()

    def test_wrong_shard_size_raises(self):
        part, offload = make_partitioner(2)
        p = Parameter(np.zeros(8, dtype=np.float32))
        part.partition([p])
        with pytest.raises(ValueError):
            part.update_shard(p.group, 0, np.zeros(3, dtype=np.float32))
        offload.close()

    def test_get_shard_matches_slice(self, rng):
        world = 3
        part, offload = make_partitioner(world)
        data = rng.standard_normal(10).astype(np.float32)
        p = Parameter(data.copy())
        part.partition([p])
        padded = np.zeros(12, dtype=np.float32)
        padded[:10] = data
        for r in range(world):
            np.testing.assert_array_equal(
                offload.fetch(p.group.key(r), rank=r), padded[r * 4 : (r + 1) * 4]
            )
        offload.close()


class TestBandwidthCentricClaim:
    """Sec. 6.1: the sharded layout spreads host-link traffic across all
    ranks, where one owner's link would carry each parameter's bytes."""

    def _traffic(self, world=4):
        cfg = OffloadConfig(param_device=OffloadDevice.CPU)
        offload = InfinityOffloadEngine(cfg)
        part = ParameterPartitioner(world, offload=offload)
        rng = seeded_rng(0)
        for _ in range(1):
            p = Parameter(rng.standard_normal(1024).astype(np.float32))
            part.partition([p])
            part.gather(p)
            part.release(p)
        counters = offload.counters
        offload.close()
        return counters

    def test_sharded_uses_all_links_equally(self):
        c = self._traffic()
        assert len(c.host_link_bytes) == 4
        values = list(c.host_link_bytes.values())
        assert max(values) == min(values)

    def test_total_volume_equal_but_max_link_lower(self):
        """The parameter's bytes all cross some link, and the busiest link
        carries 1/dp of them: what one owner's link would carry alone."""
        links = self._traffic().host_link_bytes
        # one 1024-element fp32 parameter, stashed then gathered
        owner_link = 2 * 1024 * 4
        assert sum(links.values()) == owner_link
        assert max(links.values()) == owner_link // 4


class TestOffloadEngine:
    def test_stash_fetch_gpu_tier(self):
        eng = InfinityOffloadEngine(OffloadConfig())
        eng.stash("k", np.arange(4, dtype=np.float32), OffloadDevice.NONE, rank=0)
        np.testing.assert_array_equal(eng.fetch("k", rank=0), [0, 1, 2, 3])
        eng.close()

    def test_fetch_returns_copy(self):
        eng = InfinityOffloadEngine(OffloadConfig())
        eng.stash("k", np.zeros(4, dtype=np.float32), OffloadDevice.CPU, rank=0)
        a = eng.fetch("k", rank=0)
        a[:] = 9
        b = eng.fetch("k", rank=0)
        assert np.all(b == 0)
        eng.close()

    @pytest.mark.parametrize("device", [OffloadDevice.NONE, OffloadDevice.CPU])
    def test_restash_reuses_the_keys_buffer(self, device):
        """Same shape, dtype and tier: the new value is copied into the
        stored array; anything else gets a fresh one."""
        eng = InfinityOffloadEngine(OffloadConfig())
        eng.stash("k", np.zeros(4, dtype=np.float32), device, rank=0)
        stored = eng.resident("k")
        eng.stash("k", np.ones(4, dtype=np.float32), device, rank=0)
        assert eng.resident("k") is stored and np.all(stored == 1)
        stored[:] = 5  # the producer wrote the next value in place...
        eng.stash("k", stored, device, rank=0)  # ...and hands it over
        assert eng.resident("k") is stored and np.all(eng.fetch("k", rank=0) == 5)
        eng.stash("k", np.ones(4, dtype=np.float16), device, rank=0)
        assert eng.resident("k") is not stored
        assert eng.resident("ghost") is None
        if device is OffloadDevice.CPU:
            # written: three 16-byte stashes and an 8-byte one; read: a fetch
            assert eng.counters.host_link_bytes == {0: 16 * 3 + 8 + 16}
        else:
            assert eng.counters.host_link_bytes == {}
        eng.close()

    @pytest.mark.parametrize(
        "device", [OffloadDevice.NONE, OffloadDevice.CPU, OffloadDevice.NVME]
    )
    def test_stash_takes_parallel_lists(self, device):
        """A list of keys is placed and charged like the same stashes one
        by one; on NVMe it is one write request."""
        arrays = [np.arange(4, dtype=np.float32), np.arange(6, dtype=np.float32) + 9]
        keys, ranks = ["a", "b"], [0, 1]
        cfg = OffloadConfig(param_device=device)
        with InfinityOffloadEngine(cfg) as one, InfinityOffloadEngine(cfg) as bulk:
            for k, a, r in zip(keys, arrays, ranks):
                one.stash(k, a, device, rank=r)
            handle = bulk.stash(keys, arrays, device, rank=ranks, sync=False)
            if device is OffloadDevice.NVME:
                handle.wait()
                assert bulk.store.engine.stats.write_requests == 1
                assert one.store.engine.stats.write_requests == 2
            else:
                assert handle is None
            assert bulk.counters == one.counters
            for k, a, r in zip(keys, arrays, ranks):
                np.testing.assert_array_equal(bulk.fetch(k, rank=r), a)

    def test_acquire_staging_is_one_pinned_buffer_cut_to_size(self):
        with InfinityOffloadEngine(
            OffloadConfig(param_device=OffloadDevice.NVME)
        ) as eng:
            staging = eng.acquire_staging([5, 3], np.float16)
            a, b = staging.arrays
            assert (a.shape, b.shape, a.dtype) == ((5,), (3,), np.float16)
            assert a.base is b.base and not np.shares_memory(a, b)
            assert eng.pool._live_bytes > 0
            a[:], b[:] = 1, 2
            eng.stash(["a", "b"], [a, b], OffloadDevice.NVME, rank=[0, 0])
            staging.release()
            assert eng.pool._live_bytes == 0
            np.testing.assert_array_equal(eng.fetch("b", rank=0), [2, 2, 2])

    def test_fetch_async_hands_out_scratch_from_the_same_staging(self):
        from repro.core.offload import Span

        with InfinityOffloadEngine(
            OffloadConfig(param_device=OffloadDevice.NVME)
        ) as eng:
            eng.stash("k", np.arange(8, dtype=np.float32), OffloadDevice.NVME, rank=0)
            fetch = eng.fetch_async([Span("k", 0)], scratch=[(8, np.float16)])
            (state,), (room,) = fetch.wait(), fetch.scratch
            assert room.shape == (8,) and room.dtype == np.float16
            assert room.base is state.base and not np.shares_memory(room, state)
            np.testing.assert_array_equal(state, np.arange(8))
            fetch.release()
            assert eng.pool._live_bytes == 0
            # nothing to read: the scratch alone is staged
            fetch = eng.fetch_async([], scratch=[(4, np.float32)])
            assert not fetch.pending and fetch.scratch[0].shape == (4,)
            fetch.release()
            assert eng.fetch_async([]).scratch == []

    def test_peek_lends_readonly_and_charges_like_fetch(self):
        eng = InfinityOffloadEngine(OffloadConfig())
        eng.stash("k", np.arange(4, dtype=np.float32), OffloadDevice.CPU, rank=1)
        assert eng.counters.host_link_bytes == {1: 16}
        view = eng.peek("k", rank=1)
        assert np.shares_memory(view, eng.resident("k")) and not view.flags.writeable
        assert eng.resident("k").flags.writeable
        assert eng.counters.host_link_bytes == {1: 32}  # the peek's 16-byte read
        with pytest.raises(KeyError):
            eng.peek("ghost", rank=0)
        eng.close()

    def test_peek_of_an_nvme_key_is_a_fetch(self):
        eng = InfinityOffloadEngine(OffloadConfig(param_device=OffloadDevice.NVME))
        data = np.arange(8, dtype=np.float16)
        eng.stash("k", data, OffloadDevice.NVME, rank=0)
        np.testing.assert_array_equal(eng.peek("k", rank=0), data)
        assert eng.counters.nvme_read_bytes == 16
        eng.close()

    def test_borrow_update_adopt_moves_nothing_and_charges_both_ways(self):
        from repro.core.offload import Span

        eng = InfinityOffloadEngine(OffloadConfig())

        def charged() -> int:
            return eng.counters.host_link_bytes[0]

        eng.stash("k", np.zeros(4, dtype=np.float32), OffloadDevice.CPU, rank=0)
        assert charged() == 16
        stored = eng.resident("k")
        (lent,) = eng.fetch_async([Span("k", 0)], borrow=True).arrays
        assert lent is stored and charged() == 16 * 2
        lent += 3
        eng.adopt("k", lent, rank=0)
        assert charged() == 16 * 3
        assert eng.resident("k") is stored and np.all(eng.fetch("k", rank=0) == 3)
        assert charged() == 16 * 4
        # copy-on-fetch: the stored array is the undo log until adopt
        (copy,) = eng.fetch_async([Span("k", 0)]).arrays
        assert charged() == 16 * 5
        copy += 1
        assert np.all(stored == 3)
        eng.adopt("k", copy, rank=0)
        assert eng.resident("k") is copy
        assert charged() == 16 * 6  # three writes and three reads
        with pytest.raises(ValueError):
            eng.adopt("k", np.zeros(5, dtype=np.float32), rank=0)
        eng.close()

    def test_missing_key_raises(self):
        eng = InfinityOffloadEngine(OffloadConfig())
        with pytest.raises(KeyError):
            eng.fetch("ghost", rank=0)
        eng.close()

    def test_nvme_roundtrip(self):
        cfg = OffloadConfig(param_device=OffloadDevice.NVME)
        eng = InfinityOffloadEngine(cfg)
        data = np.arange(100, dtype=np.float16)
        eng.stash("k", data, OffloadDevice.NVME, rank=2)
        out = eng.fetch("k", rank=2)
        assert out.dtype == np.float16
        np.testing.assert_array_equal(out, data)
        assert eng.counters.nvme_write_bytes == 200
        assert eng.counters.nvme_read_bytes == 200
        eng.close()

    def test_nvme_without_store_raises(self):
        eng = InfinityOffloadEngine(OffloadConfig())
        with pytest.raises(RuntimeError):
            eng.stash("k", np.zeros(1), OffloadDevice.NVME, rank=0)
        eng.close()

    def test_prefetch_hit_path(self):
        cfg = OffloadConfig(param_device=OffloadDevice.NVME)
        eng = InfinityOffloadEngine(cfg)
        data = np.arange(64, dtype=np.float32)
        eng.stash("k", data, OffloadDevice.NVME, rank=0)
        assert eng.prefetch("k", rank=0)
        out = eng.fetch("k", rank=0)
        np.testing.assert_array_equal(out, data)
        assert eng.counters.prefetch_hits == 1
        assert eng.counters.prefetch_misses == 0
        eng.close()

    def test_fetch_without_prefetch_counts_miss(self):
        cfg = OffloadConfig(param_device=OffloadDevice.NVME)
        eng = InfinityOffloadEngine(cfg)
        eng.stash("k", np.zeros(8, dtype=np.float32), OffloadDevice.NVME, rank=0)
        eng.fetch("k", rank=0)
        assert eng.counters.prefetch_misses == 1
        eng.close()

    def test_prefetch_resident_tier_noop(self):
        eng = InfinityOffloadEngine(OffloadConfig())
        eng.stash("k", np.zeros(4, dtype=np.float32), OffloadDevice.CPU, rank=0)
        assert not eng.prefetch("k", rank=0)
        eng.close()

    def test_discard_cancels_and_removes(self):
        cfg = OffloadConfig(param_device=OffloadDevice.NVME)
        eng = InfinityOffloadEngine(cfg)
        eng.stash("k", np.zeros(8, dtype=np.float32), OffloadDevice.NVME, rank=0)
        eng.prefetch("k", rank=0)
        eng.discard("k")
        assert "k" not in eng.store and eng.resident("k") is None
        eng.close()

    def test_ledger_accounting_cpu(self):
        """MemScope sees a stash land on its tier and a discard leave it."""
        with use_memscope() as scope:
            eng = InfinityOffloadEngine(OffloadConfig())
            eng.stash("k", np.zeros(100, dtype=np.float32), OffloadDevice.CPU, rank=0)
            assert scope.tier_bytes("cpu") == 400
            eng.discard("k")
            assert scope.tier_bytes("cpu") == 0
            eng.close()

    def test_tier_migration_updates_accounting(self):
        with use_memscope() as scope:
            eng = InfinityOffloadEngine(OffloadConfig())
            eng.stash("k", np.zeros(10, dtype=np.float32), OffloadDevice.NONE, rank=1)
            assert scope.tier_bytes("gpu") == 40
            eng.stash("k", np.zeros(10, dtype=np.float32), OffloadDevice.CPU, rank=1)
            assert scope.tier_bytes("gpu") == 0
            assert scope.tier_bytes("cpu") == 40
            eng.close()


class TestFetchAndFetchIntoAreOneReadPath:
    """``fetch`` and ``fetch_into`` differ only in where the bytes land:
    every counter, span and watermark sample of a read is the same.
    ``nvme-landed`` observes a second read of a prefetched key, which the
    first read's pinned staging serves."""

    CASES = [
        "gpu", "cpu", "nvme-miss", "nvme-hit", "nvme-landed",
        "nvme-failed-prefetch",
    ]

    def _observe(self, case, into, tmp_path):
        from contextlib import nullcontext

        from repro.faults import use_faults
        from repro.obs import MemScope, use_memscope
        from repro.obs.tracer import Tracer, use_tracer

        device = {"gpu": OffloadDevice.NONE, "cpu": OffloadDevice.CPU}.get(
            case, OffloadDevice.NVME
        )
        data = np.arange(96, dtype=np.float16)
        tracer, scope = Tracer(enabled=True), MemScope(enabled=True)
        with use_tracer(tracer), use_memscope(scope):
            with InfinityOffloadEngine(
                OffloadConfig(param_device=device, nvme_dir=str(tmp_path / case))
            ) as eng:
                eng.stash("k", data, device, rank=1)
                if case == "nvme-landed":
                    assert eng.prefetch("k", rank=1)
                    eng.fetch("k", rank=1)
                c = eng.counters
                first = (c.nvme_read_bytes, dict(c.host_link_bytes))
                before = len(tracer.records())
                samples = len(scope.timeline())
                # the prefetch read's first try and both retries fail; the
                # sync fallback read then runs with the rule exhausted
                failing = (
                    use_faults("io_error@aio.read:times=3")
                    if "failed" in case
                    else nullcontext()
                )
                with failing:
                    if case in ("nvme-hit", "nvme-failed-prefetch"):
                        assert eng.prefetch("k", rank=1)
                    if into:
                        out = np.empty(96, dtype=np.float16)
                        eng.fetch_into("k", out, rank=1)
                    else:
                        out = eng.fetch("k", rank=1)
                if case in ("nvme-hit", "nvme-landed"):
                    # the record stays landed for the step's later reads
                    assert eng.pool._live_bytes > 0
                    eng.release_landed()
                assert eng.pool._live_bytes == 0
                return {
                    "data": out.tobytes(),
                    "first": first,
                    "host_link_bytes": dict(c.host_link_bytes),
                    "nvme_read_bytes": c.nvme_read_bytes,
                    "prefetch": (
                        c.prefetch_hits, c.prefetch_misses, c.prefetch_fallbacks
                    ),
                    "swap_in_spans": [
                        (s.args.get("tier"), s.args.get("prefetched"))
                        for s in tracer.records()[before:]
                        if s.name == "offload:swap_in"
                    ],
                    "samples": [
                        s.label for s in scope.timeline()[samples:]
                        if s.label.startswith("swap_in")
                    ],
                }

    @pytest.mark.parametrize("case", CASES)
    def test_same_bytes_counters_spans_and_samples(self, case, tmp_path):
        fetched = self._observe(case, False, tmp_path / "fetch")
        landed = self._observe(case, True, tmp_path / "into")
        assert landed == fetched
        assert fetched["data"] == np.arange(96, dtype=np.float16).tobytes()
        tier = case.split("-")[0]
        if case == "nvme-landed":
            # no NVMe read, CRC, span or sample: only the host-link copy
            read_bytes, link = fetched["first"]
            assert fetched["swap_in_spans"] == [] and fetched["samples"] == []
            assert fetched["nvme_read_bytes"] == read_bytes == 192
            assert fetched["host_link_bytes"] == {1: link[1] + 192}
            assert fetched["prefetch"] == (2, 0, 0)
            return
        if tier == "gpu":
            assert fetched["swap_in_spans"] == [] and fetched["samples"] == []
        else:
            assert [t for t, _ in fetched["swap_in_spans"]] == [tier]
        if tier == "cpu":
            _, link = fetched["first"]
            assert fetched["host_link_bytes"] == {1: link[1] + 192}
        if tier == "nvme":
            assert fetched["nvme_read_bytes"] == 192
            assert fetched["samples"] == ["swap_in:nvme"]
            assert fetched["prefetch"] == {
                "nvme-miss": (0, 1, 0),
                "nvme-hit": (1, 0, 0),
                "nvme-failed-prefetch": (1, 0, 1),
            }[case]


class TestRecordMoves:
    """A record's staging state moves only along the table in
    ``core/offload.py`` (``_MOVES``): every legal move, driven through the
    public API, leaves the state and the pinned bytes the table says; a
    move outside it raises."""

    DATA = np.arange(64, dtype=np.float32)
    # move: (state before, state after, whether pinned staging is held after)
    MOVES = {
        "prefetch": (None, "reading", True),
        "first_read": ("reading", "landed", True),
        "unpinned_first_read": ("reading", None, False),
        "failed_first_read": ("reading", None, False),
        "drop_reading": ("reading", None, False),
        "drop_landed": ("landed", None, False),
        "release_landed": ("landed", None, False),
        "take": ("landed", "taken", True),
        "drop_taken": ("taken", None, False),
        "release_taken": ("taken", None, False),
        "flush": (None, "dirty", True),
        "drop_dirty": ("dirty", None, False),
        "release_dirty": ("dirty", None, False),  # the step boundary
        "write_back": ("dirty", None, False),
    }
    FAULTS = {
        "unpinned_first_read": "pinned_exhaustion@pool.acquire",
        "failed_first_read": "io_error@aio.read:times=3",
    }

    def _engine(self, tmp_path, **cfg):
        eng = InfinityOffloadEngine(
            OffloadConfig(
                param_device=OffloadDevice.NVME, nvme_dir=str(tmp_path), **cfg
            )
        )
        eng.stash("k", self.DATA, OffloadDevice.NVME, rank=0)
        return eng

    def _flush(self, eng, data):
        """Reduce ``data`` into flush staging and place it, as a bucket
        flush does."""
        staging = eng.acquire_staging([data.size], data.dtype)
        staging.arrays[0][...] = data
        eng.stash_staged(["k"], staging.arrays, staging, rank=[0])

    @staticmethod
    def _state(eng):
        record = eng._records.get("k")
        return None if record is None else record[0]

    @staticmethod
    def _take(eng):
        """The optimizer's read of a landed record: its view, lent."""
        from repro.core.offload import Span

        fetch = eng.fetch_async([Span("k", 0)])
        assert not fetch.pending and fetch.nbytes == 0
        fetch.arrays[0] += 1  # updated where it sits
        fetch.release()

    @pytest.mark.parametrize("move", list(MOVES))
    def test_every_legal_move(self, move, tmp_path):
        from contextlib import nullcontext

        from repro.faults import use_faults

        before, after, pinned = self.MOVES[move]
        spec = self.FAULTS.get(move)
        # one page: a dirty record leaves no room for another acquisition
        cfg = {"pinned_budget_bytes": 4096} if move == "write_back" else {}
        with self._engine(tmp_path, **cfg) as eng:
            with use_faults(spec) if spec else nullcontext():
                if before in ("reading", "landed", "taken"):
                    assert eng.prefetch("k", rank=0)
                if before in ("landed", "taken"):
                    eng.fetch("k", rank=0)
                if before == "taken":
                    self._take(eng)
                if before == "dirty":
                    self._flush(eng, self.DATA + 1)
                assert self._state(eng) == before
                if move == "prefetch":
                    assert eng.prefetch("k", rank=0)
                elif move.endswith("first_read"):
                    np.testing.assert_array_equal(eng.fetch("k", rank=0), self.DATA)
                elif move == "take":
                    self._take(eng)
                elif move == "flush":
                    self._flush(eng, self.DATA + 1)
                elif move.startswith("drop"):
                    eng.stash("k", self.DATA, OffloadDevice.NVME, rank=0)
                elif move == "write_back":
                    eng.acquire_staging([16], np.float32).release()
                    assert eng.counters.pinned_fallbacks == 0
                elif move == "release_dirty":
                    eng.end_step()
                elif move == "release_taken":
                    eng.release_taken()
                else:
                    eng.release_landed()
            assert self._state(eng) == after
            assert (eng.pool._live_bytes > 0) == pinned
            if move == "write_back":  # disk has what it got
                np.testing.assert_array_equal(eng.fetch("k", rank=0), self.DATA + 1)
            elif move == "release_dirty":  # dropped unwritten; the flush
                with pytest.raises(KeyError):  # superseded the stored copy
                    eng.fetch("k", rank=0)
            elif after == "taken" or move == "release_taken":
                # the update is ahead of disk: no read copies it out
                np.testing.assert_array_equal(eng.fetch("k", rank=0), self.DATA)

    @pytest.mark.parametrize(
        "before, to",
        [(None, "landed"), ("reading", "reading"), ("landed", "reading"),
         ("landed", "landed"), ("reading", "dirty"), ("landed", "dirty"),
         ("dirty", "dirty"), ("dirty", "landed"), ("dirty", "reading"),
         (None, "taken"), ("reading", "taken"), ("dirty", "taken"),
         ("taken", "landed"), ("taken", "taken"), ("taken", "dirty")],
    )
    def test_an_illegal_move_raises(self, before, to, tmp_path):
        with self._engine(tmp_path) as eng:
            if before in ("reading", "landed", "taken"):
                assert eng.prefetch("k", rank=0)
            if before in ("landed", "taken"):
                eng.fetch("k", rank=0)
            if before == "taken":
                self._take(eng)
            if before == "dirty":
                self._flush(eng, self.DATA)
            with pytest.raises(RuntimeError, match="cannot move"):
                eng._move("k", to, self.DATA)
            assert self._state(eng) == before


class TestDirtyRecords:
    """A flushed gradient in pinned staging is read where it sits: a fetch
    copies it out, ``peek`` lends it read-only, ``fetch_async`` hands out
    the view itself under a hold — no NVMe byte or request either way —
    and the bytes still cross the host link."""

    DATA = np.arange(64, dtype=np.float32)

    def _dirty(self, tmp_path, **cfg):
        eng = InfinityOffloadEngine(
            OffloadConfig(
                grad_device=OffloadDevice.NVME, nvme_dir=str(tmp_path), **cfg
            )
        )
        staging = eng.acquire_staging([64], np.float32)
        staging.arrays[0][...] = self.DATA
        eng.stash_staged(["g"], staging.arrays, staging, rank=[1])
        return eng, staging.arrays[0]

    def test_reads_come_from_the_staging(self, tmp_path):
        from repro.core.offload import Span

        eng, view = self._dirty(tmp_path)
        with eng:
            c, stats = eng.counters, eng.store.engine.stats
            assert "g" not in eng.store and c.nvme_write_bytes == 0
            assert c.host_link_bytes == {1: 256}
            out = eng.fetch("g", rank=1)
            assert not np.shares_memory(out, view)
            np.testing.assert_array_equal(out, self.DATA)
            peeked = eng.peek("g", rank=1)
            assert np.shares_memory(peeked, view) and not peeked.flags.writeable
            held = eng.pool._live_bytes
            fetch = eng.fetch_async([Span("g", 1, 16, 8)])
            assert not fetch.pending and fetch.nbytes == 0
            assert np.shares_memory(fetch.arrays[0], view)
            np.testing.assert_array_equal(fetch.arrays[0], self.DATA[16:24])
            eng.end_step()
            assert eng.pool._live_bytes == held  # the fetch still holds it
            fetch.release()
            assert eng.pool._live_bytes == 0
            assert c.nvme_read_bytes == 0
            assert stats.read_requests == stats.write_requests == 0
            assert c.host_link_bytes == {1: 256 * 3 + 32}

    def test_a_fetch_without_room_writes_back_before_borrowing(self, tmp_path):
        """With the dirty record filling the one-page pool, a fetch that
        would borrow it and read another record beside it writes it back
        first and reads both into one pinned page: borrowing it would have
        kept the page, and the read would have fallen back unpinned."""
        from repro.core.offload import Span

        eng, _ = self._dirty(tmp_path, pinned_budget_bytes=4096)
        with eng:
            eng.stash("s", self.DATA + 1, OffloadDevice.NVME, rank=0)
            fetch = eng.fetch_async([Span("g", 1), Span("s", 0)])
            g, s = fetch.wait()
            np.testing.assert_array_equal(g, self.DATA)
            np.testing.assert_array_equal(s, self.DATA + 1)
            assert fetch.pinned and eng.counters.pinned_fallbacks == 0
            assert not eng._records and "g" in eng.store
            fetch.release()
            assert eng.pool._live_bytes == 0

    def test_a_later_flush_supersedes_the_written_back_record(self, tmp_path):
        """A record written back under pool pressure is the older step's
        gradient once a later flush places the key again: that flush
        deletes it, so nothing on NVMe can be read or counted in its
        place after the step boundary."""
        with use_memscope() as scope:
            eng, _ = self._dirty(tmp_path, pinned_budget_bytes=4096)
            with eng:
                staging = eng.acquire_staging([64], np.float32)  # writes "g" back
                assert "g" in eng.store and eng.dirty("g") is None
                assert scope.tier_bytes("nvme") == 256
                staging.arrays[0][...] = self.DATA + 1
                eng.stash_staged(["g"], staging.arrays, staging, rank=[1])
                assert "g" not in eng.store
                assert scope.tier_bytes("nvme") == 0
                np.testing.assert_array_equal(eng.fetch("g", rank=1), self.DATA + 1)
                eng.end_step()
                with pytest.raises(KeyError):
                    eng.fetch("g", rank=1)

class TestLandedRecords:
    """A prefetched record keeps its pinned staging after its first read,
    and later reads of the key land from it — until a write or discard of
    the key drops it, or a release point returns every landed record."""

    OLD = np.arange(64, dtype=np.float32)
    NEW = np.arange(64, dtype=np.float32) + 100

    def _landed(self, tmp_path, **cfg):
        eng = InfinityOffloadEngine(
            OffloadConfig(
                param_device=OffloadDevice.NVME, nvme_dir=str(tmp_path), **cfg
            )
        )
        eng.stash("k", self.OLD, OffloadDevice.NVME, rank=0)
        assert eng.prefetch("k", rank=0)
        np.testing.assert_array_equal(eng.fetch("k", rank=0), self.OLD)
        assert eng.pool._live_bytes > 0  # landed: the staging stays
        assert not eng.prefetch("k", rank=0)  # nothing left to read
        return eng

    def _rewrite(self, eng, how):
        from repro.core.offload import Span, Staging

        if how == "stash":
            eng.stash("k", self.NEW, OffloadDevice.NVME, rank=0)
        elif how == "promote_staged":
            staging = Staging()
            eng.stage_nvme([Span("k", 0)], [self.NEW], staging)
            staging.wait()
            eng.promote_staged("k")
        elif how == "close":
            eng.stash("r", self.NEW, OffloadDevice.NVME, rank=0)
            assert eng.prefetch("r", rank=0)  # still reading at the close
            eng.close()
        else:
            eng.discard("k")

    @pytest.mark.parametrize(
        "how", ["stash", "promote_staged", "discard", "close"]
    )
    def test_a_write_or_discard_drops_the_landed_record(self, how, tmp_path):
        with self._landed(tmp_path) as eng:
            read = eng.counters.nvme_read_bytes
            self._rewrite(eng, how)
            assert eng.pool._live_bytes == 0
            if how == "close":
                return
            if how == "discard":
                with pytest.raises(KeyError):
                    eng.fetch("k", rank=0)
                return
            np.testing.assert_array_equal(eng.fetch("k", rank=0), self.NEW)
            assert eng.counters.nvme_read_bytes == read + 256  # NVMe again
            assert eng.counters.prefetch_misses == 1

    def test_other_staging_acquisitions_release_first(self, tmp_path):
        """A landed record the optimizer will take outlives the gradient
        flush and the optimizer's other reads while the pool has room
        beside it, and goes back first, before any acquisition that does
        not fit: here the budget is one page, which it fills.  A landed
        record nothing will take goes back at either acquisition."""
        from repro.core.offload import Span

        page = 4096
        for budget, taken in ((None, True), (page, True), (None, False)):
            cfg = {} if budget is None else {"pinned_budget_bytes": budget}
            kept = budget is None and taken
            with self._landed(tmp_path / f"flush{budget}{taken}", **cfg) as eng:
                if taken:
                    eng.will_take(["k"])
                landed = eng.pool._live_bytes
                staging = eng.acquire_staging([16], np.float32)  # a gradient flush
                assert bool(eng._records) == kept
                assert eng.pool._live_bytes == staging.nbytes + kept * landed
                assert eng.counters.pinned_fallbacks == 0
                staging.release()
            with self._landed(tmp_path / f"opt{budget}{taken}", **cfg) as eng:
                if taken:
                    eng.will_take(["k"])
                eng.stash("s", self.NEW, OffloadDevice.NVME, rank=0)
                fetch = eng.fetch_async([Span("s", 0)])  # the optimizer's reads
                fetch.wait()
                assert bool(eng._records) == kept
                assert eng.pool._live_bytes == fetch.nbytes + kept * landed
                fetch.release()
                eng.end_step()
                assert eng.pool._live_bytes == 0

    def test_a_full_pool_releases_instead_of_falling_back(self, tmp_path):
        # the landed record fills the whole budget (one 4 KB page)
        with self._landed(tmp_path, pinned_budget_bytes=4096) as eng:
            eng.stash("k2", self.NEW, OffloadDevice.NVME, rank=0)
            assert eng.prefetch("k2", rank=0)
            assert eng.counters.pinned_fallbacks == 0
            np.testing.assert_array_equal(eng.fetch("k2", rank=0), self.NEW)
            misses = eng.counters.prefetch_misses
            eng.fetch("k", rank=0)
            assert eng.counters.prefetch_misses == misses + 1  # released

    def test_unpinned_fallback_staging_is_not_kept(self, tmp_path):
        from repro.faults import use_faults

        eng = InfinityOffloadEngine(
            OffloadConfig(param_device=OffloadDevice.NVME, nvme_dir=str(tmp_path))
        )
        with eng:
            eng.stash("k", self.OLD, OffloadDevice.NVME, rank=0)
            with use_faults("pinned_exhaustion@pool.acquire"):
                assert eng.prefetch("k", rank=0)
            assert eng.counters.pinned_fallbacks == 1
            eng.fetch("k", rank=0)
            assert not eng._records
            eng.fetch("k", rank=0)
            assert eng.counters.prefetch_misses == 1
