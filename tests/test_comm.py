"""Functional collectives and process-group accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    ProcessGroup,
    allgather,
    allgather_into,
    allreduce,
    broadcast,
    gather,
    reduce_scatter,
    reduce_scatter_into,
    scatter,
)
from repro.comm.collectives import _TILE_NUMEL


def shards_for(world, n=6, dtype=np.float32):
    return [np.arange(n, dtype=dtype) + 100 * r for r in range(world)]


class TestBroadcast:
    def test_all_ranks_get_root_copy(self):
        bufs = [np.array([1.0, 2.0]), None, None]
        out = broadcast(bufs, root=0)
        for o in out:
            np.testing.assert_array_equal(o, [1.0, 2.0])

    def test_ranks_share_one_readonly_view(self):
        # O(1) copies: every rank aliases one private copy of the root's
        # payload, read-only so no rank can mutate what the others see
        out = broadcast([np.zeros(2), None], root=0)
        assert np.shares_memory(out[0], out[1])
        for o in out:
            assert not o.flags.writeable
            with pytest.raises(ValueError):
                o[0] = 5

    def test_broadcast_detached_from_root_buffer(self):
        root_buf = np.zeros(2)
        out = broadcast([root_buf, None], root=0)
        root_buf[0] = 9  # later writes must not leak into the broadcast
        assert out[1][0] == 0

    def test_nonzero_root(self):
        out = broadcast([None, np.array([7.0])], root=1)
        assert out[0][0] == 7.0

    def test_bad_root_raises(self):
        with pytest.raises(ValueError):
            broadcast([np.zeros(1)], root=1)

    def test_none_root_raises(self):
        with pytest.raises(ValueError):
            broadcast([None, np.zeros(1)], root=0)


class TestAllgather:
    def test_rank_order_concat(self):
        out = allgather([np.full(2, r, dtype=np.float32) for r in range(3)])
        np.testing.assert_array_equal(out[0], [0, 0, 1, 1, 2, 2])
        assert len(out) == 3

    def test_uneven_shards(self):
        # ranks disagreeing on a gather's payload are refused (no
        # Allgatherv): every gather names itself and each rank's payload
        ragged = [np.array([1.0]), np.array([2.0, 3.0])]
        mixed = [np.ones(2, np.float32), np.ones(2, np.float16)]
        calls = {
            "allgather": lambda: allgather(ragged),
            "allgather_into": lambda: allgather_into(ragged, np.empty(3)),
            "gather": lambda: gather(ragged, root=0),
        }
        for op, call in calls.items():
            with pytest.raises(
                ValueError,
                match=rf"^{op}: .*rank0=\(float64, 1\), rank1=\(float64, 2\)",
            ):
                call()
        with pytest.raises(ValueError, match=r"rank1=\(float16, 2\)"):
            allgather(mixed)

    def test_multidim_shards_flatten(self):
        out = allgather([np.ones((2, 2)), np.zeros((2, 2))])
        assert out[0].shape == (8,)


class TestReduceScatter:
    def test_sum(self):
        bufs = [np.arange(4, dtype=np.float32) for _ in range(2)]
        out = reduce_scatter(bufs, op="sum")
        np.testing.assert_array_equal(out[0], [0, 2])
        np.testing.assert_array_equal(out[1], [4, 6])

    def test_mean(self):
        bufs = [np.full(4, 2.0), np.full(4, 4.0)]
        out = reduce_scatter(bufs, op="mean")
        np.testing.assert_array_equal(out[0], [3.0, 3.0])

    def test_fp16_accumulates_in_fp32(self):
        # many small fp16 values whose naive fp16 sum loses precision
        bufs = [np.full(4, 0.001, dtype=np.float16) for _ in range(1000)]
        out = allreduce(bufs, op="sum")
        assert out[0].dtype == np.float16
        assert float(out[0][0]) == pytest.approx(1.0, rel=0.01)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            reduce_scatter([np.zeros(5), np.zeros(5)])

    def test_unequal_sizes_raise(self):
        with pytest.raises(ValueError):
            reduce_scatter([np.zeros(4), np.zeros(6)])

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            reduce_scatter([np.zeros(4), np.zeros(4)], op="median")


def reference_reduce(buffers, op, out_dtype, accum_dtype=np.float32):
    """The whole-buffer accumulator the tiled reduction replaced: the
    arithmetic (``0 + f0 + f1 ...``, ``/ world``, cast) it must keep."""
    flats = [np.asarray(b).reshape(-1) for b in buffers]
    acc = np.zeros(flats[0].size, dtype=accum_dtype)
    for f in flats:
        acc += f.astype(accum_dtype, copy=False)
    if op == "mean":
        acc /= len(flats)
    return acc.astype(out_dtype)


class TestTiledReductionMatchesReference:
    """Compared on raw bytes, so the sign of a zero counts: a lone ``-0.0``
    must still come out as the accumulator's ``0 + -0.0 = +0.0``."""

    @pytest.mark.parametrize("world", [1, 2, 4])
    @pytest.mark.parametrize("op", ["sum", "mean"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    @pytest.mark.parametrize("tiles", [0, 1, 2.5])
    def test_bit_identical(self, world, op, dtype, tiles):
        n = (int(tiles * _TILE_NUMEL) // world + 3) * world
        rng = np.random.default_rng(world * 100 + n % 97)
        bufs = [
            (rng.standard_normal(n) * rng.choice([1e-4, 1.0, 300.0], size=n)).astype(dtype)
            for _ in range(world)
        ]
        for r, b in enumerate(bufs):
            b[r::7] = -0.0  # lone and coinciding negative zeros
            b[3::11] = 0.0
        pristine = [b.copy() for b in bufs]
        want = reference_reduce(bufs, op, dtype).tobytes()

        out = np.full(n + 8, 9, dtype=dtype)  # larger, as a reused bucket buffer is
        views = reduce_scatter_into(bufs, out, op=op)
        assert out[:n].tobytes() == want
        assert b"".join(v.tobytes() for v in views) == want
        assert np.all(out[n:] == 9), "wrote past the reduced range"

        shards = reduce_scatter(bufs, op=op)
        assert b"".join(s.tobytes() for s in shards) == want
        assert all(s.dtype == dtype and s.flags.owndata for s in shards)
        assert all(b.tobytes() == p.tobytes() for b, p in zip(bufs, pristine))

    def test_float64_inputs_round_before_they_add(self):
        """Inputs wider than the accumulator are cast first, as
        ``astype(accum_dtype)`` did — not added in double and rounded."""
        # 2^-24 - 2^-50 is a hair under half an fp32 ulp of 1: cast first it
        # becomes the exact tie (rounds to even, up); added in double it
        # stays under the tie (rounds down)
        bufs = [np.array([1.0 + 2.0**-23, 0.0]), np.array([2.0**-24 - 2.0**-50, 0.0])]
        out = np.empty(2)
        reduce_scatter_into(bufs, out, op="sum")
        assert out[0] == 1.0 + 2.0**-22
        assert out.tobytes() == reference_reduce(bufs, "sum", np.float64).tobytes()


class TestReduceScatterSegments:
    """The segment form reduces one fused buffer into a list of destination
    arrays that tile it in order — bit for bit what the flat form writes,
    wherever the pieces live."""

    @staticmethod
    def _inputs(world, n, dtype, seed):
        rng = np.random.default_rng(seed)
        bufs = [
            (rng.standard_normal(n) * rng.choice([1e-4, 1.0, 300.0], size=n)).astype(dtype)
            for _ in range(world)
        ]
        for r, b in enumerate(bufs):
            b[r::7] = -0.0
        return bufs

    @pytest.mark.parametrize("world", [1, 2, 4])
    @pytest.mark.parametrize("op", ["sum", "mean"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_bit_equal_to_the_flat_form(self, world, op, dtype):
        # ragged segments: empty, tiny, one spanning several tiles
        sizes = [0, 3, 2 * _TILE_NUMEL + 5, 1, world * 7]
        sizes.append(-sum(sizes) % world)  # the total must divide by world
        n = sum(sizes)
        bufs = self._inputs(world, n, dtype, seed=world)
        flat = np.empty(n, dtype=dtype)
        reduce_scatter_into(bufs, flat, op=op)

        dests = [np.full(k, 9, dtype=dtype) for k in sizes]
        views = reduce_scatter_into(bufs, dests, op=op)
        assert len(views) == len(dests)
        assert b"".join(d.tobytes() for d in dests) == flat.tobytes()
        for view, dest in zip(views, dests):
            assert not view.flags.writeable
            assert view.size == dest.size
            assert dest.size == 0 or np.shares_memory(view, dest)

    @pytest.mark.parametrize("op", ["sum", "mean"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_segments_may_alias_the_first_input(self, op, dtype):
        """In place: a destination that is the matching slice of
        ``buffers[0]`` — every tile is finished in scratch before it is
        stored — mixed with destinations elsewhere."""
        world, sizes = 2, [4, _TILE_NUMEL + 2, 6]
        n = sum(sizes)
        bufs = self._inputs(world, n, dtype, seed=5)
        want = reference_reduce(bufs, op, dtype).tobytes()
        others = [b.copy() for b in bufs[1:]]
        elsewhere = np.empty(sizes[1], dtype=dtype)
        lo, hi = sizes[0], sizes[0] + sizes[1]
        reduce_scatter_into(
            bufs, [bufs[0][:lo], elsewhere, bufs[0][hi:]], op=op
        )
        got = bufs[0][:lo].tobytes() + elsewhere.tobytes() + bufs[0][hi:].tobytes()
        assert got == want
        assert all(b.tobytes() == o.tobytes() for b, o in zip(bufs[1:], others))

    @pytest.mark.parametrize("sizes", [[4, 2], [4, 6], []])
    def test_wrong_total_size_raises(self, sizes):
        bufs = [np.ones(8, np.float32)] * 2
        with pytest.raises(ValueError):
            reduce_scatter_into(bufs, [np.empty(k, np.float32) for k in sizes])

    def test_non_flat_segment_raises(self):
        bufs = [np.ones(8, np.float32)] * 2
        with pytest.raises(ValueError):
            reduce_scatter_into(bufs, [np.empty((2, 4), np.float32)])

    def test_process_group_accounts_it_as_the_flat_call(self):
        """Fingerprint, stats and journal are computed from ``buffers``."""
        bufs = [np.arange(8, dtype=np.float32) * (r + 1) for r in range(2)]
        flat, seg = ProcessGroup(2), ProcessGroup(2)
        flat.reduce_scatter_into(bufs, np.empty(8, np.float32), op="mean")
        seg.reduce_scatter_into(
            bufs, [np.empty(k, np.float32) for k in (3, 5)], op="mean"
        )
        assert seg.stats.bytes_by_op == flat.stats.bytes_by_op
        assert seg.stats.calls_by_op == flat.stats.calls_by_op


class TestAllreduce:
    def test_sum_equals_manual(self):
        bufs = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        out = allreduce(bufs, op="sum")
        for o in out:
            np.testing.assert_array_equal(o, [4.0, 6.0])

    def test_mean(self):
        out = allreduce([np.zeros(2), np.full(2, 4.0)], op="mean")
        np.testing.assert_array_equal(out[0], [2.0, 2.0])

    def test_max(self):
        out = allreduce([np.array([1.0, 9.0]), np.array([5.0, 2.0])], op="max")
        np.testing.assert_array_equal(out[0], [5.0, 9.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            allreduce([np.zeros(2), np.zeros(3)])


class TestScatterGather:
    def test_scatter_splits_evenly(self):
        out = scatter(np.arange(6), world=3)
        np.testing.assert_array_equal(out[1], [2, 3])

    def test_scatter_indivisible_raises(self):
        with pytest.raises(ValueError):
            scatter(np.arange(5), world=2)

    def test_gather_root_only(self):
        out = gather([np.array([1]), np.array([2])], root=1)
        assert out[0] is None
        np.testing.assert_array_equal(out[1], [1, 2])


class TestCollectiveProperties:
    @given(world=st.integers(1, 8), n=st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_reduce_scatter_then_allgather_is_allreduce(self, world, n):
        """The ring-allreduce identity the paper's Sec. 6.1 argument uses."""
        rng = np.random.default_rng(world * 100 + n)
        padded = n * world
        bufs = [rng.random(padded).astype(np.float32) for _ in range(world)]
        rs = reduce_scatter(bufs, op="sum")
        ag = allgather(rs)
        ar = allreduce(bufs, op="sum")
        np.testing.assert_allclose(ag[0], ar[0], rtol=1e-6)

    @given(world=st.integers(1, 8), n=st.integers(0, 32))
    @settings(max_examples=50, deadline=None)
    def test_scatter_allgather_roundtrip(self, world, n):
        data = np.arange(n * world, dtype=np.float64)
        out = allgather(scatter(data, world))
        np.testing.assert_array_equal(out[0], data)


class TestProcessGroup:
    def test_volume_accounting_broadcast_equals_allgather(self):
        """Sec. 6.1: 'both broadcast and allgather ... have the same
        communication cost when it comes to data movement volume'."""
        world, n = 4, 64
        pg1 = ProcessGroup(world)
        pg1.broadcast([np.zeros(n, dtype=np.float32)] + [None] * (world - 1))
        pg2 = ProcessGroup(world)
        pg2.allgather([np.zeros(n // world, dtype=np.float32) for _ in range(world)])
        assert pg1.stats.total_bytes == pg2.stats.total_bytes > 0

    def test_allreduce_twice_reduce_scatter_volume(self):
        world, n = 4, 64
        pg = ProcessGroup(world)
        pg.allreduce([np.zeros(n, dtype=np.float32) for _ in range(world)])
        pg2 = ProcessGroup(world)
        pg2.reduce_scatter([np.zeros(n, dtype=np.float32) for _ in range(world)])
        assert (
            pg.stats.bytes_by_op["allreduce"]
            == 2 * pg2.stats.bytes_by_op["reduce_scatter"]
        )

    def test_call_counters(self):
        pg = ProcessGroup(2)
        pg.barrier()
        pg.allgather([np.zeros(2), np.zeros(2)])
        assert sum(pg.stats.calls_by_op.values()) == 2
        pg.stats.reset()
        assert sum(pg.stats.calls_by_op.values()) == 0

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            ProcessGroup(0)
