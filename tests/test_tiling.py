"""Memory-centric tiling: mathematical equivalence and working-memory wins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import TiledLinear, split_sizes
from repro.hardware.memory import AllocationError, FirstFitAllocator
from repro.nn.layers import Linear
from repro.utils.rng import seeded_rng
from repro.utils.units import GIB


class TestSplitSizes:
    def test_even(self):
        assert split_sizes(12, 3) == [4, 4, 4]

    def test_uneven(self):
        assert split_sizes(10, 3) == [4, 3, 3]
        assert sum(split_sizes(10, 3)) == 10

    def test_too_many_parts_raises(self):
        with pytest.raises(ValueError):
            split_sizes(2, 3)

    @given(total=st.integers(1, 1000), parts=st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, total, parts):
        if total < parts:
            with pytest.raises(ValueError):
                split_sizes(total, parts)
            return
        sizes = split_sizes(total, parts)
        assert sum(sizes) == total
        assert len(sizes) == parts
        assert max(sizes) - min(sizes) <= 1
        assert all(s > 0 for s in sizes)


class TestTiledLinearEquivalence:
    @pytest.mark.parametrize("out_tiles,in_tiles", [(1, 1), (2, 1), (1, 3), (4, 2), (3, 3)])
    def test_forward_matches_dense(self, out_tiles, in_tiles, rng):
        lin = Linear(12, 8, rng=seeded_rng(0))
        tiled = TiledLinear.from_linear(lin, out_tiles=out_tiles, in_tiles=in_tiles)
        x = rng.standard_normal((2, 5, 12)).astype(np.float32)
        np.testing.assert_allclose(tiled(x), lin(x), rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("out_tiles,in_tiles", [(2, 1), (1, 3), (3, 2)])
    def test_backward_matches_dense(self, out_tiles, in_tiles, rng):
        lin = Linear(9, 7, rng=seeded_rng(1))
        tiled = TiledLinear.from_linear(lin, out_tiles=out_tiles, in_tiles=in_tiles)
        x = rng.standard_normal((4, 9)).astype(np.float32)
        g = rng.standard_normal((4, 7)).astype(np.float32)
        lin(x)
        gx_dense = lin.backward(g.copy())
        tiled(x)
        gx_tiled = tiled.backward(g.copy())
        np.testing.assert_allclose(gx_tiled, gx_dense, rtol=1e-5, atol=1e-6)
        # weight gradients reassemble to the dense weight gradient
        w_grad = np.zeros_like(lin.weight.data)
        o_lo = 0
        for oi, osz in enumerate(tiled.out_sizes):
            i_lo = 0
            for ii, isz in enumerate(tiled.in_sizes):
                tile = tiled._modules[tiled._grid[oi][ii]]
                w_grad[o_lo : o_lo + osz, i_lo : i_lo + isz] = tile.weight.grad
                i_lo += isz
            o_lo += osz
        np.testing.assert_allclose(w_grad, lin.weight.grad, rtol=1e-5, atol=1e-6)

    def test_bias_gradient_matches(self, rng):
        lin = Linear(6, 5, rng=seeded_rng(2))
        tiled = TiledLinear.from_linear(lin, out_tiles=2, in_tiles=2)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        g = rng.standard_normal((3, 5)).astype(np.float32)
        lin(x)
        lin.backward(g.copy())
        tiled(x)
        tiled.backward(g.copy())
        bias = np.concatenate(
            [
                tiled._modules[tiled._grid[oi][-1]].bias.grad
                for oi in range(tiled.out_tiles)
            ]
        )
        np.testing.assert_allclose(bias, lin.bias.grad, rtol=1e-5, atol=1e-6)

    def test_no_bias_tiling(self, rng):
        lin = Linear(6, 4, bias=False, rng=seeded_rng(3))
        tiled = TiledLinear.from_linear(lin, out_tiles=2)
        x = rng.standard_normal((2, 6)).astype(np.float32)
        np.testing.assert_allclose(tiled(x), lin(x), rtol=1e-6)

    def test_weight_roundtrip(self):
        lin = Linear(10, 8, rng=seeded_rng(4))
        tiled = TiledLinear.from_linear(lin, out_tiles=3, in_tiles=2)
        w, b = tiled.to_full_weight()
        np.testing.assert_array_equal(w, lin.weight.data)
        np.testing.assert_array_equal(b, lin.bias.data)

    @given(
        in_f=st.integers(2, 24),
        out_f=st.integers(2, 24),
        out_tiles=st.integers(1, 4),
        in_tiles=st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_equivalence_property(self, in_f, out_f, out_tiles, in_tiles):
        """Tiled == dense for arbitrary (non-divisible) tile factors."""
        if out_f < out_tiles or in_f < in_tiles:
            return
        lin = Linear(in_f, out_f, rng=seeded_rng(in_f * 100 + out_f))
        tiled = TiledLinear.from_linear(lin, out_tiles=out_tiles, in_tiles=in_tiles)
        x = seeded_rng(7).standard_normal((3, in_f)).astype(np.float32)
        np.testing.assert_allclose(tiled(x), lin(x), rtol=1e-4, atol=1e-5)


class TestWorkingMemoryReduction:
    def test_max_tile_param_shrinks_with_factor(self):
        lin = Linear(64, 256, rng=seeded_rng(0))
        dense_numel = lin.weight.numel + lin.bias.numel
        for tiles in (2, 4, 8):
            tiled = TiledLinear.from_linear(lin, out_tiles=tiles)
            # the largest tile's parameter count is the MSWM after tiling
            largest = max(
                sum(p.numel for p in tile.direct_parameters())
                for tile in tiled.modules()
                if tile is not tiled
            )
            assert largest <= dense_numel // tiles + 64 + 1

    def test_each_tile_is_a_leaf_module(self):
        """Tiles must be hookable leaf Linears for ZeRO fetch/release."""
        tiled = TiledLinear(8, 8, out_tiles=2, in_tiles=2, rng=seeded_rng(0))
        leaves = [m for m in tiled.modules() if m.direct_parameters()]
        assert len(leaves) == 4
        assert all(isinstance(m, Linear) for m in leaves)

    def test_fig6b_allocator_scenario(self):
        """Fragmented memory: dense weight fails, tiles fit (Fig. 6b)."""
        allocator = FirstFitAllocator(16 * GIB, alignment=256)
        allocator.pre_fragment(2 * GIB)
        hidden = 16 * 1024
        # the (hd, 4hd) fp16 weight + grad: 16 * hd^2 bytes = 4 GiB at 16K
        dense_bytes = 16 * hidden * hidden
        with pytest.raises(AllocationError):
            allocator.malloc(dense_bytes)
        tile_factor = 4
        offs = [
            allocator.malloc(dense_bytes // tile_factor) for _ in range(tile_factor)
        ]
        assert len(offs) == tile_factor  # sequential tile allocations fit
