"""Memory-centric tiling (Sec. 5.1.3).

A large linear operator is represented "as a mathematically equivalent
sequence of smaller linear operators consisting of tiles of parameters from
the original operator", executed sequentially.  Combined with ZeRO-3's
fetch-and-release pattern, each tile's parameters are resident only during
its own compute, shrinking working memory proportionally to the tile count —
so arbitrarily large operators fit "without relying on model parallelism".

:class:`TiledLinear` splits the weight ``[out, in]`` into an
``out_tiles x in_tiles`` grid of sub-``Linear`` modules:

* output tiles partition the rows: their results concatenate;
* input tiles partition the columns: their results sum (the bias joins the
  last input tile so it is added exactly once).

Each tile is a real :class:`~repro.nn.layers.Linear` leaf module, so the
ZeRO coordinator's hooks fetch and release tile parameters one at a time —
exactly the interplay the paper describes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.utils.rng import seeded_rng


def split_sizes(total: int, parts: int) -> list[int]:
    """Near-even split of ``total`` into ``parts`` positive sizes.

    >>> split_sizes(10, 3)
    [4, 3, 3]
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if total < parts:
        raise ValueError(f"cannot split {total} into {parts} non-empty parts")
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


class TiledLinear(Module):
    """A ``Linear`` decomposed into an ``out_tiles x in_tiles`` grid."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        out_tiles: int = 1,
        in_tiles: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else seeded_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.out_tiles = out_tiles
        self.in_tiles = in_tiles
        self.has_bias = bias
        self.out_sizes = split_sizes(out_features, out_tiles)
        self.in_sizes = split_sizes(in_features, in_tiles)
        self._grid: list[list[str]] = []
        for oi, osz in enumerate(self.out_sizes):
            row = []
            for ii, isz in enumerate(self.in_sizes):
                # bias joins only the final input tile of each row
                tile_bias = bias and (ii == in_tiles - 1)
                name = f"tile_{oi}_{ii}"
                setattr(
                    self, name, Linear(isz, osz, bias=tile_bias, rng=rng, dtype=dtype)
                )
                row.append(name)
            self._grid.append(row)
        self._in_bounds = np.cumsum([0] + self.in_sizes)

    # --- construction from an existing Linear -------------------------------------
    @classmethod
    def from_linear(
        cls, linear: Linear, *, out_tiles: int = 1, in_tiles: int = 1
    ) -> "TiledLinear":
        """Tile an existing layer, copying its weights exactly."""
        tiled = cls(
            linear.in_features,
            linear.out_features,
            out_tiles=out_tiles,
            in_tiles=in_tiles,
            bias=linear.has_bias,
            dtype=linear.weight.data.dtype,
        )
        tiled.load_from_full(
            linear.weight.data,
            linear.bias.data if linear.has_bias else None,
        )
        return tiled

    def load_from_full(
        self, weight: np.ndarray, bias: Optional[np.ndarray]
    ) -> None:
        """Copy a full ``[out, in]`` weight (and bias) into the tiles."""
        if weight.shape != (self.out_features, self.in_features):
            raise ValueError(
                f"weight shape {weight.shape} != "
                f"({self.out_features}, {self.in_features})"
            )
        o_lo = 0
        for oi, osz in enumerate(self.out_sizes):
            i_lo = 0
            for ii, isz in enumerate(self.in_sizes):
                tile: Linear = self._modules[self._grid[oi][ii]]
                tile.weight.data[...] = weight[o_lo : o_lo + osz, i_lo : i_lo + isz]
                if tile.has_bias and bias is not None:
                    tile.bias.data[...] = bias[o_lo : o_lo + osz]
                i_lo += isz
            o_lo += osz

    def to_full_weight(self) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Reassemble the full weight/bias (for equivalence checks)."""
        weight = np.zeros(
            (self.out_features, self.in_features),
            dtype=self._modules[self._grid[0][0]].weight.data.dtype,
        )
        bias = np.zeros(self.out_features, dtype=weight.dtype) if self.has_bias else None
        o_lo = 0
        for oi, osz in enumerate(self.out_sizes):
            i_lo = 0
            for ii, isz in enumerate(self.in_sizes):
                tile: Linear = self._modules[self._grid[oi][ii]]
                weight[o_lo : o_lo + osz, i_lo : i_lo + isz] = tile.weight.data
                if tile.has_bias and bias is not None:
                    bias[o_lo : o_lo + osz] = tile.bias.data
                i_lo += isz
            o_lo += osz
        return weight, bias

    # --- compute ---------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        outputs = []
        for oi in range(self.out_tiles):
            acc = None
            for ii in range(self.in_tiles):
                tile = self._modules[self._grid[oi][ii]]
                lo, hi = self._in_bounds[ii], self._in_bounds[ii + 1]
                part = tile(x[..., lo:hi])
                acc = part if acc is None else acc + part
            outputs.append(acc)
        return np.concatenate(outputs, axis=-1)

    def _backward(self, grad_y: np.ndarray) -> np.ndarray:
        grad_x = np.zeros(
            grad_y.shape[:-1] + (self.in_features,), dtype=grad_y.dtype
        )
        o_lo = 0
        for oi, osz in enumerate(self.out_sizes):
            g_out = grad_y[..., o_lo : o_lo + osz]
            # reverse tile order to mirror forward execution order exactly
            for ii in reversed(range(self.in_tiles)):
                tile = self._modules[self._grid[oi][ii]]
                lo, hi = self._in_bounds[ii], self._in_bounds[ii + 1]
                grad_x[..., lo:hi] += tile.backward(g_out)
            o_lo += osz
        return grad_x

    def extra_repr(self) -> str:
        return (
            f"in={self.in_features}, out={self.out_features},"
            f" tiles={self.out_tiles}x{self.in_tiles}, bias={self.has_bias}"
        )
