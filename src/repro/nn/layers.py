"""Leaf layers: Linear, LayerNorm, Embedding, GELU, Dropout.

Leaf layers own parameters directly — they are where the ZeRO engine's hooks
gather and release parameters, so each accesses its parameters exactly once
per forward (via the interceptable parameter dict) and caches activations on
``self._cache`` for its explicit backward.

The cache holds activations only, never an array that shares memory with a
parameter: backward reads ``self.weight.data`` afresh — the buffer the
pre-backward hook gathered — so a release after forward really frees the
parameter, and a gather buffer can be recycled without a stale alias reading
its next tenant.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.parameter import Parameter, kaiming_uniform, normal_init
from repro.utils.rng import seeded_rng


class Linear(Module):
    """``y = x @ W.T + b`` with ``W`` of shape ``[out_features, in_features]``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear dimensions must be positive")
        rng = rng if rng is not None else seeded_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_uniform(rng, (out_features, in_features), in_features, dtype)
        )
        if bias:
            self.bias = Parameter(np.zeros(out_features, dtype=dtype))
        self.has_bias = bias

    def forward(self, x: np.ndarray) -> np.ndarray:
        w = self.weight  # through the interceptable dict
        b = self.bias.data if self.has_bias else None
        y, _ = F.linear_fwd(x, w.data, b)
        self._cache = x
        return y

    def _backward(self, grad_y: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("Linear.backward before forward")
        w = self.weight
        b = self.bias if self.has_bias else None
        grad_x, grad_w, grad_b = F.linear_bwd(
            grad_y,
            (self._cache, w.data, self.has_bias),
            out=w.grad_out(),
            bias_out=None if b is None else b.grad_out(),
        )
        w.accumulate_grad(grad_w)
        if b is not None and grad_b is not None:
            b.accumulate_grad(grad_b)
        self._cache = None
        return grad_x

    def extra_repr(self) -> str:
        return f"in={self.in_features}, out={self.out_features}, bias={self.has_bias}"


class LayerNorm(Module):
    """Affine layer normalization over the last axis."""

    def __init__(self, dim: int, *, eps: float = 1e-5, dtype=np.float32) -> None:
        super().__init__()
        if dim <= 0:
            raise ValueError("LayerNorm dim must be positive")
        self.dim = dim
        self.eps = eps
        self.gain = Parameter(np.ones(dim, dtype=dtype))
        self.bias = Parameter(np.zeros(dim, dtype=dtype))

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, (xhat, inv_std, _) = F.layernorm_fwd(
            x, self.gain.data, self.bias.data, eps=self.eps
        )
        self._cache = (xhat, inv_std)
        return y

    def _backward(self, grad_y: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("LayerNorm.backward before forward")
        grad_x, grad_gain, grad_bias = F.layernorm_bwd(
            grad_y, (*self._cache, self.gain.data)
        )
        self.gain.accumulate_grad(grad_gain)
        self.bias.accumulate_grad(grad_bias)
        self._cache = None
        return grad_x

    def extra_repr(self) -> str:
        return f"dim={self.dim}"


class Embedding(Module):
    """Token-id -> vector lookup table of shape ``[vocab, dim]``."""

    def __init__(
        self,
        vocab: int,
        dim: int,
        *,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ) -> None:
        super().__init__()
        if vocab <= 0 or dim <= 0:
            raise ValueError("Embedding dimensions must be positive")
        rng = rng if rng is not None else seeded_rng(0)
        self.vocab = vocab
        self.dim = dim
        self.weight = Parameter(normal_init(rng, (vocab, dim), dtype=dtype))

    def forward(self, ids: np.ndarray) -> np.ndarray:
        y, cache = F.embedding_fwd(ids, self.weight.data)
        self._cache = cache
        return y

    def parameters_read(self, phase: str) -> list[Parameter]:
        # backward scatters into a zero table: the weight is never read
        return [] if phase == "bwd" else self.direct_parameters()

    def _backward(self, grad_y: np.ndarray) -> Optional[np.ndarray]:
        if self._cache is None:
            raise RuntimeError("Embedding.backward before forward")
        # not ``self.weight``: that access would gather a table nobody reads
        w = self._parameters.untouched("weight")
        # a tied table already holds the head's gradient: this one is added
        # to it, so the array it is built in is scratch
        out = w.grad_out(scratch=w.grad is not None)
        w.accumulate_grad(F.embedding_bwd(grad_y, self._cache, out=out))
        self._cache = None
        return None  # ids carry no gradient

    def extra_repr(self) -> str:
        return f"vocab={self.vocab}, dim={self.dim}"


class GELU(Module):
    """tanh-approximation GELU (parameter-free)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, cache = F.gelu_fwd(x)
        self._cache = cache
        return y

    def _backward(self, grad_y: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("GELU.backward before forward")
        grad_x = F.gelu_bwd(grad_y, self._cache)
        self._cache = None
        return grad_x


class Dropout(Module):
    """Inverted dropout; inert in eval mode or at p=0."""

    def __init__(self, p: float = 0.0, *, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng if rng is not None else seeded_rng(0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, cache = F.dropout_fwd(x, self.p, self.rng, training=self.training)
        self._cache = cache
        return y

    def _backward(self, grad_y: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("Dropout.backward before forward")
        grad_x = F.dropout_bwd(grad_y, self._cache)
        self._cache = None
        return grad_x

    def extra_repr(self) -> str:
        return f"p={self.p}"
