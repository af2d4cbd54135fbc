"""Forward and backward kernels for the transformer operator set.

Every ``*_fwd`` returns ``(output, cache)``; the matching ``*_bwd`` consumes
``(grad_output, cache)`` and returns input/parameter gradients.  Kernels are
dtype-generic (fp16/fp32/fp64) with one deliberate exception: matrix products
accumulate in at least fp32 and are cast back to the input dtype, emulating
V100 tensor-core behaviour (fp16 multiply, fp32 accumulate).  Everything is
vectorised numpy — no Python loops over batch or sequence.

Elementwise chains compute into one or two buffers with ``out=`` and
augmented operators, in the operation order of the plain expression, so
the bits are those of the expression while the temporaries it would
allocate (each a fresh mapping above glibc's mmap threshold) are not.
Only commutativity is used to reorder (``a * b`` as ``b *= a``), never
associativity.  An array a ``*_fwd`` puts in its cache belongs to the
cache; ``*_bwd`` reads it and writes only buffers of its own.

Shapes follow the paper's notation: activations are ``[bsz, seq, hd]``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _accum_dtype(dt: np.dtype) -> np.dtype:
    """Accumulation dtype: fp16 accumulates in fp32; wider types keep theirs."""
    return np.dtype(np.float32) if dt == np.float16 else np.dtype(dt)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor-core-style matmul: accumulate wide, return the input dtype.

    An N-D activation times a 2-D weight is one 2-D GEMM over the folded
    leading axes, not a batch of per-sample GEMMs.  Each output element is
    the same dot product either way; the BLAS kernel is picked by the
    call's size, so where a per-sample call was below the library's
    small-matrix threshold and the folded call is not, the last bit can
    differ from the batched product.
    """
    dtype = a.dtype
    acc = _accum_dtype(dtype)
    a, b = a.astype(acc, copy=False), b.astype(acc, copy=False)
    if a.ndim > 2 and b.ndim == 2:
        out = (a.reshape(-1, a.shape[-1]) @ b).reshape(*a.shape[:-1], b.shape[-1])
    else:
        out = np.matmul(a, b)
    return out.astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------

def linear_fwd(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray]
) -> tuple[np.ndarray, tuple]:
    """``y = x @ W.T + b`` with ``W`` of shape ``[out, in]``."""
    y = matmul(x, weight.T)
    if bias is not None:
        y += bias
    return y, (x, weight, bias is not None)


def linear_bwd(
    grad_y: np.ndarray,
    cache: tuple,
    *,
    out: Optional[np.ndarray] = None,
    bias_out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Returns ``(grad_x, grad_weight, grad_bias)``.

    ``out`` (the weight's shape and dtype) receives the weight gradient and
    is returned as it — a caller that recycles gradient memory pays no
    fresh pages for the largest array backward produces.  ``bias_out``
    does the same for the bias gradient.
    """
    x, weight, has_bias = cache
    grad_x = matmul(grad_y, weight)
    # collapse all leading dims into one batch axis for the weight grad
    go2 = grad_y.reshape(-1, grad_y.shape[-1])
    x2 = x.reshape(-1, x.shape[-1])
    acc = _accum_dtype(grad_y.dtype)
    go2t, x2 = go2.astype(acc, copy=False).T, x2.astype(acc, copy=False)
    if out is None:
        grad_w = (go2t @ x2).astype(weight.dtype, copy=False)
    elif out.dtype == acc:
        grad_w = np.matmul(go2t, x2, out=out)
    else:
        out[...] = go2t @ x2
        grad_w = out
    grad_b = None
    if has_bias:
        go2a = go2.astype(acc, copy=False)
        if bias_out is None:
            grad_b = go2a.sum(axis=0).astype(weight.dtype)
        elif bias_out.dtype == acc:
            grad_b = np.sum(go2a, axis=0, out=bias_out)
        else:
            bias_out[...] = go2a.sum(axis=0)
            grad_b = bias_out
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# GELU (tanh approximation, as used by GPT-2/Megatron)
# ---------------------------------------------------------------------------

def gelu_fwd(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    acc = _accum_dtype(x.dtype)
    xa = x.astype(acc, copy=False)
    # t = tanh(C * (xa + 0.044715 * (xa * xa * xa))); xa * xa * xa, not
    # xa**3: the power goes through libm powf, ten times the cost of the
    # rest of the kernel
    t = np.multiply(xa, xa)
    t *= xa
    t *= 0.044715
    t += xa
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    # y = 0.5 * xa * (1.0 + t)
    y = np.multiply(xa, 0.5)
    y *= np.add(t, 1.0)
    return y.astype(x.dtype, copy=False), (xa, t)


def gelu_bwd(grad_y: np.ndarray, cache: tuple) -> np.ndarray:
    xa, t = cache
    acc = xa.dtype
    g = grad_y.astype(acc, copy=False)
    # dinner = C * (1.0 + 3 * 0.044715 * xa**2)
    dinner = np.square(xa)
    dinner *= 3 * 0.044715
    dinner += 1.0
    dinner *= _SQRT_2_OVER_PI
    # dy_dx = 0.5 * (1.0 + t) + 0.5 * xa * (1.0 - t**2) * dinner
    rest = np.square(t)
    np.subtract(1.0, rest, out=rest)
    tail = np.multiply(xa, 0.5)
    tail *= rest
    tail *= dinner
    dy_dx = np.add(t, 1.0, out=rest)
    dy_dx *= 0.5
    dy_dx += tail
    dy_dx *= g
    return dy_dx.astype(grad_y.dtype, copy=False)


# ---------------------------------------------------------------------------
# Softmax (last axis)
# ---------------------------------------------------------------------------

def softmax_fwd(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    acc = _accum_dtype(x.dtype)
    xa = x.astype(acc, copy=False)
    # p = exp(xa - max) / sum(exp(xa - max))
    p = np.subtract(xa, xa.max(axis=-1, keepdims=True))
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p.astype(x.dtype, copy=False), (p,)


def softmax_bwd(grad_y: np.ndarray, cache: tuple) -> np.ndarray:
    (p,) = cache
    acc = p.dtype
    g = grad_y.astype(acc, copy=False)
    # p * (g - sum(g * p))
    out = np.multiply(g, p)
    dot = out.sum(axis=-1, keepdims=True)
    np.subtract(g, dot, out=out)
    out *= p
    return out.astype(grad_y.dtype, copy=False)


# ---------------------------------------------------------------------------
# LayerNorm (last axis), with affine gain/bias
# ---------------------------------------------------------------------------

def layernorm_fwd(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, *, eps: float = 1e-5
) -> tuple[np.ndarray, tuple]:
    """One mean pass: ``d = x - mean``, ``var = sum(d * d) / n`` (exactly
    ``np.var``'s arithmetic), ``xhat = d * inv_std``."""
    acc = _accum_dtype(x.dtype)
    xa = x.astype(acc, copy=False)
    n = xa.shape[-1]
    xhat = np.subtract(xa, xa.mean(axis=-1, keepdims=True))
    y = np.square(xhat)
    var = y.sum(axis=-1, keepdims=True)
    var /= n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    # y = xhat * gain + bias
    np.multiply(xhat, gain.astype(acc, copy=False), out=y)
    y += bias.astype(acc, copy=False)
    return y.astype(x.dtype, copy=False), (xhat, inv_std, gain)


def layernorm_bwd(
    grad_y: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(grad_x, grad_gain, grad_bias)``."""
    xhat, inv_std, gain = cache
    acc = xhat.dtype
    g = grad_y.astype(acc, copy=False)
    axes = tuple(range(g.ndim - 1))
    tmp = np.multiply(g, xhat)
    grad_gain = tmp.sum(axis=axes).astype(gain.dtype, copy=False)
    grad_bias = g.sum(axis=axes).astype(gain.dtype, copy=False)
    gh = np.multiply(g, gain.astype(acc, copy=False))  # dL/dxhat
    n = xhat.shape[-1]
    # grad_x = inv_std / n * (n * gh - sum(gh) - xhat * sum(gh * xhat))
    gh_sum = gh.sum(axis=-1, keepdims=True)
    np.multiply(gh, xhat, out=tmp)
    ghx_sum = tmp.sum(axis=-1, keepdims=True)
    gh *= n
    gh -= gh_sum
    np.multiply(xhat, ghx_sum, out=tmp)
    gh -= tmp
    gh *= inv_std / n
    return gh.astype(grad_y.dtype, copy=False), grad_gain, grad_bias


# ---------------------------------------------------------------------------
# Embedding lookup
# ---------------------------------------------------------------------------

def embedding_fwd(ids: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, tuple]:
    """``ids`` integer array, ``table`` of ``[vocab, dim]``."""
    if not np.issubdtype(ids.dtype, np.integer):
        raise TypeError(f"embedding ids must be integers, got {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError("embedding id out of range")
    return table[ids], (ids, table.shape)


def embedding_bwd(
    grad_y: np.ndarray, cache: tuple, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Dense gradient of shape ``[vocab, dim]`` (scatter-add over ids),
    built in ``out`` (that shape, ``grad_y``'s dtype) when given.

    The scatter runs over the table's elements, not its rows: ``np.add.at``
    has a fast indexed loop for 1-D operands only, and the element indices
    ``id * dim + column`` visit each element's contributions in the same
    token order as a row scatter, so the bits are the row scatter's.
    """
    ids, table_shape = cache
    acc = _accum_dtype(grad_y.dtype)
    if out is not None and out.dtype == acc:
        grad_table = out
        grad_table[...] = 0
    else:
        grad_table = np.zeros(table_shape, dtype=acc)
    dim = table_shape[1]
    elements = (ids.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1)
    np.add.at(grad_table.reshape(-1, copy=False), elements, grad_y.reshape(-1))
    if out is None:
        return grad_table.astype(grad_y.dtype, copy=False)
    if grad_table is not out:
        out[...] = grad_table
    return out


# ---------------------------------------------------------------------------
# Dropout (inverted scaling)
# ---------------------------------------------------------------------------

def dropout_fwd(
    x: np.ndarray, p: float, rng: np.random.Generator, *, training: bool
) -> tuple[np.ndarray, tuple]:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x, (None,)
    keep = (rng.random(x.shape) >= p).astype(x.dtype)
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.dtype)
    return x * keep * scale, (keep * scale,)


def dropout_bwd(grad_y: np.ndarray, cache: tuple) -> np.ndarray:
    (mask,) = cache
    return grad_y if mask is None else grad_y * mask


# ---------------------------------------------------------------------------
# Causal self-attention core: softmax(QK^T/sqrt(dh) + mask) V
# ---------------------------------------------------------------------------

def attention_scores_fwd(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, *, causal: bool = True
) -> tuple[np.ndarray, tuple]:
    """q, k, v of shape ``[bsz, heads, seq, dh]`` -> context of same shape."""
    dh = q.shape[-1]
    scale = 1.0 / math.sqrt(dh)
    scores = matmul(q, np.swapaxes(k, -1, -2))
    scores *= np.asarray(scale, dtype=q.dtype)
    if causal:
        seq = q.shape[-2]
        mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        neg = np.asarray(-1e4 if q.dtype == np.float16 else -1e9, dtype=scores.dtype)
        np.copyto(scores, neg, where=mask)
    probs, sm_cache = softmax_fwd(scores)
    ctx = matmul(probs, v)
    return ctx, (q, k, v, probs, sm_cache, scale)


def attention_scores_bwd(
    grad_ctx: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(grad_q, grad_k, grad_v)``."""
    q, k, v, probs, sm_cache, scale = cache
    grad_probs = matmul(grad_ctx, np.swapaxes(v, -1, -2))
    grad_v = matmul(np.swapaxes(probs, -1, -2), grad_ctx)
    grad_scores = softmax_bwd(grad_probs, sm_cache)
    # masked positions have probs == 0 there, softmax_bwd already zeroes them
    s = np.asarray(scale, dtype=grad_scores.dtype)
    grad_q = matmul(grad_scores, k)
    grad_q *= s
    grad_k = matmul(np.swapaxes(grad_scores, -1, -2), q)
    grad_k *= s
    return grad_q, grad_k, grad_v


# ---------------------------------------------------------------------------
# Cross-entropy over logits (mean over tokens)
# ---------------------------------------------------------------------------

def cross_entropy_fwd(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, tuple]:
    """``logits [*, vocab]``, integer ``targets [*]``; returns mean NLL."""
    acc = _accum_dtype(logits.dtype)
    flat = logits.reshape(-1, logits.shape[-1]).astype(acc, copy=False)
    t = targets.reshape(-1)
    if t.shape[0] != flat.shape[0]:
        raise ValueError("targets shape does not match logits batch")
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1))
    nll = logsumexp - shifted[np.arange(t.shape[0]), t]
    loss = float(nll.mean())
    return loss, (shifted, t, logits.shape, logits.dtype)


def cross_entropy_bwd(grad_loss: float, cache: tuple) -> np.ndarray:
    shifted, t, shape, dtype = cache
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    probs[np.arange(t.shape[0]), t] -= 1.0
    probs *= grad_loss / t.shape[0]
    return probs.reshape(shape).astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# Head split/merge helpers
# ---------------------------------------------------------------------------

def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """``[bsz, seq, hd] -> [bsz, heads, seq, hd/heads]``."""
    bsz, seq, hd = x.shape
    if hd % heads:
        raise ValueError(f"hidden dim {hd} not divisible by {heads} heads")
    return x.reshape(bsz, seq, heads, hd // heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """``[bsz, heads, seq, dh] -> [bsz, seq, heads*dh]``."""
    bsz, heads, seq, dh = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(bsz, seq, heads * dh)
