"""Bit-identity of the in-place kernels against the plain formulas.

``repro.nn.functional`` computes its elementwise chains into one or two
buffers with ``out=`` and augmented operators, and multiplies an N-D
activation by a 2-D weight as one 2-D GEMM.  The plain expressions they
replaced live here as oracles; every rewritten kernel must return the
oracle's bits (``np.array_equal``) in fp32 and fp16, on contiguous and
strided inputs, at the shapes the benchmark workloads and the tier-1
models run.
"""

import math

import numpy as np
import pytest

from repro.nn import functional as F
from repro.utils.rng import seeded_rng

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# --- oracles: the plain formulas -------------------------------------------
def matmul(a, b):
    acc = F._accum_dtype(a.dtype)
    out = np.matmul(a.astype(acc, copy=False), b.astype(acc, copy=False))
    return out.astype(a.dtype, copy=False)


def linear_fwd(x, weight, bias):
    y = matmul(x, weight.T)
    if bias is not None:
        y = y + bias
    return y


def gelu_fwd(x):
    acc = F._accum_dtype(x.dtype)
    xa = x.astype(acc, copy=False)
    inner = _SQRT_2_OVER_PI * (xa + 0.044715 * (xa * xa * xa))
    t = np.tanh(inner)
    y = 0.5 * xa * (1.0 + t)
    return y.astype(x.dtype, copy=False), (xa, t)


def gelu_bwd(grad_y, cache):
    xa, t = cache
    g = grad_y.astype(xa.dtype, copy=False)
    dinner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * xa**2)
    dy_dx = 0.5 * (1.0 + t) + 0.5 * xa * (1.0 - t**2) * dinner
    return (g * dy_dx).astype(grad_y.dtype, copy=False)


def softmax_fwd(x):
    acc = F._accum_dtype(x.dtype)
    xa = x.astype(acc, copy=False)
    shifted = xa - xa.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    return p.astype(x.dtype, copy=False), (p,)


def softmax_bwd(grad_y, cache):
    (p,) = cache
    g = grad_y.astype(p.dtype, copy=False)
    dot = (g * p).sum(axis=-1, keepdims=True)
    return (p * (g - dot)).astype(grad_y.dtype, copy=False)


def layernorm_fwd(x, gain, bias, eps=1e-5):
    acc = F._accum_dtype(x.dtype)
    xa = x.astype(acc, copy=False)
    mean = xa.mean(axis=-1, keepdims=True)
    var = xa.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xa - mean) * inv_std
    y = xhat * gain.astype(acc, copy=False) + bias.astype(acc, copy=False)
    return y.astype(x.dtype, copy=False), (xhat, inv_std, gain)


def layernorm_bwd(grad_y, cache):
    xhat, inv_std, gain = cache
    acc = xhat.dtype
    g = grad_y.astype(acc, copy=False)
    axes = tuple(range(g.ndim - 1))
    grad_gain = (g * xhat).sum(axis=axes).astype(gain.dtype, copy=False)
    grad_bias = g.sum(axis=axes).astype(gain.dtype, copy=False)
    gh = g * gain.astype(acc, copy=False)
    n = xhat.shape[-1]
    grad_x = (
        inv_std
        / n
        * (
            n * gh
            - gh.sum(axis=-1, keepdims=True)
            - xhat * (gh * xhat).sum(axis=-1, keepdims=True)
        )
    )
    return grad_x.astype(grad_y.dtype, copy=False), grad_gain, grad_bias


def attention_scores_fwd(q, k, v):
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = matmul(q, np.swapaxes(k, -1, -2)) * np.asarray(scale, dtype=q.dtype)
    seq = q.shape[-2]
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    neg = np.asarray(-1e4 if q.dtype == np.float16 else -1e9, dtype=scores.dtype)
    scores = np.where(mask, neg, scores)
    probs, sm_cache = softmax_fwd(scores)
    ctx = matmul(probs, v)
    return ctx, (q, k, v, probs, sm_cache, scale)


def attention_scores_bwd(grad_ctx, cache):
    q, k, v, probs, sm_cache, scale = cache
    grad_probs = matmul(grad_ctx, np.swapaxes(v, -1, -2))
    grad_v = matmul(np.swapaxes(probs, -1, -2), grad_ctx)
    grad_scores = softmax_bwd(grad_probs, sm_cache)
    s = np.asarray(scale, dtype=grad_scores.dtype)
    grad_q = matmul(grad_scores, k) * s
    grad_k = matmul(np.swapaxes(grad_scores, -1, -2), q) * s
    return grad_q, grad_k, grad_v


def cross_entropy_fwd(logits, targets):
    acc = F._accum_dtype(logits.dtype)
    flat = logits.reshape(-1, logits.shape[-1]).astype(acc, copy=False)
    t = targets.reshape(-1)
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1))
    nll = logsumexp - shifted[np.arange(t.shape[0]), t]
    return float(nll.mean()), (shifted, t, logits.shape, logits.dtype)


def cross_entropy_bwd(grad_loss, cache):
    shifted, t, shape, dtype = cache
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    probs[np.arange(t.shape[0]), t] -= 1.0
    probs *= grad_loss / t.shape[0]
    return probs.reshape(shape).astype(dtype, copy=False)


def embedding_bwd(grad_y, cache):
    ids, table_shape = cache
    grad_table = np.zeros(table_shape, dtype=F._accum_dtype(grad_y.dtype))
    np.add.at(grad_table, ids.reshape(-1), grad_y.reshape(-1, table_shape[1]))
    return grad_table.astype(grad_y.dtype, copy=False)


# --- shapes ------------------------------------------------------------------
#: (bsz, seq, hidden, heads, vocab): the four benchmark workloads
#: (dense_z3 and mp_z3 share one) and the tier-1 models
MODELS = {
    "dense_z3": (4, 32, 128, 4, 128),
    "nvme_z3": (1, 8, 128, 4, 16896),
    "offload_z2_cpu": (1, 4, 512, 4, 128),
    "tier1_h16": (1, 8, 16, 2, 32),
    "tier1_h16_2x6": (2, 6, 16, 2, 32),
    "tier1_h32": (2, 8, 32, 4, 64),
}
DTYPES = [np.float32, np.float16]


def same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if a is None or isinstance(a, (int, float, tuple, np.dtype, type)):
        return a == b
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def arr(rng, shape, dtype, *, strided=False, scale=1.0):
    """A random array; ``strided`` returns a non-contiguous view of it."""
    if strided:
        wide = rng.standard_normal((*shape[:-1], 2 * shape[-1])) * scale
        return wide.astype(dtype)[..., ::2]
    return (rng.standard_normal(shape) * scale).astype(dtype)


def cases():
    for name in MODELS:
        for dtype in DTYPES:
            for strided in (False, True):
                yield pytest.param(
                    name, dtype, strided,
                    id=f"{name}-{np.dtype(dtype).name}-{'strided' if strided else 'contig'}",
                )


@pytest.mark.parametrize("model,dtype,strided", list(cases()))
class TestKernelsMatchTheirFormulas:
    def test_gelu(self, model, dtype, strided):
        bsz, seq, hd, _, _ = MODELS[model]
        rng = seeded_rng(1)
        x = arr(rng, (bsz, seq, 4 * hd), dtype, strided=strided, scale=2.0)
        g = arr(rng, (bsz, seq, 4 * hd), dtype, strided=strided)
        y, cache = F.gelu_fwd(x)
        y_ref, cache_ref = gelu_fwd(x)
        assert same(y, y_ref) and same(cache, cache_ref)
        assert same(F.gelu_bwd(g, cache), gelu_bwd(g, cache_ref))

    def test_layernorm(self, model, dtype, strided):
        bsz, seq, hd, _, _ = MODELS[model]
        rng = seeded_rng(2)
        x = arr(rng, (bsz, seq, hd), dtype, strided=strided, scale=3.0)
        gain, bias = arr(rng, (hd,), dtype), arr(rng, (hd,), dtype)
        g = arr(rng, (bsz, seq, hd), dtype, strided=strided)
        y, cache = F.layernorm_fwd(x, gain, bias)
        y_ref, cache_ref = layernorm_fwd(x, gain, bias)
        assert same(y, y_ref) and same(cache, cache_ref)
        assert same(F.layernorm_bwd(g, cache), layernorm_bwd(g, cache_ref))

    def test_softmax(self, model, dtype, strided):
        bsz, seq, _, heads, _ = MODELS[model]
        rng = seeded_rng(3)
        x = arr(rng, (bsz, heads, seq, seq), dtype, strided=strided, scale=4.0)
        g = arr(rng, (bsz, heads, seq, seq), dtype, strided=strided)
        p, cache = F.softmax_fwd(x)
        p_ref, cache_ref = softmax_fwd(x)
        assert same(p, p_ref) and same(cache, cache_ref)
        assert same(F.softmax_bwd(g, cache), softmax_bwd(g, cache_ref))

    def test_attention_core(self, model, dtype, strided):
        bsz, seq, hd, heads, _ = MODELS[model]
        rng = seeded_rng(4)
        shape = (bsz, heads, seq, hd // heads)
        q, k, v, g = (arr(rng, shape, dtype, strided=strided) for _ in range(4))
        ctx, cache = F.attention_scores_fwd(q, k, v)
        ctx_ref, cache_ref = attention_scores_fwd(q, k, v)
        assert same(ctx, ctx_ref) and same(cache, cache_ref)
        assert same(
            F.attention_scores_bwd(g, cache), attention_scores_bwd(g, cache_ref)
        )

    def test_cross_entropy(self, model, dtype, strided):
        bsz, seq, _, _, vocab = MODELS[model]
        rng = seeded_rng(5)
        logits = arr(rng, (bsz, seq, vocab), dtype, strided=strided, scale=3.0)
        targets = rng.integers(0, vocab, (bsz, seq))
        loss, cache = F.cross_entropy_fwd(logits, targets)
        loss_ref, cache_ref = cross_entropy_fwd(logits, targets)
        assert loss == loss_ref and same(cache, cache_ref)
        assert same(F.cross_entropy_bwd(0.75, cache), cross_entropy_bwd(0.75, cache_ref))


    def test_embedding_backward(self, model, dtype, strided):
        """Repeated ids (every position id recurs once per sample), signed
        zeros and exact cancellations all keep the row scatter's bits."""
        bsz, seq, hd, _, vocab = MODELS[model]
        rng = seeded_rng(6)
        g = arr(rng, (bsz, seq, hd), dtype, strided=strided)
        g[..., ::3] = -0.0
        g[0, -1] = -g[0, 0]
        tok = rng.integers(0, vocab, (bsz, seq))
        tok[0, -1] = tok[0, 0]
        pos = np.broadcast_to(np.arange(seq), (bsz, seq))
        for ids, rows in ((tok, vocab), (pos, seq)):
            cache = (ids, (rows, hd))
            got, want = F.embedding_bwd(g, cache), embedding_bwd(g, cache)
            assert same(got.view(np.uint8), want.view(np.uint8))
            out = np.full((rows, hd), np.nan, dtype=F._accum_dtype(g.dtype))
            assert F.embedding_bwd(g, cache, out=out) is out
            assert same(out.astype(want.dtype).view(np.uint8), want.view(np.uint8))


def linear_shapes(model):
    bsz, seq, hd, _, vocab = MODELS[model]
    # qkv, proj, fc_in, fc_out, head
    for fan_in, fan_out in ((hd, 3 * hd), (hd, hd), (hd, 4 * hd), (4 * hd, hd), (hd, vocab)):
        yield bsz, seq, fan_in, fan_out


#: Products whose per-sample GEMM is below OpenBLAS's small-matrix size
#: threshold while the folded one is not: the library computes them with
#: different kernels, so the folded and the batched product may differ in
#: the last bit.  Every engine runs the same kernel, so the DDP and
#: loop/mp identities do not depend on this; only a comparison against the
#: pre-fold batched product does.
KERNEL_SWITCH = {("tier1_h32", 32, 96), ("tier1_h32", 32, 128)}


@pytest.mark.parametrize("model,dtype,strided", list(cases()))
def test_linear_is_one_2d_gemm_with_the_batched_bits(model, dtype, strided):
    rng = seeded_rng(6)
    for bsz, seq, fan_in, fan_out in linear_shapes(model):
        x = arr(rng, (bsz, seq, fan_in), dtype, strided=strided)
        w, b = arr(rng, (fan_out, fan_in), dtype), arr(rng, (fan_out,), dtype)
        g = arr(rng, (bsz, seq, fan_out), dtype, strided=strided)
        y, _ = F.linear_fwd(x, w, b)
        grad_x, _, _ = F.linear_bwd(g, (x, w, True))
        y_ref, grad_x_ref = linear_fwd(x, w, b), matmul(g, w)
        if (model, fan_in, fan_out) in KERNEL_SWITCH:
            tol = 1e-5 if dtype == np.float32 else 2e-3
            np.testing.assert_allclose(y, y_ref, rtol=tol, atol=tol)
        else:
            assert same(y, y_ref), (fan_in, fan_out)
        assert same(grad_x, grad_x_ref), (fan_in, fan_out)


def test_matmul_leaves_batched_products_batched():
    """Attention's 4-D x 4-D products are not folded."""
    rng = seeded_rng(7)
    a, b = arr(rng, (2, 4, 8, 8), np.float32), arr(rng, (2, 4, 8, 8), np.float32)
    assert same(F.matmul(a, b), matmul(a, b))
