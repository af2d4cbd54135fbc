"""Finite-difference gradient checks for every kernel in repro.nn.functional.

All checks run in float64 with central differences; tolerances are tight
because these kernels underpin the entire equivalence chain of the ZeRO
engine tests.
"""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.utils.rng import seeded_rng


def numeric_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at x (elementwise)."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = fn()
        x[idx] = orig - eps
        fm = fn()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def check_op(fwd, bwd, inputs, n_grads, rtol=1e-5, atol=1e-8, seed=0):
    """Generic check: analytic grads of sum(out * R) vs finite differences."""
    rng = seeded_rng(seed)
    out, cache = fwd(*inputs)
    weights = rng.standard_normal(out.shape)

    grads = bwd(weights.copy(), cache)
    if not isinstance(grads, tuple):
        grads = (grads,)

    def loss():
        o, _ = fwd(*inputs)
        return float((o * weights).sum())

    for i in range(n_grads):
        if grads[i] is None:
            continue
        num = numeric_grad(loss, inputs[i])
        np.testing.assert_allclose(
            grads[i], num, rtol=rtol, atol=atol, err_msg=f"input {i}"
        )


class TestLinear:
    def test_forward_values(self, rng):
        x = rng.standard_normal((2, 3))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        y, _ = F.linear_fwd(x, w, b)
        np.testing.assert_allclose(y, x @ w.T + b)

    def test_gradients(self, rng):
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(5)
        check_op(F.linear_fwd, F.linear_bwd, [x, w, b], 3)

    def test_no_bias(self, rng):
        x = rng.standard_normal((2, 4))
        w = rng.standard_normal((3, 4))
        y, cache = F.linear_fwd(x, w, None)
        _, _, gb = F.linear_bwd(np.ones_like(y), cache)
        assert gb is None

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_weight_gradient_lands_in_out_bit_for_bit(self, rng, dtype):
        """``out=`` is where the weight gradient is written and what is
        returned, holding the bits the allocating call produces."""
        x = rng.standard_normal((3, 5, 8)).astype(dtype)
        w = rng.standard_normal((6, 8)).astype(dtype)
        g = rng.standard_normal((3, 5, 6)).astype(dtype)
        gx, gw, gb = F.linear_bwd(g, (x, w, True))
        out = np.full_like(w, 7)  # recycled memory: stale contents
        gx2, gw2, gb2 = F.linear_bwd(g, (x, w, True), out=out)
        assert gw2 is out and out.dtype == dtype
        assert out.tobytes() == gw.tobytes()
        assert gx2.tobytes() == gx.tobytes() and gb2.tobytes() == gb.tobytes()

    def test_fp16_accumulates_fp32(self):
        """Tensor-core emulation: fp16 matmul must not lose the mantissa."""
        n = 4096
        x = np.full((1, n), 0.01, dtype=np.float16)
        w = np.full((1, n), 0.01, dtype=np.float16)
        y, _ = F.linear_fwd(x, w, None)
        # naive fp16 accumulation would saturate at ~0.25 relative error
        assert float(y[0, 0]) == pytest.approx(n * 1e-4, rel=0.02)


class TestGelu:
    def test_gradients(self, rng):
        x = rng.standard_normal((3, 5))
        check_op(F.gelu_fwd, lambda g, c: F.gelu_bwd(g, c), [x], 1)

    def test_known_values(self):
        y, _ = F.gelu_fwd(np.array([0.0]))
        assert y[0] == 0.0
        y, _ = F.gelu_fwd(np.array([100.0]))
        assert y[0] == pytest.approx(100.0)
        y, _ = F.gelu_fwd(np.array([-100.0]))
        assert y[0] == pytest.approx(0.0, abs=1e-6)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        p, _ = F.softmax_fwd(rng.standard_normal((4, 7)))
        np.testing.assert_allclose(p.sum(-1), 1.0, rtol=1e-6)

    def test_gradients(self, rng):
        x = rng.standard_normal((2, 5))
        check_op(F.softmax_fwd, lambda g, c: F.softmax_bwd(g, c), [x], 1)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((3, 4))
        p1, _ = F.softmax_fwd(x)
        p2, _ = F.softmax_fwd(x + 1000.0)
        np.testing.assert_allclose(p1, p2, rtol=1e-6)

    def test_overflow_stability(self):
        p, _ = F.softmax_fwd(np.array([[1e4, -1e4]]))
        assert np.all(np.isfinite(p))


class TestLayerNorm:
    def test_output_normalized(self, rng):
        x = rng.standard_normal((4, 8)) * 5 + 3
        y, _ = F.layernorm_fwd(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(y.mean(-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.std(-1), 1.0, rtol=1e-3)

    def test_gradients(self, rng):
        x = rng.standard_normal((2, 3, 6))
        g = rng.standard_normal(6)
        b = rng.standard_normal(6)
        check_op(
            lambda x, g, b: F.layernorm_fwd(x, g, b),
            F.layernorm_bwd,
            [x, g, b],
            3,
            rtol=1e-4,
            atol=1e-7,
        )


class TestEmbedding:
    def test_lookup(self, rng):
        table = rng.standard_normal((10, 4))
        ids = np.array([[1, 3], [0, 9]])
        y, _ = F.embedding_fwd(ids, table)
        np.testing.assert_array_equal(y[0, 1], table[3])

    def test_gradient_scatter_add(self, rng):
        table = rng.standard_normal((5, 3))
        ids = np.array([0, 0, 2])  # repeated id accumulates
        y, cache = F.embedding_fwd(ids, table)
        g = np.ones_like(y)
        gt = F.embedding_bwd(g, cache)
        np.testing.assert_allclose(gt[0], 2.0)
        np.testing.assert_allclose(gt[2], 1.0)
        np.testing.assert_allclose(gt[1], 0.0)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_gradient_lands_in_out_bit_for_bit(self, rng, dtype):
        table = rng.standard_normal((9, 4)).astype(dtype)
        ids = np.array([[0, 3, 3], [8, 0, 3]])
        y, cache = F.embedding_fwd(ids, table)
        g = rng.standard_normal(y.shape).astype(dtype)
        want = F.embedding_bwd(g, cache)
        out = np.full_like(table, 7)  # stale contents, rows nobody looked up
        got = F.embedding_bwd(g, cache, out=out)
        assert got is out and out.dtype == dtype
        assert out.tobytes() == want.tobytes()

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            F.embedding_fwd(np.array([5]), np.zeros((5, 2)))
        with pytest.raises(IndexError):
            F.embedding_fwd(np.array([-1]), np.zeros((5, 2)))

    def test_float_ids_raise(self):
        with pytest.raises(TypeError):
            F.embedding_fwd(np.array([0.5]), np.zeros((5, 2)))


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = rng.standard_normal((10, 10))
        y, _ = F.dropout_fwd(x, 0.5, rng, training=False)
        assert y is x

    def test_zero_p_identity(self, rng):
        x = rng.standard_normal((10,))
        y, _ = F.dropout_fwd(x, 0.0, rng, training=True)
        assert y is x

    def test_inverted_scaling_preserves_mean(self):
        rng = seeded_rng(0)
        x = np.ones((200, 200))
        y, _ = F.dropout_fwd(x, 0.3, rng, training=True)
        assert float(y.mean()) == pytest.approx(1.0, rel=0.02)

    def test_mask_reused_in_backward(self, rng):
        x = np.ones((50, 50))
        y, cache = F.dropout_fwd(x, 0.5, rng, training=True)
        g = F.dropout_bwd(np.ones_like(y), cache)
        np.testing.assert_array_equal((y == 0), (g == 0))

    def test_invalid_p_raises(self, rng):
        with pytest.raises(ValueError):
            F.dropout_fwd(np.ones(2), 1.0, rng, training=True)


class TestAttentionCore:
    def test_causal_masking(self, rng):
        """Position i must not attend to positions > i."""
        q = rng.standard_normal((1, 1, 4, 8))
        k = rng.standard_normal((1, 1, 4, 8))
        v = rng.standard_normal((1, 1, 4, 8))
        ctx1, _ = F.attention_scores_fwd(q, k, v, causal=True)
        v2 = v.copy()
        v2[:, :, 2:, :] = 999.0  # corrupt the future
        ctx2, _ = F.attention_scores_fwd(q, k, v2, causal=True)
        np.testing.assert_allclose(ctx1[:, :, :2], ctx2[:, :, :2], rtol=1e-6)

    def test_non_causal_attends_everywhere(self, rng):
        q = rng.standard_normal((1, 1, 3, 4))
        k = rng.standard_normal((1, 1, 3, 4))
        v = rng.standard_normal((1, 1, 3, 4))
        ctx, _ = F.attention_scores_fwd(q, k, v, causal=False)
        v2 = v.copy()
        v2[:, :, -1] += 1.0
        ctx2, _ = F.attention_scores_fwd(q, k, v2, causal=False)
        assert not np.allclose(ctx[:, :, 0], ctx2[:, :, 0])

    def test_gradients(self, rng):
        q = rng.standard_normal((1, 2, 3, 4))
        k = rng.standard_normal((1, 2, 3, 4))
        v = rng.standard_normal((1, 2, 3, 4))
        check_op(
            lambda q, k, v: F.attention_scores_fwd(q, k, v, causal=True),
            F.attention_scores_bwd,
            [q, k, v],
            3,
            rtol=1e-4,
            atol=1e-7,
        )


class TestCrossEntropy:
    def test_uniform_logits_log_vocab(self):
        logits = np.zeros((4, 10))
        targets = np.arange(4) % 10
        loss, _ = F.cross_entropy_fwd(logits, targets)
        assert loss == pytest.approx(np.log(10), rel=1e-6)

    def test_gradient(self, rng):
        logits = rng.standard_normal((2, 3, 7))
        targets = rng.integers(0, 7, size=(2, 3))
        loss, cache = F.cross_entropy_fwd(logits, targets)
        g = F.cross_entropy_bwd(1.0, cache)

        def loss_fn():
            l, _ = F.cross_entropy_fwd(logits, targets)
            return l

        num = numeric_grad(loss_fn, logits)
        np.testing.assert_allclose(g, num, rtol=1e-4, atol=1e-8)

    def test_gradient_sums_to_zero_per_row(self, rng):
        logits = rng.standard_normal((4, 9))
        targets = rng.integers(0, 9, size=4)
        _, cache = F.cross_entropy_fwd(logits, targets)
        g = F.cross_entropy_bwd(1.0, cache)
        np.testing.assert_allclose(g.sum(-1), 0.0, atol=1e-9)

    def test_target_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy_fwd(np.zeros((4, 5)), np.zeros(3, dtype=int))

    def test_grad_scale_propagates(self, rng):
        logits = rng.standard_normal((2, 5))
        targets = rng.integers(0, 5, size=2)
        _, cache = F.cross_entropy_fwd(logits, targets)
        g1 = F.cross_entropy_bwd(1.0, cache)
        g2 = F.cross_entropy_bwd(1024.0, cache)
        np.testing.assert_allclose(g2, 1024.0 * g1, rtol=1e-9)


class TestHeadSplitMerge:
    def test_roundtrip(self, rng):
        x = rng.standard_normal((2, 5, 12))
        y = F.merge_heads(F.split_heads(x, 4))
        np.testing.assert_array_equal(x, y)

    def test_split_shape(self, rng):
        h = F.split_heads(rng.standard_normal((2, 5, 12)), 3)
        assert h.shape == (2, 3, 5, 4)

    def test_indivisible_raises(self, rng):
        with pytest.raises(ValueError):
            F.split_heads(rng.standard_normal((1, 2, 10)), 3)
