"""Attention, transformer blocks, the GPT model, and activation checkpointing."""

import numpy as np
import pytest

from repro.analytics import transformer_params
from repro.nn import (
    CheckpointedBlock,
    GPTModel,
    MultiHeadAttention,
    TransformerBlock,
    TransformerConfig,
)
from repro.nn.checkpoint import ActivationOffloader
from repro.utils.rng import seeded_rng
from tests.helpers import count_offload_bytes


def f64(model):
    for _, p in model.named_parameters():
        p.data = p.data.astype(np.float64)
    return model


def full_gradcheck(model, args, param_names, eps=1e-6, rtol=2e-4, atol=1e-9):
    """Spot-check analytic grads at random entries of selected params."""
    rng = seeded_rng(99)
    loss = model(*args)
    model.backward(1.0)
    params = dict(model.named_parameters())
    for name in param_names:
        p = params[name]
        idx = tuple(rng.integers(0, s) for s in p.data.shape)
        analytic = p.grad[idx]
        orig = p.data[idx]
        p.data[idx] = orig + eps
        lp = float(model(*args))
        p.data[idx] = orig - eps
        lm = float(model(*args))
        p.data[idx] = orig
        numeric = (lp - lm) / (2 * eps)
        assert analytic == pytest.approx(numeric, rel=rtol, abs=1e-7), name


class TestMultiHeadAttention:
    def test_shapes(self, rng):
        mha = MultiHeadAttention(16, 4, rng=rng)
        y = mha(rng.standard_normal((2, 5, 16)))
        assert y.shape == (2, 5, 16)

    def test_param_inventory_matches_paper(self, rng):
        """Sec. 3: attention contributes (hd,3hd) and (hd,hd) linears."""
        hd = 16
        mha = MultiHeadAttention(hd, 4, rng=rng)
        weights = sorted(p.data.shape for _, p in mha.named_parameters() if p.data.ndim == 2)
        assert weights == [(hd, hd), (3 * hd, hd)]

    def test_causality_end_to_end(self, rng):
        mha = MultiHeadAttention(8, 2, rng=rng)
        x = rng.standard_normal((1, 6, 8))
        y1 = mha(x)
        x2 = x.copy()
        x2[:, -1] += 10.0  # change only the last position
        y2 = mha(x2)
        np.testing.assert_allclose(y1[:, :-1], y2[:, :-1], rtol=1e-6)

    def test_gradcheck(self, rng):
        mha = MultiHeadAttention(8, 2, rng=seeded_rng(0))
        for p in mha.parameters():
            p.data = p.data.astype(np.float64)
        x = rng.standard_normal((1, 4, 8))
        w = rng.standard_normal((1, 4, 8))

        def loss():
            return float((mha(x) * w).sum())

        base = mha(x)
        gx = mha.backward(w.copy())
        eps = 1e-6
        idx = (0, 2, 3)
        orig = x[idx]
        x[idx] = orig + eps
        lp = loss()
        x[idx] = orig - eps
        lm = loss()
        x[idx] = orig
        assert gx[idx] == pytest.approx((lp - lm) / (2 * eps), rel=1e-5)

    def test_indivisible_heads_raise(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3)


class TestTransformerBlock:
    def test_residual_structure(self, rng):
        """With zeroed sublayer outputs the block must be the identity."""
        block = TransformerBlock(8, 2, rng=rng)
        block.attn.proj.weight.data[:] = 0
        block.attn.proj.bias.data[:] = 0
        block.mlp.fc_out.weight.data[:] = 0
        block.mlp.fc_out.bias.data[:] = 0
        x = rng.standard_normal((2, 3, 8))
        np.testing.assert_allclose(block(x), x, rtol=1e-6)

    def test_four_linears_per_block(self, rng):
        """Sec. 3: (hd,3hd), (hd,hd), (hd,4hd), (4hd,hd)."""
        hd = 8
        block = TransformerBlock(hd, 2, rng=rng)
        shapes = sorted(
            p.data.shape for _, p in block.named_parameters() if p.data.ndim == 2
        )
        assert shapes == [(hd, hd), (hd, 4 * hd), (3 * hd, hd), (4 * hd, hd)]

    def test_backward_shape(self, rng):
        block = TransformerBlock(8, 2, rng=rng)
        x = rng.standard_normal((2, 4, 8))
        y = block(x)
        g = block.backward(np.ones_like(y))
        assert g.shape == x.shape


class TestGPTModel:
    def test_logits_shape_and_no_cache_leak(self, tiny_model, rng):
        ids = rng.integers(0, 64, (2, 5))
        logits = tiny_model.logits(ids)
        assert logits.shape == (2, 5, 64)
        assert all(m._cache is None for m in tiny_model.modules())

    def test_param_count_near_eq1(self):
        """Eq. (1): 12 * nl * hd^2 approximates the block parameters."""
        cfg = TransformerConfig(
            num_layers=4, hidden_dim=64, num_heads=4, vocab_size=100, max_seq=32,
            tie_embeddings=True,
        )
        model = GPTModel(cfg, rng=seeded_rng(0))
        block_params = sum(
            p.full_numel
            for n, p in model.named_parameters()
            if n.startswith("block")
        )
        eq1 = transformer_params(cfg.num_layers, cfg.hidden_dim)
        assert block_params == pytest.approx(eq1, rel=0.05)

    def test_loss_near_log_vocab_at_init(self, tiny_model, batch):
        loss = tiny_model(*batch)
        assert loss == pytest.approx(np.log(64), rel=0.1)

    def test_tied_embeddings_share_object(self, tiny_model):
        assert tiny_model.head.weight is tiny_model.tok_emb._parameters["weight"]

    def test_untied_variant(self):
        cfg = TransformerConfig(
            num_layers=1, hidden_dim=16, num_heads=2, vocab_size=32, max_seq=8,
            tie_embeddings=False,
        )
        m = GPTModel(cfg, rng=seeded_rng(0))
        assert m.head.weight is not m.tok_emb._parameters["weight"]

    def test_all_params_receive_grads(self, tiny_model, batch):
        tiny_model(*batch)
        tiny_model.backward(1.0)
        missing = [n for n, p in tiny_model.named_parameters() if p.grad is None]
        assert missing == []

    def test_gradcheck_spot(self, batch):
        cfg = TransformerConfig(
            num_layers=2, hidden_dim=16, num_heads=2, vocab_size=64, max_seq=16
        )
        model = f64(GPTModel(cfg, rng=seeded_rng(5)))
        full_gradcheck(
            model,
            batch,
            [
                "tok_emb.weight",
                "pos_emb.weight",
                "block0.attn.qkv.weight",
                "block1.mlp.fc_in.weight",
                "block0.ln2.gain",
                "ln_f.bias",
            ],
        )

    def test_sequence_too_long_raises(self, tiny_model, rng):
        ids = rng.integers(0, 64, size=(1, 999))
        with pytest.raises(ValueError):
            tiny_model(ids, ids)

    def test_wrong_rank_input_raises(self, tiny_model):
        with pytest.raises(ValueError):
            tiny_model(np.zeros(5, dtype=int), np.zeros(5, dtype=int))

    def test_training_reduces_loss(self, tiny_model, rng):
        from repro.optim import Adam

        opt = Adam(tiny_model.parameters(), lr=1e-2)
        ids = rng.integers(0, 64, size=(4, 8))
        tgt = rng.integers(0, 64, size=(4, 8))
        first = tiny_model(ids, tgt)
        for _ in range(20):
            loss = tiny_model(ids, tgt)
            tiny_model.backward(1.0)
            opt.step()
            opt.zero_grad()
        assert loss < first * 0.7  # memorises a fixed batch


class TestActivationCheckpointing:
    def _models(self, ckpt):
        cfg = TransformerConfig(
            num_layers=3,
            hidden_dim=16,
            num_heads=2,
            vocab_size=32,
            max_seq=8,
            activation_checkpointing=ckpt,
        )
        return GPTModel(cfg, rng=seeded_rng(11))

    def test_forward_equivalence(self, rng):
        plain, ckpt = self._models(False), self._models(True)
        ids = rng.integers(0, 32, size=(2, 6))
        tgt = rng.integers(0, 32, size=(2, 6))
        assert plain(ids, tgt) == pytest.approx(ckpt(ids, tgt), rel=1e-6)

    def test_gradient_equivalence(self, rng):
        """Recompute-based backward must produce identical gradients."""
        plain, ckpt = self._models(False), self._models(True)
        ids = rng.integers(0, 32, size=(2, 6))
        tgt = rng.integers(0, 32, size=(2, 6))
        plain(ids, tgt)
        plain.backward(1.0)
        ckpt(ids, tgt)
        ckpt.backward(1.0)
        # checkpoint wrappers nest the block under ".inner"
        g1 = {n: p.grad for n, p in plain.named_parameters()}
        g2 = {
            n.replace(".inner.", "."): p.grad
            for n, p in ckpt.named_parameters()
        }
        assert g1.keys() == g2.keys()
        for n in g1:
            np.testing.assert_allclose(g1[n], g2[n], rtol=1e-5, atol=1e-7, err_msg=n)

    def test_caches_dropped_after_forward(self, rng):
        """Every block but the last drops its caches; the last one's
        backward follows the head's, so it keeps them and recomputes
        nothing."""
        model = self._models(True)
        ids = rng.integers(0, 32, size=(1, 4))
        model(ids, ids)
        *earlier, last = model._block_names
        assert earlier
        for name in earlier:
            wrapper = model._modules[name]
            inner_caches = [
                m._cache for m in wrapper.inner.modules() if m._cache is not None
            ]
            assert inner_caches == []
            assert wrapper._checkpoint is not None
        wrapper = model._modules[last]
        kept = [m for m in wrapper.inner.modules() if m._cache is not None]
        assert len(kept) == 10  # 6 Linear/LayerNorm leaves + GELU, 2 Dropout, attn core
        assert wrapper._checkpoint is None

    def test_recompute_replays_the_forwards_dropout_masks(self, rng):
        """Under dropout the recompute draws the masks the forward drew,
        so the gradients are those of the forward that produced the loss:
        bit-equal to the un-checkpointed model's, step after step.  Two
        layers, because the last block does not recompute."""

        def model(ckpt):
            cfg = TransformerConfig(
                num_layers=2, hidden_dim=32, num_heads=4, vocab_size=64,
                max_seq=16, dropout=0.1, activation_checkpointing=ckpt,
            )
            return GPTModel(cfg, rng=seeded_rng(5))

        plain, ckpt = model(False), model(True)
        assert ckpt.blocks[0]._rngs  # block0 recomputes under dropout
        for _ in range(2):
            ids = rng.integers(0, 64, size=(2, 8))
            tgt = rng.integers(0, 64, size=(2, 8))
            plain.zero_grad()
            ckpt.zero_grad()
            assert plain(ids, tgt) == ckpt(ids, tgt)
            plain.backward(1.0)
            ckpt.backward(1.0)
            grads = {
                n.replace(".inner.", "."): p.grad
                for n, p in ckpt.named_parameters()
            }
            for n, p in plain.named_parameters():
                assert np.array_equal(p.grad, grads[n]), n

    def test_offloader_accounting(self, rng):
        block = TransformerBlock(8, 2, rng=seeded_rng(0))
        wrapped = CheckpointedBlock(block, offloader=ActivationOffloader())
        moved = count_offload_bytes(wrapped)
        x = rng.standard_normal((2, 4, 8)).astype(np.float32)
        y = wrapped(x)
        assert moved["offloaded"] == x.nbytes
        wrapped.backward(np.ones_like(y))
        assert moved["restored"] == x.nbytes

    def test_backward_before_forward_raises(self, rng):
        wrapped = CheckpointedBlock(TransformerBlock(8, 2, rng=rng))
        with pytest.raises(RuntimeError):
            wrapped.backward(np.ones((1, 2, 8)))
