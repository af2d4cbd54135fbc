"""The BERT-style encoder: numerics, and training under ZeRO unchanged —
the 'arbitrary model architectures' claim of Sec. 5.3 exercised on a second
architecture, plus a dynamic-control-flow model exercising the prefetcher's
trace invalidation during real training (Sec. 6.2)."""

import numpy as np
import pytest

from repro.baselines.ddp import DDPTrainer
from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.nn import GPTModel, Module, TransformerConfig
from repro.nn.encoder import BertStyleEncoder, EncoderConfig
from repro.nn.transformer import TransformerBlock
from repro.optim import Adam
from repro.utils.rng import seeded_rng, spawn_rngs
from tests.helpers import ddp_state

WORLD = 2


def enc_config():
    return EncoderConfig(
        num_layers=2, hidden_dim=16, num_heads=2, vocab_size=37, max_seq=12
    )


def enc_factory():
    return BertStyleEncoder(enc_config(), rng=seeded_rng(3))


def mlm_batch(rng, vocab=37, bsz=2, seq=10):
    clean = rng.integers(1, vocab, size=(bsz, seq))
    return BertStyleEncoder.apply_masking(clean, rng, mask_token=0)


class TestEncoderNumerics:
    def test_bidirectional_attention(self, rng):
        """Changing a late token must affect early positions (no causality)."""
        model = enc_factory()
        ids, targets, mask = mlm_batch(rng)
        pos = np.broadcast_to(np.arange(ids.shape[1]), ids.shape)
        x1 = model.tok_emb(ids) + model.pos_emb(pos)
        h1 = model.block0(x1)
        ids2 = ids.copy()
        ids2[:, -1] = (ids2[:, -1] + 1) % 37
        x2 = model.tok_emb(ids2) + model.pos_emb(pos)
        h2 = model.block0(x2)
        assert not np.allclose(h1[:, 0], h2[:, 0])

    def test_loss_initially_near_log_vocab(self, rng):
        model = enc_factory()
        loss = model(*mlm_batch(rng))
        assert loss == pytest.approx(np.log(37), rel=0.15)

    def test_loss_only_over_masked_positions(self, rng):
        """Un-masked targets must not influence the loss."""
        model = enc_factory()
        ids, targets, mask = mlm_batch(rng)
        l1 = model(ids, targets, mask)
        corrupted_targets = targets.copy()
        corrupted_targets[~mask] = 1  # scramble only unmasked targets
        l2 = model(ids, corrupted_targets, mask)
        assert l1 == pytest.approx(l2, rel=1e-7)

    def test_gradcheck_spot(self, rng):
        model = enc_factory()
        for _, p in model.named_parameters():
            p.data = p.data.astype(np.float64)
        batch = mlm_batch(rng)
        model(*batch)
        model.backward(1.0)
        params = dict(model.named_parameters())
        for name in ("mlm.proj.weight", "block1.attn.qkv.weight", "tok_emb.weight"):
            p = params[name]
            idx = tuple(rng.integers(0, s) for s in p.data.shape)
            analytic = p.grad[idx]
            eps = 1e-6
            orig = p.data[idx]
            p.data[idx] = orig + eps
            lp = model(*batch)
            p.data[idx] = orig - eps
            lm = model(*batch)
            p.data[idx] = orig
            numeric = (lp - lm) / (2 * eps)
            assert analytic == pytest.approx(numeric, rel=2e-4, abs=1e-7), name

    def test_masking_helper(self, rng):
        clean = rng.integers(1, 37, size=(4, 16))
        corrupted, targets, mask = BertStyleEncoder.apply_masking(
            clean, rng, mask_token=0, mask_prob=0.5
        )
        assert np.array_equal(targets, clean)
        assert np.all(corrupted[mask] == 0)
        assert np.array_equal(corrupted[~mask], clean[~mask])
        assert mask.any()

    def test_training_reduces_loss(self, rng):
        model = enc_factory()
        opt = Adam(model.parameters(), lr=1e-2)
        batch = mlm_batch(rng, bsz=4)
        first = model(*batch)
        for _ in range(20):
            loss = model(*batch)
            model.backward(1.0)
            opt.step()
            opt.zero_grad()
        assert loss < first * 0.6


class TestEncoderUnderZero:
    def test_encoder_matches_ddp_with_nvme(self):
        """The whole engine works on an architecture it never saw —
        no registration, no refactoring (Sec. 5.3)."""
        rngs = spawn_rngs(5, WORLD)
        batches = [mlm_batch(r) for r in rngs]
        ddp = DDPTrainer(enc_factory, WORLD, lr=1e-2)
        ref = ddp.train_step(batches)
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME,
                grad_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
            ),
            loss_scale=1.0,
        )
        with ZeroInfinityEngine(cfg, model_factory=enc_factory, lr=1e-2) as eng:
            result = eng.train_step(batches)
            np.testing.assert_allclose(result.losses, ref, rtol=1e-5)
            state = eng.gather_state()
        for name, refv in ddp_state(ddp).items():
            np.testing.assert_allclose(
                state[name], refv, rtol=1e-3, atol=2e-5, err_msg=name
            )


class LayerDropModel(Module):
    """GPT-like model that skips blocks per a step-dependent pattern —
    dynamic control flow that breaks any fixed operator trace."""

    def __init__(self):
        super().__init__()
        base = TransformerConfig(
            num_layers=3, hidden_dim=16, num_heads=2, vocab_size=32, max_seq=8
        )
        self.inner = GPTModel(base, rng=seeded_rng(4))
        self.step = 0

    def active_blocks(self) -> list[int]:
        # alternate between using all blocks and skipping the middle one
        return [0, 1, 2] if self.step % 2 == 0 else [0, 2]

    def forward(self, ids, targets):
        m = self.inner
        bsz, seq = ids.shape
        pos = np.broadcast_to(np.arange(seq), (bsz, seq))
        x = m.tok_emb(ids) + m.pos_emb(pos)
        self._executed = self.active_blocks()
        for i in self._executed:
            x = m._modules[f"block{i}"](x)
        x = m.ln_f(x)
        return m.head(x, targets)

    def _backward(self, grad_loss):
        m = self.inner
        grad = m.head.backward(grad_loss)
        grad = m.ln_f.backward(grad)
        for i in reversed(self._executed):
            grad = m._modules[f"block{i}"].backward(grad)
        m.pos_emb.backward(grad)
        m.tok_emb.backward(grad)
        return None


class TestDynamicWorkflow:
    def test_prefetcher_survives_changing_graphs(self):
        """Sec. 6.2: 'appropriate prefetching even when the forward and
        backward propagation changes across iterations' — the trace
        invalidates, re-records, and training stays finite and correct."""
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(param_device=OffloadDevice.NVME),
            loss_scale=1.0,
            prefetch_depth=2,
        )
        with ZeroInfinityEngine(
            cfg, model_factory=LayerDropModel, lr=1e-3
        ) as eng:
            rngs = spawn_rngs(9, WORLD)
            losses = []
            for step in range(4):
                eng.model.step = step
                batches = [
                    (r.integers(0, 32, (1, 8)), r.integers(0, 32, (1, 8)))
                    for r in rngs
                ]
                losses.append(eng.train_step(batches).mean_loss)
            assert all(np.isfinite(l) for l in losses)
            assert eng.prefetcher.invalidations > 0  # the graph did change
            assert eng.prefetcher.issued > 0  # and prefetching still ran
