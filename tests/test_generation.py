"""Greedy generation under partitioned (ZeRO-3) weights.

Inference through the partitioned model is where the Sec. 7.1.1 access
interception earns its keep: ``head.project`` touches the tied weight
outside any hook-covered forward, and the intercepting parameter dict
gathers it on touch.
"""

import numpy as np

from repro.core import OffloadConfig, OffloadDevice, ZeroConfig, ZeroInfinityEngine
from repro.nn import GPTModel, TransformerConfig
from repro.nn.parameter import PartitionState
from repro.utils.rng import seeded_rng, spawn_rngs
from tests.helpers import lm_logits

VOCAB = 32


def factory():
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=16, num_heads=2, vocab_size=VOCAB, max_seq=8
    )
    return GPTModel(cfg, rng=seeded_rng(3))


def greedy(model, prompt, n):
    """Append ``n`` argmax tokens to ``prompt``, one ``lm_logits`` call each."""
    ids = prompt
    for _ in range(n):
        nxt = lm_logits(model, ids)[:, -1].argmax(axis=-1)
        ids = np.concatenate([ids, nxt[:, None]], axis=1)
    return ids


def nvme_config():
    return ZeroConfig(
        world_size=2,
        offload=OffloadConfig(param_device=OffloadDevice.NVME),
        loss_scale=1.0,
    )


class TestGenerateUnderZero:
    def test_partitioned_model_generates_identically(self, rng):
        """Generation through the ZeRO engine (NVMe-resident weights)
        matches the plain model bit for bit — interception gathers the
        tied head weight on touch."""
        prompt = rng.integers(0, VOCAB, (2, 3))
        plain = factory()
        with ZeroInfinityEngine(nvme_config(), model_factory=factory) as eng:
            assert all(
                p.state is PartitionState.PARTITIONED
                for p in eng.model.parameters()
            )
            np.testing.assert_array_equal(
                lm_logits(eng.model, prompt), lm_logits(plain, prompt)
            )
            out = greedy(eng.model, prompt, 5)
        np.testing.assert_array_equal(out, greedy(plain, prompt, 5))

    def test_finetune_then_generate(self, rng):
        """The end-user loop: train under ZeRO, then generate from it; the
        trained partitioned model decodes exactly as a plain model loaded
        with the gathered weights."""
        with ZeroInfinityEngine(nvme_config(), model_factory=factory, lr=1e-2) as eng:
            rngs = spawn_rngs(4, 2)
            for _ in range(3):
                batches = [
                    (r.integers(0, VOCAB, (2, 8)), r.integers(0, VOCAB, (2, 8)))
                    for r in rngs
                ]
                eng.train_step(batches)
            prompt = rng.integers(0, VOCAB, (1, 3))
            trained = lm_logits(eng.model, prompt)
            out = greedy(eng.model, prompt, 4)
            state = eng.gather_state()
        assert out.shape == (1, 7)
        assert np.all((out >= 0) & (out < VOCAB))
        plain = factory()
        for name, p in plain.named_parameters():
            p.data[...] = state[name]
        np.testing.assert_array_equal(trained, lm_logits(plain, prompt))
        np.testing.assert_array_equal(out, greedy(plain, prompt, 4))
