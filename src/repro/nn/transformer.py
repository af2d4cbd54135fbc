"""GPT-like transformer: blocks, config, and the full language model.

Matches the architecture the paper analyzes in Sec. 3: each block carries
four linear layers of shapes ``(hd, 3hd)``, ``(hd, hd)``, ``(hd, 4hd)`` and
``(4hd, hd)``, giving ``12 * nl * hd^2`` parameters.  The LM head ties the
embedding weight (GPT-style), which makes it the canonical *external
parameter* (Sec. 7.1.1) the engine must detect and gather across module
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention
from repro.nn.checkpoint import CheckpointedBlock
from repro.nn.layers import Dropout, Embedding, GELU, LayerNorm, Linear
from repro.nn.module import Module
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class TransformerConfig:
    """Model hyperparameters, in the paper's notation (nl, hd, attn_heads)."""

    num_layers: int
    hidden_dim: int
    num_heads: int
    vocab_size: int = 50_257
    max_seq: int = 1024
    dropout: float = 0.0
    tie_embeddings: bool = True
    activation_checkpointing: bool = False

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.hidden_dim <= 0 or self.num_heads <= 0:
            raise ValueError("num_layers, hidden_dim, num_heads must be positive")
        if self.hidden_dim % self.num_heads:
            raise ValueError("hidden_dim must divide evenly among heads")


class MLP(Module):
    """The feed-forward half of a block: ``(hd,4hd) -> GELU -> (4hd,hd)``."""

    def __init__(
        self,
        hidden_dim: int,
        *,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else seeded_rng(0)
        self.fc_in = Linear(hidden_dim, 4 * hidden_dim, rng=rng, dtype=dtype)
        self.act = GELU()
        self.fc_out = Linear(4 * hidden_dim, hidden_dim, rng=rng, dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.fc_out(self.act(self.fc_in(x)))

    def _backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.fc_out.backward(grad)
        grad = self.act.backward(grad)
        return self.fc_in.backward(grad)


class TransformerBlock(Module):
    """Pre-norm block: ``x + attn(ln1(x))`` then ``x + mlp(ln2(x))``."""

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int,
        *,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else seeded_rng(0)
        self.ln1 = LayerNorm(hidden_dim, dtype=dtype)
        self.attn = MultiHeadAttention(hidden_dim, num_heads, rng=rng, dtype=dtype)
        self.drop1 = Dropout(dropout, rng=rng)
        self.ln2 = LayerNorm(hidden_dim, dtype=dtype)
        self.mlp = MLP(hidden_dim, rng=rng, dtype=dtype)
        self.drop2 = Dropout(dropout, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x + self.drop1(self.attn(self.ln1(x)))
        x = x + self.drop2(self.mlp(self.ln2(x)))
        return x

    def _backward(self, grad: np.ndarray) -> np.ndarray:
        # second residual: x2 = x1 + drop2(mlp(ln2(x1)))
        g = self.drop2.backward(grad)
        g = self.mlp.backward(g)
        g = self.ln2.backward(g)
        grad = grad + g
        # first residual: x1 = x0 + drop1(attn(ln1(x0)))
        g = self.drop1.backward(grad)
        g = self.attn.backward(g)
        g = self.ln1.backward(g)
        return grad + g


class CrossEntropyHead(Module):
    """LM head: project to vocab with a (possibly tied) weight, then NLL.

    When ``tied_weight`` is provided the projection reuses the embedding
    table across module boundaries — the external-parameter scenario of
    Sec. 7.1.1.  The tied weight lives in this module's parameter dict under
    the name ``weight`` *as the same object*, so parameter traversal
    deduplicates it while hook-driven engines see the access.
    """

    def __init__(
        self,
        hidden_dim: int,
        vocab_size: int,
        *,
        tied_weight=None,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ) -> None:
        super().__init__()
        from repro.nn.parameter import Parameter, normal_init

        self.hidden_dim = hidden_dim
        self.vocab_size = vocab_size
        if tied_weight is not None:
            if tuple(tied_weight.full_shape) != (vocab_size, hidden_dim):
                raise ValueError(
                    f"tied weight shape {tied_weight.full_shape} != "
                    f"({vocab_size}, {hidden_dim})"
                )
            self.weight = tied_weight  # shared Parameter object
            self.tied = True
        else:
            rng = rng if rng is not None else seeded_rng(0)
            self.weight = Parameter(
                normal_init(rng, (vocab_size, hidden_dim), dtype=dtype)
            )
            self.tied = False

    def forward(self, x: np.ndarray, targets: np.ndarray) -> float:
        w = self.weight  # through the interceptable dict (external-param hook)
        logits, _ = F.linear_fwd(x, w.data, None)
        loss, ce_cache = F.cross_entropy_fwd(logits, targets)
        self._cache = (x, ce_cache)
        return loss

    def _backward(self, grad_loss: float) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("CrossEntropyHead.backward before forward")
        x, ce_cache = self._cache
        grad_logits = F.cross_entropy_bwd(grad_loss, ce_cache)
        # the weight as gathered for this backward, never a forward alias
        w = self.weight
        grad_x, grad_w, _ = F.linear_bwd(
            grad_logits, (x, w.data, False), out=w.grad_out()
        )
        w.accumulate_grad(grad_w)
        self._cache = None
        return grad_x

    def extra_repr(self) -> str:
        return f"hd={self.hidden_dim}, vocab={self.vocab_size}, tied={self.tied}"


class GPTModel(Module):
    """Token + position embeddings, ``nl`` blocks, final norm, LM head.

    ``forward(ids, targets)`` returns the mean cross-entropy loss;
    ``backward(1.0)`` (or the loss scale) accumulates all parameter grads.
    """

    def __init__(
        self,
        config: TransformerConfig,
        *,
        rng: Optional[np.random.Generator] = None,
        dtype=np.float32,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else seeded_rng(0)
        self.config = config
        self.tok_emb = Embedding(config.vocab_size, config.hidden_dim, rng=rng, dtype=dtype)
        self.pos_emb = Embedding(config.max_seq, config.hidden_dim, rng=rng, dtype=dtype)
        self._block_names: list[str] = []
        for i in range(config.num_layers):
            block = TransformerBlock(
                config.hidden_dim,
                config.num_heads,
                dropout=config.dropout,
                rng=rng,
                dtype=dtype,
            )
            if config.activation_checkpointing:
                block = CheckpointedBlock(block)
            name = f"block{i}"
            setattr(self, name, block)
            self._block_names.append(name)
        if config.activation_checkpointing:
            # its backward follows the head's: recomputing it buys no memory
            self.blocks[-1].last = True
        self.ln_f = LayerNorm(config.hidden_dim, dtype=dtype)
        self.head = CrossEntropyHead(
            config.hidden_dim,
            config.vocab_size,
            tied_weight=self.tok_emb._parameters["weight"]
            if config.tie_embeddings
            else None,
            rng=rng,
            dtype=dtype,
        )
        self.name_parameters()

    @property
    def blocks(self) -> list[Module]:
        return [self._modules[n] for n in self._block_names]

    def forward(self, ids: np.ndarray, targets: np.ndarray) -> float:
        if ids.ndim != 2:
            raise ValueError(f"ids must be [bsz, seq], got shape {ids.shape}")
        bsz, seq = ids.shape
        if seq > self.config.max_seq:
            raise ValueError(f"sequence length {seq} exceeds max {self.config.max_seq}")
        pos = np.broadcast_to(np.arange(seq), (bsz, seq))
        x = self.tok_emb(ids) + self.pos_emb(pos)
        for name in self._block_names:
            x = self._modules[name](x)
        x = self.ln_f(x)
        return self.head(x, targets)

    def _backward(self, grad_loss: float) -> None:
        grad = self.head.backward(grad_loss)
        grad = self.ln_f.backward(grad)
        for name in reversed(self._block_names):
            grad = self._modules[name].backward(grad)
        self.pos_emb.backward(grad)
        self.tok_emb.backward(grad)
        return None
