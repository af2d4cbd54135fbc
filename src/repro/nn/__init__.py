"""Miniature deep-learning framework (the PyTorch substitute).

ZeRO-Infinity's ease-inspired implementation (Sec. 7) is built on three
PyTorch extension points: a module hierarchy with per-submodule
forward/backward hooks, a parameter hash table that can be subclassed to
intercept accesses, and wrappable module constructors.  This package
provides the same extension points over numpy:

* :class:`~repro.nn.module.Module` — hierarchy, hook registration, and a
  module-structured backward pass;
* :class:`~repro.nn.parameter.Parameter` — named tensors with gradients and
  a partition-state slot the ZeRO engine attaches to;
* :mod:`~repro.nn.functional` — forward *and* backward kernels for the
  transformer operator set, gradient-checked in the tests;
* layers (Linear, LayerNorm, Embedding, Dropout, MultiHeadAttention, MLP,
  TransformerBlock, GPTModel) sized per the paper's architecture analysis
  (the four linears of Sec. 3);
* :mod:`~repro.nn.checkpoint` — activation checkpointing with optional CPU
  offload of checkpoints (Sec. 5.1.2);
* :mod:`~repro.nn.init_context` — partition-parameters-at-construction
  (Sec. 7.2).
"""

from repro.nn.parameter import Parameter, ParameterDict
from repro.nn.module import Module
from repro.nn.layers import Dropout, Embedding, GELU, LayerNorm, Linear
from repro.nn.attention import MultiHeadAttention
from repro.nn.transformer import (
    MLP,
    TransformerBlock,
    TransformerConfig,
    GPTModel,
    CrossEntropyHead,
)
from repro.nn.checkpoint import CheckpointedBlock
from repro.nn.init_context import PartitionedInitContext, module_init_interceptor

__all__ = [
    "Parameter",
    "ParameterDict",
    "Module",
    "Dropout",
    "Embedding",
    "GELU",
    "LayerNorm",
    "Linear",
    "MultiHeadAttention",
    "MLP",
    "TransformerBlock",
    "TransformerConfig",
    "GPTModel",
    "CrossEntropyHead",
    "CheckpointedBlock",
    "PartitionedInitContext",
    "module_init_interceptor",
]
