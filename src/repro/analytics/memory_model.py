"""Memory requirements for large-model training (Sec. 3).

Implements Eqs. (1)-(5) exactly as stated:

* Eq. (1): transformer parameter count ``12 * nl * hd^2``;
* Eq. (2): model-state bytes ``240 * nl * hd^2`` (20 bytes/param under
  mixed-precision Adam);
* Eq. (3): activation-checkpoint bytes ``2 * bsz * seq * hd * nl / ci``;
* Eq. (4): model-state working memory ``4 * hd * 4hd`` bytes — the fp16
  parameter + gradient of the largest ``(hd, 4hd)`` linear;
* Eq. (5): activation working memory
  ``bsz * seq * ci * (16 hd + 2 attn_heads * seq)`` bytes.

:func:`memory_requirements` bundles them per model configuration and is what
the Fig. 2a bench tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tensor.dtypes import BYTES_PER_PARAM_TOTAL
from repro.utils.units import TB


def transformer_params(num_layers: int, hidden_dim: int) -> int:
    """Eq. (1): approximate parameter count of a GPT-like transformer."""
    if num_layers <= 0 or hidden_dim <= 0:
        raise ValueError("num_layers and hidden_dim must be positive")
    return 12 * num_layers * hidden_dim**2


def layers_for_params(total_params: int, hidden_dim: int) -> int:
    """Invert Eq. (1): layers needed to reach ``total_params`` at ``hd``."""
    if total_params <= 0 or hidden_dim <= 0:
        raise ValueError("total_params and hidden_dim must be positive")
    return max(1, round(total_params / (12 * hidden_dim**2)))


def model_states_bytes(params: int) -> int:
    """Eq. (2): 20 bytes per parameter (fp16 p+g, fp32 Adam state)."""
    if params < 0:
        raise ValueError("params must be non-negative")
    return BYTES_PER_PARAM_TOTAL * params


def activation_checkpoint_bytes(
    *, bsz: int, seq: int, hidden_dim: int, num_layers: int, ci: int = 1
) -> int:
    """Eq. (3): fp16 checkpoints, one per ``ci`` transformer blocks."""
    if ci <= 0:
        raise ValueError("ci must be positive")
    return 2 * bsz * seq * hidden_dim * num_layers // ci


def checkpoint_batch_ceiling(
    hidden_dim: int, num_layers: int, *, ci: int = 1
) -> float:
    """Largest per-GPU batch whose activation checkpoints fit CPU memory.

    Sec. 8.2's bound: Eq. (3) at sequence 1024 inverted against one DGX-2
    node — 1.5 TB of CPU memory, 20 % held back for pinned buffers and
    offload staging, shared by its 16 GPUs.
    """
    per_gpu_batch = activation_checkpoint_bytes(
        bsz=16, seq=1024, hidden_dim=hidden_dim, num_layers=num_layers, ci=ci
    )
    return 0.8 * 1.5 * TB / per_gpu_batch


def full_activation_bytes(
    *, bsz: int, seq: int, hidden_dim: int, num_layers: int, attn_heads: int
) -> int:
    """All intermediate activations (no checkpointing): Eq. (5) x nl blocks.

    This is the "Act." column of Fig. 2a — the memory checkpointing saves.
    """
    return num_layers * awm_bytes(
        bsz=bsz, seq=seq, hidden_dim=hidden_dim, attn_heads=attn_heads, ci=1
    )


def mswm_bytes(hidden_dim: int) -> int:
    """Eq. (4): fp16 parameter+gradient of the largest (hd, 4hd) linear."""
    if hidden_dim <= 0:
        raise ValueError("hidden_dim must be positive")
    return 4 * hidden_dim * 4 * hidden_dim


def awm_bytes(
    *, bsz: int, seq: int, hidden_dim: int, attn_heads: int, ci: int = 1
) -> int:
    """Eq. (5): activations between two consecutive checkpoints."""
    if bsz <= 0 or seq <= 0 or hidden_dim <= 0 or attn_heads <= 0 or ci <= 0:
        raise ValueError("all dimensions must be positive")
    return bsz * seq * ci * (16 * hidden_dim + 2 * attn_heads * seq)


@dataclass(frozen=True)
class MemoryRequirements:
    """All Sec.-3 quantities for one model/workload configuration."""

    params: int
    model_states: int  # bytes, total across the cluster
    activation_checkpoints: int  # bytes per node (checkpointed)
    full_activations: int  # bytes per node (no checkpointing)
    mswm: int  # bytes per GPU
    awm: int  # bytes per GPU


def memory_requirements(
    *,
    num_layers: int,
    hidden_dim: int,
    attn_heads: int,
    bsz_per_node: int = 32,
    bsz_per_gpu: int = 4,
    seq: int = 1024,
    ci: int = 1,
) -> MemoryRequirements:
    """Sec. 3 profile using the paper's Fig. 2a workload defaults.

    Fig. 2a uses batch 32 per node for the activation columns (2 per GPU on
    16 GPUs, conservative) and a per-GPU batch for the working-memory
    columns.
    """
    params = transformer_params(num_layers, hidden_dim)
    return MemoryRequirements(
        params=params,
        model_states=model_states_bytes(params),
        activation_checkpoints=activation_checkpoint_bytes(
            bsz=bsz_per_node,
            seq=seq,
            hidden_dim=hidden_dim,
            num_layers=num_layers,
            ci=ci,
        ),
        full_activations=full_activation_bytes(
            bsz=bsz_per_node,
            seq=seq,
            hidden_dim=hidden_dim,
            num_layers=num_layers,
            attn_heads=attn_heads,
        ),
        mswm=mswm_bytes(hidden_dim),
        awm=awm_bytes(
            bsz=bsz_per_gpu,
            seq=seq,
            hidden_dim=hidden_dim,
            attn_heads=attn_heads,
            ci=ci,
        ),
    )
