"""Megatron-LM tensor slicing (the model-parallel baseline, Sec. 2).

The per-block communication cost model used by the 3D-parallelism baseline.
In Megatron's scheme a transformer block's MLP is

    Y = RowParallel(W2) @ gelu( ColumnParallel(W1) @ X )

where the column-parallel layer splits output features across ``mp`` ranks
(no communication in forward; allreduce of the input gradient in backward)
and the row-parallel layer splits input features (allreduce of the output in
forward; none in backward).  Each block therefore performs two activation
allreduces in forward and two in backward — the ``4 * bsz*seq*hd`` volume
:func:`megatron_comm_bytes_per_block` charges.
"""

from __future__ import annotations


def megatron_comm_bytes_per_block(*, bsz: int, seq: int, hidden_dim: int) -> int:
    """Activation allreduce volume per transformer block per direction.

    Two allreduces in forward (attention g + MLP g) and two in backward,
    each over a fp16 ``[bsz, seq, hd]`` activation: 4 allreduces/block/
    iteration direction pair; this returns the bytes for the 2 forward
    allreduces (double it for a full fwd+bwd).
    """
    return 2 * bsz * seq * hidden_dim * 2
