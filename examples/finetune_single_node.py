"""Democratizing large-model fine-tuning on one DGX-2 node (paper Sec. 8.4).

The paper's accessibility story: a single 16-GPU DGX-2 has enough *compute*
to fine-tune GPT-3-class models, but classic data parallelism caps out at
~1.4B parameters of *memory*.  This example:

1. solves, per Table 2 strategy, the largest model one node can hold — the
   Fig. 6a progression ending at 1T with NVMe offload;
2. checks specifically that a GPT-3-sized model (175B) fits under
   ZeRO-Infinity and nothing else on the list;
3. actually runs the fine-tuning loop — functionally, at reduced dimensions
   — with the exact configuration class a 1T run would use: ZeRO-3
   partitioning over 16 ranks, NVMe-resident parameters and optimizer
   state, CPU-offloaded activation checkpoints, tied embeddings, and no
   model parallelism or code refactoring.

Run:  python examples/finetune_single_node.py
"""

import numpy as np

from repro import (
    GPTModel,
    OffloadConfig,
    OffloadDevice,
    Strategy,
    TransformerConfig,
    ZeroConfig,
    ZeroInfinityEngine,
    dgx2_cluster,
)
from repro.core.scale import max_model_size, model_fits
from repro.utils import Table, format_count
from repro.utils.rng import seeded_rng, spawn_rngs


def capacity_survey() -> None:
    cluster = dgx2_cluster(1)
    table = Table(
        ["strategy", "max model on one DGX-2", "GPT-3 (175B) fits?"],
        title="What can a single 16-GPU node fine-tune?",
    )
    for strategy in Strategy:
        kw = {"mp_degree": 4} if strategy is Strategy.THREED else {}
        if strategy in (Strategy.ZERO_INF_CPU, Strategy.ZERO_INF_NVME):
            kw["tile_factor"] = 16
        r = max_model_size(strategy, cluster, bsz_per_gpu=1, **kw)
        fits_gpt3 = model_fits(
            strategy, cluster, int(175e9), bsz_per_gpu=1, **kw
        ).fits
        table.add_row(
            [str(strategy), format_count(r.max_params), "yes" if fits_gpt3 else "no"]
        )
    print(table.render())
    print()


def finetune() -> None:
    # The 1T configuration of Table 1 (1 node, NVMe/NVMe), scaled down in
    # hidden size and depth so the functional engine runs in seconds.  The
    # *code path* is identical at any scale — that is the ease-of-use claim.
    world = 16
    model_cfg = TransformerConfig(
        num_layers=2,
        hidden_dim=64,
        num_heads=4,
        vocab_size=256,
        max_seq=32,
        tie_embeddings=True,
        activation_checkpointing=True,
    )
    zero_cfg = ZeroConfig(
        world_size=world,
        offload=OffloadConfig(
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
            optimizer_chunk_numel=1024,
        ),
        loss_scale=1.0,
    )
    with ZeroInfinityEngine(
        zero_cfg,
        model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(1)),
        lr=2e-3,
    ) as engine:
        # "pretrained" checkpoint = current weights; fine-tune on a small
        # task distribution (shifted token statistics).
        rngs = spawn_rngs(7, world)
        print(f"fine-tuning {engine.model.num_parameters():,} params on {world} ranks")
        eval_rng = seeded_rng(99)
        eval_ids = eval_rng.integers(0, 64, size=(4, 16))  # task uses ids < 64
        eval_tgt = eval_rng.integers(0, 64, size=(4, 16))
        before = engine.evaluate(eval_ids, eval_tgt)
        for step in range(8):
            batches = [
                (r.integers(0, 64, size=(2, 16)), r.integers(0, 64, size=(2, 16)))
                for r in rngs
            ]
            result = engine.train_step(batches)
            print(f"step {step}  task loss {result.mean_loss:.4f}")
        after = engine.evaluate(eval_ids, eval_tgt)
        print(f"\nheld-out task loss: {before:.4f} -> {after:.4f}")
        assert after < before


if __name__ == "__main__":
    capacity_survey()
    finetune()
