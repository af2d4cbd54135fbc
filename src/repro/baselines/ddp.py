"""Classic data-parallel training (the torch-DDP baseline, Sec. 8.1).

``DDPTrainer`` keeps a full model replica per simulated rank, feeds each its
own microbatch, allreduces (averages) gradients and applies an identical
fp32-master Adam step on every replica — the memory-redundant layout ZeRO
removes.  It is both a Fig. 6a scale baseline and the numerical oracle the
ZeRO engine equivalence tests train against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.comm.group import ProcessGroup
from repro.nn.module import Module
from repro.optim.adam import Adam


class DDPTrainer:
    """N identically initialised replicas with averaged gradients."""

    def __init__(
        self,
        model_factory: Callable[[], Module],
        world_size: int,
        *,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        self.world_size = world_size
        self.comm = ProcessGroup(world_size)
        # Each factory call must produce identical weights (same seed), as
        # torch-DDP guarantees by broadcasting rank 0's weights.
        self.replicas = [model_factory() for _ in range(world_size)]
        ref = [p.data for p in self.replicas[0].parameters()]
        for replica in self.replicas[1:]:
            for p, r in zip(replica.parameters(), ref):
                if p.data.shape != r.shape:
                    raise ValueError(
                        "model_factory produced replicas with different shapes"
                    )
                p.data = r.copy()  # enforce identical init
        self.optimizers = [
            Adam(
                m.parameters(),
                lr=lr,
                beta1=beta1,
                beta2=beta2,
                eps=eps,
                weight_decay=weight_decay,
            )
            for m in self.replicas
        ]

    def train_step(
        self, batches: Sequence[tuple[np.ndarray, ...]]
    ) -> list[float]:
        """One step: per-rank fwd/bwd, gradient allreduce (mean), Adam.

        Each batch is an argument tuple for the model's forward — two
        entries for LM (ids, targets), three for MLM (ids, targets, mask).
        """
        if len(batches) != self.world_size:
            raise ValueError(
                f"got {len(batches)} batches for world {self.world_size}"
            )
        losses = []
        for model, batch in zip(self.replicas, batches):
            loss = model(*batch)
            model.backward(1.0)
            losses.append(float(loss))
        # allreduce gradients parameter-by-parameter across replicas
        param_lists = [m.parameters() for m in self.replicas]
        for group in zip(*param_lists):
            grads = [p.grad for p in group]
            if any(g is None for g in grads):
                if all(g is None for g in grads):
                    continue
                raise RuntimeError("inconsistent gradient availability across ranks")
            reduced = self.comm.allreduce(grads, op="mean")
            for p, g in zip(group, reduced):
                p.grad = g
        for opt in self.optimizers:
            opt.step()
            opt.zero_grad()
        return losses

