"""Fused flat-buffer ZeRO-1/2: the bucketed stage-1/2 implementation.

The ZeRO paper's stage 1/2 implementation (and DeepSpeed's) does not shard
each parameter individually: it flattens *all* gradients into one
contiguous buffer, reduce-scatters the whole buffer in a single (bucketed)
collective, updates each rank's flat slice with a fused Adam, and
allgathers the updated fp16 values back — two collectives per step
regardless of parameter count, instead of one per tensor.

:class:`FusedZeroTrainer` realises that design over the functional layer:
``world_size`` model replicas (parameters replicated, as in stages 1/2),
a single fp32 master/momentum/variance flat buffer partitioned by slice,
and comm-stats that make the collective-count win measurable against
:class:`~repro.baselines.ddp.DDPTrainer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.comm.group import ProcessGroup
from repro.nn.module import Module
from repro.optim.adam import adam_step
from repro.tensor.flat import pad_to_multiple


@dataclass
class FusedLayout:
    """Where each parameter lives inside the fused flat buffer."""

    names: list[str]
    shapes: list[tuple[int, ...]]
    offsets: list[int]
    total_numel: int
    padded_numel: int

    @staticmethod
    def build(named_params: Sequence[tuple[str, object]], world: int) -> "FusedLayout":
        names, shapes, offsets = [], [], []
        off = 0
        for name, p in named_params:
            names.append(name)
            shapes.append(tuple(p.data.shape))
            offsets.append(off)
            off += int(p.data.size)
        return FusedLayout(
            names=names,
            shapes=shapes,
            offsets=offsets,
            total_numel=off,
            padded_numel=pad_to_multiple(max(off, 1), world),
        )

    def slices(self):
        for name, shape, off in zip(self.names, self.shapes, self.offsets):
            n = int(np.prod(shape, dtype=np.int64)) if shape else 1
            yield name, shape, slice(off, off + n)


class FusedZeroTrainer:
    """Stage-1/2 training: replicated params, partitioned fused optimizer.

    ``bucket_numel`` splits the single reduce-scatter into fixed-size
    bucket collectives (DeepSpeed's ``reduce_bucket_size``) so reduction of
    early buckets could overlap late backward in a real runtime; the
    functional effect here is the collective count:
    ``ceil(padded/bucket)`` reduce-scatters + 1 allgather per step.
    """

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
        bucket_numel: int = 1 << 20,
    ) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        if bucket_numel <= 0:
            raise ValueError("bucket_numel must be positive")
        self.world = world_size
        self.comm = ProcessGroup(world_size)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.bucket_numel = bucket_numel

        self.replicas = [model_factory() for _ in range(world_size)]
        ref = self.replicas[0]
        for replica in self.replicas[1:]:
            for p, r in zip(replica.parameters(), ref.parameters()):
                p.data = r.data.copy()
        self.layout = FusedLayout.build(list(ref.named_parameters()), world_size)
        if self.layout.padded_numel % world_size:
            raise AssertionError("padding invariant violated")

        # fp32 fused state, partitioned: rank r owns flat[r*shard:(r+1)*shard]
        self.shard_numel = self.layout.padded_numel // world_size
        master = np.zeros(self.layout.padded_numel, dtype=np.float32)
        params = dict(ref.named_parameters())
        for name, shape, sl in self.layout.slices():
            master[sl] = params[name].data.reshape(-1).astype(np.float32)
        self.master = master
        self.exp_avg = np.zeros_like(master)
        self.exp_avg_sq = np.zeros_like(master)
        # the updated values as the allgather sends them: written by the
        # Adam kernel tile by tile, sliced per rank without a copy
        self._updated = np.empty_like(master)
        self.step_count = 0

    # --- helpers --------------------------------------------------------------
    def _flatten_grads(self, replica: Module) -> np.ndarray:
        flat = np.zeros(self.layout.padded_numel, dtype=np.float32)
        params = dict(replica.named_parameters())
        for name, shape, sl in self.layout.slices():
            g = params[name].grad
            if g is None:
                raise RuntimeError(f"parameter {name} has no gradient")
            flat[sl] = g.reshape(-1).astype(np.float32)
        return flat

    def _scatter_params(self, updated_flat: np.ndarray) -> None:
        for replica in self.replicas:
            params = dict(replica.named_parameters())
            for name, shape, sl in self.layout.slices():
                p = params[name]
                p.data = (
                    updated_flat[sl].reshape(shape).astype(p.data.dtype)
                )
                p.grad = None

    # --- the step -------------------------------------------------------------
    def train_step(self, batches: Sequence[tuple[np.ndarray, ...]]) -> list[float]:
        if len(batches) != self.world:
            raise ValueError(f"got {len(batches)} batches for world {self.world}")
        losses = []
        for replica, batch in zip(self.replicas, batches):
            loss = replica(*batch)
            replica.backward(1.0)
            losses.append(float(loss))

        # one fused, bucketed reduce-scatter over ALL gradients.  Each
        # bucket is partitioned rank-wise within itself (the owner of a
        # bucket slice runs its fused Adam there), so ownership is per
        # bucket region rather than one global slice — exactly how
        # bucketed stage-1/2 reducers assign work.
        flats = [self._flatten_grads(r) for r in self.replicas]
        n = self.layout.padded_numel
        bucket = pad_to_multiple(min(self.bucket_numel, n), self.world)
        for lo in range(0, n, bucket):
            hi = min(lo + bucket, n)
            pieces = self.comm.reduce_scatter(
                [f[lo:hi] for f in flats], op="mean"
            )
            piece_len = (hi - lo) // self.world
            for rank, piece in enumerate(pieces):
                sl = slice(lo + rank * piece_len, lo + (rank + 1) * piece_len)
                adam_step(
                    self.master[sl],
                    piece,
                    self.exp_avg[sl],
                    self.exp_avg_sq[sl],
                    step=self.step_count + 1,
                    lr=self.lr,
                    beta1=self.beta1,
                    beta2=self.beta2,
                    eps=self.eps,
                    weight_decay=self.weight_decay,
                    param_out=self._updated[sl],
                )
        self.step_count += 1

        # one fused allgather of the updated values back to every replica
        shards = [
            self._updated[r * self.shard_numel : (r + 1) * self.shard_numel]
            for r in range(self.world)
        ]
        updated = self.comm.allgather(shards)[0]
        self._scatter_params(updated)
        return losses

    def state_dict(self, rank: int = 0) -> dict[str, np.ndarray]:
        return {
            name: p.data.copy()
            for name, p in self.replicas[rank].named_parameters()
        }

    @property
    def collective_calls_per_step(self) -> float:
        """Observed collectives per completed step (from comm stats)."""
        if self.step_count == 0:
            return 0.0
        return self.comm.stats.total_calls / self.step_count
