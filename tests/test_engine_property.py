"""Property-based integration tests: ZeRO ≡ DDP over random configurations.

Hypothesis draws model shapes, world sizes, and placements; for each, a
short training run under the ZeRO engine must match the DDP oracle.  This
is the broadest net for partition-arithmetic bugs (padding, uneven shards,
head divisibility) that fixed-shape tests can miss.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.ddp import DDPTrainer
from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.core.zero_optimizer import ZeroPartitionedAdam
from repro.nn import GPTModel, TransformerConfig
from repro.utils.rng import seeded_rng, spawn_rngs
from tests.helpers import ddp_state

placements = st.sampled_from(
    [
        (ZeroStage.PARAMETERS, OffloadDevice.NONE),
        (ZeroStage.PARAMETERS, OffloadDevice.CPU),
        (ZeroStage.PARAMETERS, OffloadDevice.NVME),
        (ZeroStage.GRADIENTS, OffloadDevice.NONE),
    ]
)


@given(
    world=st.integers(1, 5),
    num_layers=st.integers(1, 2),
    heads=st.sampled_from([1, 2, 3]),
    head_dim=st.sampled_from([4, 8]),
    vocab=st.integers(17, 40),
    seq=st.integers(2, 9),
    placement=placements,
    seed=st.integers(0, 10_000),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_zero_matches_ddp_property(
    world, num_layers, heads, head_dim, vocab, seq, placement, seed
):
    stage, device = placement
    hidden = heads * head_dim
    model_cfg = TransformerConfig(
        num_layers=num_layers,
        hidden_dim=hidden,
        num_heads=heads,
        vocab_size=vocab,
        max_seq=max(seq, 2),
    )

    def factory():
        return GPTModel(model_cfg, rng=seeded_rng(seed))

    rngs = spawn_rngs(seed + 1, world)
    batches = [
        (r.integers(0, vocab, (1, seq)), r.integers(0, vocab, (1, seq)))
        for r in rngs
    ]

    ddp = DDPTrainer(factory, world, lr=1e-2)
    ref_losses = ddp.train_step(batches)
    ref_state = ddp_state(ddp)

    cfg = ZeroConfig(
        world_size=world,
        stage=stage,
        offload=OffloadConfig(
            param_device=device if stage >= ZeroStage.PARAMETERS else OffloadDevice.NONE,
            grad_device=device if stage >= ZeroStage.GRADIENTS else OffloadDevice.NONE,
            optimizer_device=device,
            optimizer_chunk_numel=61,  # prime, to stress chunk remainders
        ),
        loss_scale=1.0,
    )
    with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-2) as eng:
        result = eng.train_step(batches)
        state = eng.gather_state()

    np.testing.assert_allclose(
        result.losses, ref_losses, rtol=1e-5, err_msg="losses diverged"
    )
    for name, ref in ref_state.items():
        np.testing.assert_allclose(
            state[name], ref, rtol=1e-3, atol=2e-5, err_msg=name
        )


@given(
    numel=st.integers(1, 300),
    world=st.integers(1, 6),
    chunk=st.integers(1, 64),
)
@settings(max_examples=20, deadline=None)
def test_chunked_nvme_adam_matches_resident_property(numel, world, chunk):
    """The streamed NVMe optimizer path == the in-memory path, for any
    shard size / chunk size combination (including chunk > shard)."""
    from repro.comm.group import ProcessGroup
    from repro.core.offload import InfinityOffloadEngine
    from repro.core.partition import ParameterPartitioner
    from repro.nn.parameter import Parameter

    rng = seeded_rng(numel * 31 + world * 7 + chunk)
    values = rng.standard_normal(numel).astype(np.float32)
    grad = rng.standard_normal(numel).astype(np.float32)

    def run(device, chunk_numel):
        cfg = ZeroConfig(
            world_size=world,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=OffloadDevice.NONE,
                optimizer_device=device,
                optimizer_chunk_numel=chunk_numel,
            ),
            loss_scale=1.0,
        )
        offload = InfinityOffloadEngine(cfg.offload)
        comm = ProcessGroup(world)
        part = ParameterPartitioner(world, offload=offload, comm=comm)
        p = Parameter(values.copy().reshape(numel))
        group = part.partition([p])
        # stage the reduced gradient shards the coordinator would produce
        from repro.tensor.flat import pad_to_multiple

        padded = pad_to_multiple(numel, world)
        flat = np.zeros(padded, dtype=np.float32)
        flat[:numel] = grad
        shard = padded // world
        for rank in range(world):
            offload.stash(
                group.key(rank, "grad16"),
                flat[rank * shard : (rank + 1) * shard],
                cfg.offload.grad_device,
                rank=rank,
            )
        opt = ZeroPartitionedAdam(
            [group], cfg, partitioner=part, offload=offload, comm=comm, lr=1e-2
        )
        opt.step()
        part.gather(p)
        out = p.data.copy()
        offload.close()
        return out

    resident = run(OffloadDevice.CPU, 1 << 20)
    streamed = run(OffloadDevice.NVME, chunk)
    np.testing.assert_allclose(streamed, resident, rtol=1e-6, atol=1e-7)
