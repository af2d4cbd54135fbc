"""Figure 4, narrated by the real engine.

The paper's Fig. 4 snapshot: "ZeRO-Infinity training a model with two
layers on four data parallel ranks. ... Partitioned parameters are moved
from slow memory to GPU and then collected to form the full layer. After
gradients are computed, they are aggregated, repartitioned, and then
offloaded to slow memory."

This example builds exactly that configuration — two transformer layers,
four ranks, NVMe-resident parameters — instruments the partitioner and
coordinator, runs one training step, and prints the observed event
timeline for the backward pass of layer 0 (the pass the figure depicts).

Run:  python examples/fig4_walkthrough.py
"""

from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.nn import GPTModel, TransformerConfig
from repro.utils.rng import seeded_rng, spawn_rngs

WORLD = 4


class EventRecorder:
    """Wraps partitioner/coordinator methods to log the data-plane events,
    one per parameter group (a module's parameters, laid out flat)."""

    def __init__(self, engine: ZeroInfinityEngine) -> None:
        self.events: list[str] = []
        self.engine = engine
        part = engine.partitioner
        coord = engine.coordinator
        offload = engine.offload

        orig_gather = part.gather_coalesced

        def gather_coalesced(groups):
            for g in groups:
                if g.flat is None:
                    self.events.append(
                        f"fetch+allgather  {g.name:28s}"
                        f" ({g.numel} elems from {WORLD} shards)"
                    )
            return orig_gather(groups)

        part.gather_coalesced = gather_coalesced  # type: ignore[method-assign]

        orig_release = part.release

        def release(group):
            if group.flat is not None:
                self.events.append(f"release          {group.name:28s} (re-partitioned)")
            return orig_release(group)

        part.release = release  # type: ignore[method-assign]

        orig_reduce = coord._reduce_and_stash

        def reduce_and_stash(group, grads):
            self.events.append(
                f"reduce-scatter   {group.name:28s}"
                f" -> {WORLD} grad shards -> "
                f"{self.engine.config.offload.grad_device.value}"
            )
            return orig_reduce(group, grads)

        coord._reduce_and_stash = reduce_and_stash  # type: ignore[method-assign]

        orig_prefetch = offload.prefetch

        def prefetch(key, *, rank):
            started = orig_prefetch(key, rank=rank)
            if started:
                self.events.append(f"nc-prefetch      {key} (async NVMe read)")
            return started

        offload.prefetch = prefetch  # type: ignore[method-assign]


def main() -> None:
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=32, num_heads=4, vocab_size=64, max_seq=8
    )
    zcfg = ZeroConfig(
        world_size=WORLD,
        stage=ZeroStage.PARAMETERS,
        offload=OffloadConfig(
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
        ),
        loss_scale=1.0,
    )
    with ZeroInfinityEngine(
        zcfg, model_factory=lambda: GPTModel(cfg, rng=seeded_rng(0)), lr=1e-3
    ) as engine:
        rngs = spawn_rngs(1, WORLD)
        batches = [
            (r.integers(0, 64, (1, 8)), r.integers(0, 64, (1, 8))) for r in rngs
        ]
        engine.train_step(batches)  # records the trace; prefetching arms
        rec = EventRecorder(engine)
        engine.train_step(batches)

        print("Fig. 4 configuration: 2 layers, 4 DP ranks, NVMe offload\n")
        print("event timeline for rank 0's backward through layer 0")
        print("(the slice of the step Fig. 4 illustrates):\n")
        in_bwd0 = False
        shown = 0
        for ev in rec.events:
            if "block0" in ev and ("fetch" in ev or "prefetch" in ev):
                in_bwd0 = True
            if in_bwd0 and shown < 14:
                print("  " + ev)
                shown += 1
        print(
            f"\n(total events in the step: {len(rec.events)} —"
            " every layer repeats this fetch/compute/release/reduce cycle)"
        )


if __name__ == "__main__":
    main()
