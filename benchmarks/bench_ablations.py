"""Ablation benches for the design choices DESIGN.md calls out.

Beyond the paper's own ablations (Fig. 6c-e), these sweep the tunables our
implementation exposes and record how each moves the needle, functionally
(real engine) and in the performance model:

* prefetch depth (0/1/2/4): NVMe prefetch hit rate in the real engine;
* pinned-buffer budget: unpinned fallbacks vs measured pinned peak, on an
  NVMe stage-3 engine;
* optimizer streaming chunk size: read requests vs measured pinned peak,
  on the same engine;
* gradient reduce bucket capacity (``ZeroConfig.reduce_bucket_numel``):
  reduce collectives per step vs the bucket's bytes and the simulated-GPU
  peak, on a stage-3 engine under memscope — and, with one process per
  rank, the ring exchanges and barrier waits the same capacity costs —
  against DDP's one allreduce per parameter;
* parameter layout (Sec. 6.1): the bytes each rank's host link carries
  under bandwidth-centric partitioning;
* simulator: prefetch-depth proxy via overlap on/off at several hidden
  sizes (the trend Fig. 6d shows for batch size, re-cut by model width).
"""

import pytest

from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.nn import GPTModel, TransformerConfig
from repro.utils import Table
from repro.utils.rng import seeded_rng, spawn_rngs

WORLD = 2
VOCAB = 32


def factory():
    cfg = TransformerConfig(
        num_layers=3, hidden_dim=32, num_heads=4, vocab_size=VOCAB, max_seq=8
    )
    return GPTModel(cfg, rng=seeded_rng(7))


def batches(seed=0, vocab=VOCAB):
    rngs = spawn_rngs(seed, WORLD)
    return [
        (r.integers(0, vocab, (2, 8)), r.integers(0, vocab, (2, 8))) for r in rngs
    ]


def run_prefetch_sweep():
    out = {}
    for depth in (0, 1, 2, 4):
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(param_device=OffloadDevice.NVME),
            prefetch_depth=depth,
            loss_scale=1.0,
        )
        with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
            for step in range(3):
                eng.train_step(batches(step))
            rep = eng.report()
            total = rep.prefetch_hits + rep.prefetch_misses
            out[depth] = {
                "hits": rep.prefetch_hits,
                "misses": rep.prefetch_misses,
                "hit_rate": rep.prefetch_hits / total if total else 0.0,
            }
    return out


def test_ablation_prefetch_depth(benchmark, emit):
    results = benchmark.pedantic(run_prefetch_sweep, rounds=1, iterations=1)
    t = Table(
        ["prefetch depth", "NVMe prefetch hits", "cold misses", "hit rate"],
        title="Ablation — prefetch depth vs NVMe read path (functional engine)",
    )
    for depth, r in sorted(results.items()):
        t.add_row([depth, r["hits"], r["misses"], f"{r['hit_rate']:.0%}"])
    emit("ablation_prefetch_depth", t.render())
    assert results[0]["hits"] == 0  # disabled => every fetch is cold
    assert results[2]["hit_rate"] > 0.5  # the default depth mostly hits
    assert results[4]["hits"] >= results[1]["hits"]


# One 131 k-element embedding (a 65 k shard per rank) over small blocks:
# the chunk sizes below stream it in 16 spans, in 2, and whole.
STREAM_VOCAB = 4096


def run_nvme_engine(**offload):
    """Three steps of an NVMe stage-3 engine; the last one's read requests
    and the run's pinned-pool figures."""
    model_cfg = TransformerConfig(
        num_layers=1, hidden_dim=32, num_heads=4, vocab_size=STREAM_VOCAB, max_seq=8
    )
    nvme = OffloadDevice.NVME
    cfg = ZeroConfig(
        world_size=WORLD,
        stage=ZeroStage.PARAMETERS,
        offload=OffloadConfig(
            param_device=nvme, grad_device=nvme, optimizer_device=nvme, **offload
        ),
        loss_scale=1.0,
    )
    batch = batches(vocab=STREAM_VOCAB)
    with ZeroInfinityEngine(
        cfg, model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(7)), lr=1e-3
    ) as eng:
        for _ in range(2):
            eng.train_step(batch)
        stats = eng.offload.store.engine.stats
        reads_before = stats.read_requests
        eng.train_step(batch)
        rep = eng.report()
        return {
            "read_requests": stats.read_requests - reads_before,
            "pinned_peak": rep.pinned_peak_bytes,
            "pinned_fallbacks": rep.pinned_fallbacks,
            "reuse": eng.offload.pool.stats.reuse_hits,
            "acquisitions": eng.offload.pool.stats.acquisitions,
        }


def run_pinned_budget_sweep():
    return {
        budget: run_nvme_engine(
            pinned_budget_bytes=budget, optimizer_chunk_numel=1 << 15
        )
        for budget in (1 << 18, 1 << 20, 1 << 22, 1 << 24)
    }


def test_ablation_pinned_budget(benchmark, emit):
    results = benchmark.pedantic(run_pinned_budget_sweep, rounds=1, iterations=1)
    t = Table(
        ["budget (B)", "acquisitions", "reuse hits", "unpinned fallbacks",
         "pinned peak (B)"],
        title="Ablation — pinned staging budget (NVMe stage-3 engine, 3 steps)",
    )
    for budget, r in sorted(results.items()):
        t.add_row(
            [budget, r["acquisitions"], r["reuse"], r["pinned_fallbacks"],
             r["pinned_peak"]]
        )
    emit("ablation_pinned_budget", t.render())
    budgets = sorted(results)
    for budget, r in results.items():
        assert r["pinned_peak"] <= budget  # the core invariant (Sec. 6.3)
        assert r["reuse"] > 0  # reuse is what makes small budgets workable
    # a starved pool costs pinning, a roomy one none, and more budget
    # never costs more of it (the pool reuses within a size class, so small
    # prefetches cannot sit in the optimizer's buffers)
    fallbacks = [results[b]["pinned_fallbacks"] for b in budgets]
    assert fallbacks[0] > 0 and fallbacks[-1] == 0
    assert fallbacks == sorted(fallbacks, reverse=True), fallbacks


def run_chunk_size_sweep():
    return {
        chunk: run_nvme_engine(optimizer_chunk_numel=chunk)
        for chunk in (1 << 12, 1 << 15, 1 << 18)
    }


def test_ablation_optimizer_chunk_size(benchmark, emit):
    results = benchmark.pedantic(run_chunk_size_sweep, rounds=1, iterations=1)
    t = Table(
        ["chunk numel", "read requests / step", "pinned peak (B)"],
        title="Ablation — NVMe optimizer streaming chunk size"
        " (NVMe stage-3 engine)",
    )
    for chunk, r in sorted(results.items()):
        t.add_row([chunk, r["read_requests"], r["pinned_peak"]])
    emit("ablation_chunk_size", t.render())
    chunks = sorted(results)
    # smaller chunks => more requests but less pinned staging, measured
    assert results[chunks[0]]["read_requests"] > results[chunks[-1]]["read_requests"]
    assert results[chunks[0]]["pinned_peak"] < results[chunks[-1]]["pinned_peak"]


def run_reduce_bucket_sweep():
    """``ZeroConfig.reduce_bucket_numel`` on the real engine: what a
    capacity buys (fewer reduce collectives) and costs (``world`` fused
    buffers of that many elements on the GPU)."""
    from repro.obs import MemScope, use_memscope

    out = {}
    steps = 2
    for capacity in (1 << 9, 1 << 11, 1 << 13, 1 << 15, 500_000):
        cfg = ZeroConfig(
            world_size=WORLD,
            stage=ZeroStage.PARAMETERS,
            reduce_bucket_numel=capacity,
            loss_scale=1.0,
        )
        with use_memscope(MemScope(enabled=True)) as scope:
            with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
                losses = [eng.train_step(batches(step)).losses for step in range(steps)]
                rep = eng.report()
                out[capacity] = {
                    "collectives": rep.comm_calls_by_op["reduce_scatter"] // steps,
                    "oversized": eng.coordinator.bucket_store.stats.oversized_flushes
                    // steps,
                    "bucket_bytes": scope.breakdown("gpu")["bucket"],
                    "gpu_peak": rep.tier_peak_bytes["gpu"],
                    "losses": losses,
                }

        def rank_process(backend, cfg=cfg):
            with ZeroInfinityEngine(
                cfg, model_factory=factory, lr=1e-3, comm_backend=backend
            ) as eng:
                losses = [eng.train_step(batches(step)).losses for step in range(steps)]
                return losses, backend.transport_stats()

        from repro.comm import run_multiproc

        mp_losses, transport = run_multiproc(WORLD, rank_process, timeout=60.0).results[0]
        out[capacity].update(
            mp_losses=mp_losses,
            exchanges=transport["exchanges"] // steps,
            barrier_waits=transport["barrier_waits"] // steps,
            exchange_bytes=transport["exchange_bytes"] // steps,
        )
    return out


def ddp_reduce_collectives(steps=2):
    """The reference row: the DDP baseline's reduce collectives per step
    on the same model and data, one allreduce per parameter."""
    from repro.baselines.ddp import DDPTrainer

    ddp = DDPTrainer(factory, WORLD, lr=1e-3)
    for step in range(steps):
        ddp.train_step(batches(step))
    return ddp.comm.stats.calls_by_op["allreduce"] // steps


def test_ablation_reduce_bucket(benchmark, emit):
    """The capacity trades collectives for GPU bytes and changes no bit."""
    results = benchmark.pedantic(run_reduce_bucket_sweep, rounds=1, iterations=1)
    ddp = ddp_reduce_collectives()
    t = Table(
        [
            "reduce_bucket_numel",
            "reduce collectives / step",
            "of them oversized",
            "bucket (B)",
            "gpu peak (B)",
            "mp: exchanges / step",
            "mp: barrier waits / step",
            "mp: exchange bytes / step",
        ],
        title="Ablation — gradient reduce bucket capacity"
        " (stage-3 engine, world 2, fp32; mp = one process per rank)",
    )
    capacities = sorted(results)
    for capacity in capacities:
        r = results[capacity]
        t.add_row(
            [
                capacity, r["collectives"], r["oversized"], r["bucket_bytes"],
                r["gpu_peak"], r["exchanges"], r["barrier_waits"],
                r["exchange_bytes"],
            ]
        )
    t.add_row(["DDPTrainer (per-param allreduce)", ddp] + ["-"] * 6)
    emit("ablation_reduce_bucket", t.render())
    collectives = [results[c]["collectives"] for c in capacities]
    assert collectives == sorted(collectives, reverse=True)
    assert collectives[0] > collectives[-1]
    assert collectives[0] < ddp
    for capacity in capacities:
        r = results[capacity]
        # one fused buffer per rank and nothing else
        assert r["bucket_bytes"] == WORLD * capacity * 4
        assert r["losses"] == results[capacities[0]]["losses"]
        # one process per rank: the same bits, one ring exchange per reduce
        # collective plus the step-boundary rendezvous, and every gradient
        # byte published once whatever the capacity
        assert r["mp_losses"] == r["losses"]
        assert r["exchanges"] == r["collectives"] + 1
        assert r["barrier_waits"] >= r["exchanges"]
        assert r["exchange_bytes"] == results[capacities[0]]["exchange_bytes"]
    peaks = [results[c]["gpu_peak"] for c in capacities]
    assert peaks == sorted(peaks)


def run_sharded_links():
    cfg = ZeroConfig(
        world_size=WORLD,
        stage=ZeroStage.PARAMETERS,
        offload=OffloadConfig(
            param_device=OffloadDevice.CPU,
            grad_device=OffloadDevice.CPU,
            optimizer_device=OffloadDevice.CPU,
        ),
        loss_scale=1.0,
    )
    with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
        eng.train_step(batches())
        return dict(eng.report().host_link_bytes)


def test_ablation_bandwidth_centric_links(benchmark, emit):
    """Sec. 6.1 measured functionally: every rank's host link carries the
    same bytes.  ZeRO-Offload's owner layout puts each parameter's bytes on
    its owner's one link; that row is derived (all of the step's bytes
    serialised on one link), not measured or gated."""
    loads = benchmark.pedantic(run_sharded_links, rounds=1, iterations=1)
    total = sum(loads.values())
    t = Table(
        ["layout", "host links used", "max bytes on one link", "total bytes"],
        title="Ablation — bandwidth-centric parameter layout (Sec. 6.1)",
    )
    t.add_row(["sharded/allgather", len(loads), max(loads.values()), total])
    t.add_row(["owner/broadcast (derived)", 1, total, total])
    emit("ablation_bandwidth_centric", t.render())
    assert len(loads) == WORLD
    assert max(loads.values()) == min(loads.values())
