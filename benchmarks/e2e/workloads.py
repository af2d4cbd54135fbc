"""The four benchmark workloads: shapes, the reason for each, engine and data
builders, and where the NVMe spool lives.

Everything goes through the public API with default knobs: the only
``ZeroConfig``/``OffloadConfig`` fields set here are ``world_size``,
``stage``, the three offload devices, ``nvme_dir`` and ``loss_scale=1.0``.
Importing this module imports neither numpy nor repro, so ``run.py`` can
read the shapes without paying (or perturbing) the set-up it measures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: ranks per workload = cores on the reference box, so ``mp_z3`` can run
#: one rank process per core without oversubscription
WORLD = 2
#: untimed steps before the clock starts: lets the prefetcher adopt its
#: trace, the pinned pool and gather staging buffers reach steady state
WARMUP_STEPS = 5
#: loss prefix compared bit-for-bit against the data-parallel baseline
CHECK_LOSSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, copied into BENCHMARK.json
    stage: int
    offload: str  # "gpu" | "cpu" | "nvme" for grads+optimizer (+params at stage 3)
    backend: str  # "loop" | "mp"
    hidden: int
    layers: int
    seq: int
    bsz_per_rank: int
    vocab: int

    @property
    def tokens_per_step(self) -> int:
        return WORLD * self.bsz_per_rank * self.seq


# Shapes are sized so one step costs 50-250 ms on the 2-core reference box:
# the driver allows ~37 s per run including three set-ups, and a run needs
# well over 50 timed steps for a steady median.  The issue's original shapes
# (0.25-0.5 s per step) were shrunk along the axes that do not change which
# layer dominates.
_DENSE = dict(hidden=128, layers=2, seq=32, bsz_per_rank=4, vocab=128)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # No offload tier at all: nn kernels, collectives, partition
        # gather/release and bucketing do nearly all the work and nvme does
        # none, so this is the bypass workload for every I/O change.
        Workload(
            "dense_z3",
            "stage 3, no offload, loop backend: nn kernels, collectives and"
            " gather/release dominate; bypass workload for every I/O change",
            stage=3, offload="gpu", backend="loop", **_DENSE,
        ),
        # vocab 16896 x hidden 128 tied embedding = 2.16 M elements, so the
        # per-rank shard (1.08 M) exceeds the default 1 M
        # optimizer_chunk_numel and the chunked optimizer pipeline is on the
        # measured path.  One layer, 8 tokens per rank: nn is the minority
        # of the step and reads outnumber writes ~2:1.
        Workload(
            "nvme_z3",
            "stage 3, params+grads+optimizer on NVMe, loop backend: store,"
            " aio, pinned pool, offload routing, prefetch, chunked optimizer",
            stage=3, offload="nvme", backend="loop",
            hidden=128, layers=1, seq=8, bsz_per_rank=1, vocab=16896,
        ),
        # The ZeRO-Offload row of Table 2.  Same offload/optimizer/bucket
        # layers as nvme_z3 used the other way round: no parameter reads,
        # gradient writes into the CPU tier and a resident unchunked Adam.
        # 3.2 M parameters against 8 tokens per step keep nn under a quarter
        # of the step, so optimizer + offload + bucket/reduce (~70 %) show.
        Workload(
            "offload_z2_cpu",
            "stage 2, grads+optimizer on CPU, loop backend: gradient stash,"
            " bucket reduce and resident Adam dominate; no parameter reads",
            stage=2, offload="cpu", backend="loop",
            hidden=512, layers=1, seq=4, bsz_per_rank=1, vocab=128,
        ),
        # Identical model, data and seed to dense_z3; only the backend
        # differs, so tokens_per_s(mp_z3) / tokens_per_s(dense_z3) is the
        # measured mp-over-loop ratio.
        Workload(
            "mp_z3",
            "dense_z3's model and data with one OS process per rank: only"
            " the shm ring, mp backend and launcher differ",
            stage=3, offload="gpu", backend="mp", **_DENSE,
        ),
    )
}


def model_factory(w: Workload):
    """Seeded GPT factory for ``w`` (activation checkpointing on, as the
    paper trains)."""
    from repro.nn import GPTModel, TransformerConfig
    from repro.utils.rng import seeded_rng

    cfg = TransformerConfig(
        num_layers=w.layers,
        hidden_dim=w.hidden,
        num_heads=4,
        vocab_size=w.vocab,
        max_seq=w.seq,
        activation_checkpointing=True,
    )
    return lambda: GPTModel(cfg, rng=seeded_rng(0))


def build_engine(w: Workload, *, nvme_dir=None, comm_backend=None):
    """The workload's engine; the caller closes it."""
    from repro.core import (
        OffloadConfig,
        OffloadDevice,
        ZeroConfig,
        ZeroInfinityEngine,
        ZeroStage,
    )

    dev = OffloadDevice(w.offload)
    config = ZeroConfig(
        world_size=WORLD,
        stage=ZeroStage(w.stage),
        offload=OffloadConfig(
            # parameters can only be offloaded once partitioned (stage 3)
            param_device=dev if w.stage >= 3 else OffloadDevice.NONE,
            grad_device=dev,
            optimizer_device=dev,
            nvme_dir=nvme_dir if w.offload == "nvme" else None,
        ),
        loss_scale=1.0,
    )
    return ZeroInfinityEngine(
        config, model_factory=model_factory(w), comm_backend=comm_backend
    )


def build_baseline_engine(w: Workload):
    """Plain data parallelism on the same model: the bit-exactness oracle."""
    from repro.core import Strategy, ZeroInfinityEngine
    from repro.core.config import config_for_strategy

    config = config_for_strategy(
        Strategy.DATA_PARALLEL, world_size=WORLD, loss_scale=1.0
    )
    return ZeroInfinityEngine(config, model_factory=model_factory(w))


def batches(w: Workload, seed: int):
    """Infinite per-rank batch iterator.  ``seed`` reaches the corpus and
    the batch sampler only; the engine sees just the generated arrays."""
    from repro.workloads.data import MarkovCorpus, per_rank_batches

    return per_rank_batches(
        MarkovCorpus(w.vocab, seed=seed),
        world_size=WORLD,
        bsz_per_rank=w.bsz_per_rank,
        seq=w.seq,
        seed=seed + 1,
    )


# --- where the NVMe spool lives ------------------------------------------------------
def make_spool(out_dir: str) -> str:
    """A fresh spool directory, on tmpfs when there is one.

    This sandbox is not NVMe hardware.  On its shared ext4 disk the 500
    creates and renames per step hit the journal: nvme_z3's step median is
    40 % higher than on tmpfs, drifts from 240 to 350 ms over ten
    back-to-back runs, and so says more about the disk's recent history
    than about the program.  On tmpfs the workload measures the software
    path — opens, renames, CRC, copies, thread hand-offs.  /dev/shm is the
    one place outside the checkout the benchmark writes (the mp backend's
    segments live there too); the directory is removed before exit.  Where
    /dev/shm is not writable the spool falls back to the checkout.
    """
    name = f"repro-e2e-spool-{os.getpid()}"
    for parent in ("/dev/shm", out_dir):
        path = os.path.join(parent, name)
        try:
            os.makedirs(path)
        except OSError:
            continue
        return path
    raise OSError(f"cannot create a spool under /dev/shm or {out_dir}")


def spool_fs(path: str) -> str:
    """File-system type under ``path`` (longest matching mount point)."""
    best, fs = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            _, mount, kind = line.split()[:3]
            if path.startswith(mount) and len(mount) > len(best):
                best, fs = mount, kind
    return fs
