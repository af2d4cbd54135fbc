"""Small deterministic training runs for backend calibration.

One parameterized workload — a tiny seeded GPT over a Markov corpus —
executed through the real engine, returning everything the backend
equivalence contract compares: per-step losses (all ranks), per-step
global gradient norms, the ``CommStats`` byte/call counters, and a digest
of the final parameter state.

Shared by two drivers so they cannot drift apart:

* the backend equivalence tests (``tests/test_backend_equivalence.py``),
* ``repro throughput --backend ...``, which calibrates the simulator's
  numbers against a functional run on this machine.

Determinism contract: everything is seeded and the engine is bit-exact
across backends, so two :class:`CalibRun` objects from the same spec must
compare equal field-for-field — any drift is a bug, not noise.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.comm.backend import CommBackend


@dataclass
class CalibSpec:
    """One deterministic workload configuration."""

    world: int = 2
    steps: int = 3
    stage: int = 3
    offload: str = "gpu"  # gpu | cpu | nvme
    hidden: int = 32
    layers: int = 2
    seq: int = 8
    bsz_per_rank: int = 2
    vocab: int = 64
    check: Optional[str] = None  # checker spec, e.g. "all"
    # optimizer chunk-size override, so small calibration shards still
    # exercise the chunked NVMe path
    chunk_numel: Optional[int] = None


@dataclass
class CalibRun:
    """Everything the backend-equivalence contract compares."""

    losses: list[list[float]]  # per step, per rank (rank-major)
    grad_norms: list[float]  # per step, global L2 over all shards
    comm_bytes_by_op: dict[str, int]
    comm_calls_by_op: dict[str, int]
    state_digest: str  # sha256 over the final gathered parameters
    wall_s: float = 0.0
    steps_per_s: float = 0.0
    transport: dict = field(default_factory=dict)  # mp-only counters

    def numerics(self) -> tuple:
        """The fields that must be bit-identical across backends."""
        return (
            self.losses,
            self.grad_norms,
            self.comm_bytes_by_op,
            self.comm_calls_by_op,
            self.state_digest,
        )


def build_engine(spec: CalibSpec, *, comm_backend: Optional[CommBackend] = None):
    """Construct the calibration engine (caller owns closing it)."""
    from repro.core import (
        OffloadConfig,
        OffloadDevice,
        ZeroConfig,
        ZeroInfinityEngine,
        ZeroStage,
    )
    from repro.nn import GPTModel, TransformerConfig
    from repro.utils.rng import seeded_rng

    model_cfg = TransformerConfig(
        num_layers=spec.layers,
        hidden_dim=spec.hidden,
        num_heads=4,
        vocab_size=spec.vocab,
        max_seq=spec.seq,
        activation_checkpointing=True,
    )
    dev = OffloadDevice(spec.offload)
    check_cfg = None
    if spec.check:
        from repro.check import CheckConfig

        check_cfg = CheckConfig.from_spec(spec.check, mode="record")
    # parameters can only be offloaded once they are partitioned (stage 3);
    # below that the device applies to gradients and optimizer state only
    param_dev = dev if spec.stage >= 3 else OffloadDevice.NONE
    offload_kw = {}
    if spec.chunk_numel is not None:
        offload_kw["optimizer_chunk_numel"] = spec.chunk_numel
    zero_cfg = ZeroConfig(
        world_size=spec.world,
        stage=ZeroStage(spec.stage),
        offload=OffloadConfig(
            param_device=param_dev,
            grad_device=dev,
            optimizer_device=dev,
            **offload_kw,
        ),
        loss_scale=1.0,
        **({"check": check_cfg} if check_cfg is not None else {}),
    )
    return ZeroInfinityEngine(
        zero_cfg,
        model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(0)),
        lr=5e-3,
        comm_backend=comm_backend,
    )


def state_digest(state: dict[str, np.ndarray]) -> str:
    """Order-independent sha256 over a named parameter state."""
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode())
        h.update(np.ascontiguousarray(state[name]).tobytes())
    return h.hexdigest()


def run_training(
    spec: CalibSpec, *, comm_backend: Optional[CommBackend] = None
) -> CalibRun:
    """Run the spec through the engine on the given backend (loop default)."""
    from repro.workloads import MarkovCorpus, per_rank_batches

    with build_engine(spec, comm_backend=comm_backend) as engine:
        data = per_rank_batches(
            MarkovCorpus(spec.vocab, seed=1),
            world_size=spec.world,
            bsz_per_rank=spec.bsz_per_rank,
            seq=spec.seq,
            seed=2,
        )
        grad_norms: list[float] = []
        orig_step = engine.optimizer.step

        def step_with_norm(*, grad_scale: float = 1.0) -> None:
            # the norm fetches replicate identically in every process and
            # on every backend, so recording it here cannot skew the
            # equivalence comparison
            grad_norms.append(
                engine.optimizer.global_grad_norm(grad_scale=grad_scale)
            )
            orig_step(grad_scale=grad_scale)

        engine.optimizer.step = step_with_norm  # type: ignore[method-assign]
        losses: list[list[float]] = []
        start = time.perf_counter()
        for _ in range(spec.steps):
            result = engine.train_step(next(data))
            losses.append(list(result.losses))
        wall = time.perf_counter() - start
        transport = engine.comm.backend.transport_stats()
        return CalibRun(
            losses=losses,
            grad_norms=grad_norms,
            comm_bytes_by_op=dict(engine.comm.stats.bytes_by_op),
            comm_calls_by_op=dict(engine.comm.stats.calls_by_op),
            state_digest=state_digest(engine.gather_state()),
            wall_s=wall,
            steps_per_s=spec.steps / wall if wall > 0 else 0.0,
            transport=transport,
        )


def run_mp_training(
    spec: CalibSpec,
    *,
    timeout: float = 120.0,
    trace: bool = False,
    live=None,
    faults: str = "",
    faults_seed: int = 0,
    on_view=None,
    view_interval: float = 0.5,
):
    """Run the spec with one process per rank; returns ``(run, shards)``.

    Every rank process returns its own :class:`CalibRun`; the replicated
    execution model makes them identical, which is asserted here before
    rank 0's is returned (``shards`` is None unless ``trace``).

    ``live`` (bool or :class:`~repro.obs.live.LiveConfig`) threads the
    telemetry plane through the launcher; ``faults`` installs a fault
    spec inside every worker (the schedule replicates per process, like
    the loop oracle's).  ``on_view`` receives parent-side
    :class:`~repro.obs.live.ClusterView` polls.
    """
    from repro.comm import run_multiproc

    def worker(backend):
        if faults:
            from repro.faults.runtime import use_faults

            with use_faults(faults, seed=faults_seed):
                return run_training(spec, comm_backend=backend)
        return run_training(spec, comm_backend=backend)

    out = run_multiproc(
        spec.world, worker, timeout=timeout, trace=trace, live=live,
        on_view=on_view, view_interval=view_interval,
    )
    runs = out.results
    for rank, run in enumerate(runs[1:], start=1):
        if run.numerics() != runs[0].numerics():
            raise AssertionError(
                f"rank {rank} diverged from rank 0 despite identical"
                f" digests: {run.numerics()[:2]} != {runs[0].numerics()[:2]}"
            )
    return runs[0], out.shards
