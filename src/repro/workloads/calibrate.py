"""Small deterministic training runs for backend calibration.

One parameterized workload — a tiny seeded GPT over a Markov corpus —
executed through the real engine, returning everything the backend
equivalence contract compares: per-step losses (all ranks), per-step
global gradient norms, the ``CommStats`` byte/call counters, and a digest
of the final parameter state.

Shared by three drivers so they cannot drift apart:

* the backend equivalence tests (``tests/test_backend_equivalence.py``),
* the ``BENCH_mp.json`` benchmark (``benchmarks/bench_mp_backend.py``,
  re-measured by ``tools/perf_gate.py``),
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
    # optimizer-pipeline knobs (ISSUE 10): delayed parameter update, its
    # staleness-correction multiplier, the double-buffered streaming
    # schedule (False = serial oracle), and an optional chunk-size override
    # so small calibration shards still exercise the chunked NVMe path
    delayed_update: bool = False
    scale_delayed_lr: float = 1.0
    optimizer_pipeline: bool = True
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
    step_walls_s: list[float] = field(default_factory=list)
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
    offload_kw = {"optimizer_pipeline": spec.optimizer_pipeline}
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
        delayed_update=spec.delayed_update,
        scale_delayed_lr=spec.scale_delayed_lr,
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
        marks = [time.perf_counter()]
        for _ in range(spec.steps):
            result = engine.train_step(next(data))
            losses.append(list(result.losses))
            marks.append(time.perf_counter())
        wall = marks[-1] - marks[0]
        # delayed mode still owes the last step's update; apply it before
        # the state gather so digests compare like-for-like
        engine.flush_delayed_update()
        transport = {}
        backend = engine.comm.backend
        if hasattr(backend, "transport_stats"):
            transport = dict(backend.transport_stats())
        return CalibRun(
            losses=losses,
            grad_norms=grad_norms,
            comm_bytes_by_op=dict(engine.comm.stats.bytes_by_op),
            comm_calls_by_op=dict(engine.comm.stats.calls_by_op),
            state_digest=state_digest(engine.gather_state()),
            wall_s=wall,
            steps_per_s=spec.steps / wall if wall > 0 else 0.0,
            step_walls_s=[b - a for a, b in zip(marks, marks[1:])],
            transport=transport,
        )


#: BENCH_mp.json speedup target at world 4 on a multi-core host.
MP_TARGET_SPEEDUP = 1.5


def measure_mp_speedup(
    world: int = 4, steps: int = 3, *, spec: Optional[CalibSpec] = None
) -> dict:
    """Loop-vs-mp throughput on this machine (the ``BENCH_mp.json`` body).

    Runs the same compute-heavy calibration workload through both
    backends, asserts the results are bit-identical, and reports the
    measured speedup plus a *projected* speedup for hosts without enough
    cores to actually run the ranks in parallel.

    Projection model: the loop backend executes ``world`` rank turns
    sequentially, so one turn costs ``loop_step / world``.  On a
    serialized host the mp run pays the same total compute plus the
    transport (shm copies + rendezvous), so
    ``transport ≈ mp_step − loop_step``; with one core per rank the step
    would collapse to one turn plus that transport, giving
    ``projected = loop_step / (loop_step/world + transport)``.

    ``speedup_basis`` records which number is authoritative on this
    host: ``"measured"`` with >= 2 cores (real parallelism available),
    ``"projected"`` on a single-core host where the measured ratio can
    only show the transport tax.
    """
    import os

    # compute-heavy relative to the tiny equivalence spec: the speedup
    # story only holds when a rank turn dwarfs the per-param transport
    spec = spec or CalibSpec(
        world=world,
        steps=steps,
        hidden=128,
        layers=4,
        seq=32,
        bsz_per_rank=8,
        vocab=128,
    )
    loop = run_training(spec)
    mp_run, _ = run_mp_training(spec)
    if mp_run.numerics() != loop.numerics():
        raise AssertionError(
            "mp backend diverged from the loop oracle; a speedup over"
            " wrong numerics is meaningless"
        )
    cpu = os.cpu_count() or 1
    loop_step = loop.wall_s / spec.steps
    mp_step = mp_run.wall_s / spec.steps
    measured = loop_step / mp_step if mp_step > 0 else 0.0
    turn = loop_step / spec.world
    transport = max(mp_step - loop_step, 0.0)
    projected = loop_step / (turn + transport) if turn + transport > 0 else 0.0
    basis = "measured" if cpu >= 2 else "projected"
    return {
        "world": spec.world,
        "steps": spec.steps,
        "cpu_count": cpu,
        "loop_steps_per_s": loop.steps_per_s,
        "mp_steps_per_s": mp_run.steps_per_s,
        # the perf gate ratchets this field (>= 0.4x committed baseline)
        "steps_per_s": mp_run.steps_per_s,
        "speedup_measured": measured,
        "speedup_projected": projected,
        "speedup_basis": basis,
        "speedup": measured if basis == "measured" else projected,
        "target_speedup": MP_TARGET_SPEEDUP,
        "bit_identical": True,
        "transport": dict(mp_run.transport),
    }


#: untimed leading steps of each ``measure_opt_pipeline`` run: state
#: initialisation, the prefetcher adopting its trace, pool warm-up
OPTPIPE_WARMUP_STEPS = 2


def measure_opt_pipeline(
    *, spec: Optional[CalibSpec] = None, rounds: int = 3
) -> dict:
    """Serial vs pipelined optimizer schedule on the NVMe preset, end to end.

    The ``BENCH_optpipe.json`` body.  The same seeded NVMe workload runs
    under both schedules — ``optimizer_pipeline`` off (read-ahead depth 0,
    the serial reference) and on — alternating, ``rounds`` times each,
    with every instrumentation plane off.  The runs must be bit-identical.
    A run's rate is one over the median wall of its steady-state steps;
    a schedule's rate is the median over its rounds.  ``steps_per_s`` is
    the *serial* schedule's (the field the perf gate ratchets, so the
    pipeline-off path cannot quietly regress), and the gate on the
    pipeline itself is measured against measured, same process, same
    minute: ``steps_per_s_pipelined >= steps_per_s``, to within ``noise``
    — the largest relative deviation of any round from its schedule's
    median, i.e. what this run can resolve.

    One more pair runs under a tracer to report what the overlap hides —
    the ``optimizer_io_tail`` stall time of each schedule.  Reported, not
    gated: a shorter tail counts only when the step gets faster with it.
    """
    import statistics
    from dataclasses import replace as _replace

    from repro.obs.perfscope import build_step_ledgers, summarize_ledgers
    from repro.obs.tracer import Tracer, use_tracer

    # 262 k-element embedding shards against a 64 k chunk: four spans per
    # shard, so the pipeline has reads, compute and writes to overlap; the
    # model around it is small enough that the optimizer is half the step
    spec = spec or CalibSpec(
        world=2,
        steps=OPTPIPE_WARMUP_STEPS + 6,
        stage=3,
        offload="nvme",
        hidden=64,
        layers=1,
        seq=16,
        bsz_per_rank=2,
        vocab=8192,
        chunk_numel=1 << 16,
    )

    def rate(run: CalibRun) -> float:
        return 1.0 / statistics.median(run.step_walls_s[OPTPIPE_WARMUP_STEPS:])

    rates: dict[bool, list[float]] = {False: [], True: []}
    numerics = None
    for _ in range(rounds):
        for pipelined in (False, True):
            run = run_training(_replace(spec, optimizer_pipeline=pipelined))
            if numerics is None:
                numerics = run.numerics()
            elif run.numerics() != numerics:
                raise AssertionError(
                    "pipelined optimizer diverged from the serial oracle; an"
                    " I/O overlap over wrong numerics is meaningless"
                )
            rates[pipelined].append(rate(run))

    def tail_us(pipelined: bool) -> float:
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            run_training(_replace(spec, optimizer_pipeline=pipelined))
        summary = summarize_ledgers(build_step_ledgers(tracer))
        return summary.stall_us_by_cause.get("optimizer_io_tail", 0.0)

    serial = statistics.median(rates[False])
    piped = statistics.median(rates[True])
    # how far a schedule's own rounds strayed from its median: what this
    # run can and cannot resolve
    noise = max(
        abs(r / statistics.median(rs) - 1.0) for rs in rates.values() for r in rs
    )
    return {
        "world": spec.world,
        "steps": spec.steps,
        "chunk_numel": spec.chunk_numel,
        "rounds": rounds,
        # the perf gate ratchets this field (>= 0.4x committed baseline)
        "steps_per_s": serial,
        "steps_per_s_pipelined": piped,
        "pipelined_over_serial": piped / serial,
        "noise": noise,
        "tail_us_serial": tail_us(False),
        "tail_us_pipelined": tail_us(True),
        "bit_identical": True,
    }


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
