"""One measured process: set-up, warm-up, timed steps, then untimed checks.

``run.py`` starts this file once per measurement so that every number comes
from a fresh interpreter: ``setup_s`` includes imports and engine
construction, ``peak_rss_mb`` is this process's own high-water mark, and a
traced run cannot leak wrappers into an untraced one.  The result is one
JSON object on the last line of stdout.

Closed loop, one client: the next ``train_step`` is issued when the
previous one returns.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import trace as bench_trace  # noqa: E402  (this directory's, not the stdlib's)
from workloads import (  # noqa: E402
    CHECK_LOSSES,
    WARMUP_STEPS,
    WORKLOADS,
    WORLD,
    batches,
    build_baseline_engine,
    build_engine,
    make_spool,
    spool_fs,
)


def _counters(engine) -> dict:
    """Cumulative work counters the layers keep themselves."""
    rep = engine.report()
    out = {
        "comm_bytes": sum(rep.comm_bytes_by_op.values()),
        "gathers": rep.gathers,
        "bucket_flushes": rep.bucket_flushes,
        "prefetch_hits": rep.prefetch_hits,
        "prefetch_misses": rep.prefetch_misses,
        "prefetch_mispredicts": rep.prefetch_mispredicts,
        "nvme_read_bytes": rep.nvme_read_bytes,
        "nvme_write_bytes": rep.nvme_write_bytes,
        "nvme_retries": rep.io_read_retries + rep.io_write_retries,
        "pinned_fallbacks": rep.pinned_fallbacks,
        "nvme_read_ops": 0,
        "nvme_write_ops": 0,
    }
    store = engine.offload.store
    if store is not None:
        out["nvme_read_ops"] = store.engine.stats.read_requests
        out["nvme_write_ops"] = store.engine.stats.write_requests
    backend = engine.comm.backend
    if not backend.all_local:
        transport = backend.transport_stats()
        out["exchanges"] = transport["exchanges"]
        out["exchange_wait_s"] = transport["wait_s"]
    return out


def measure(w, args, spool, recorder, backend=None) -> dict:
    """Warm up, then time ``train_step`` calls; runs in the rank process."""
    import numpy as np

    data = batches(w, args.seed)
    losses: list[list[float]] = []
    skipped = 0

    with build_engine(w, nvme_dir=spool, comm_backend=backend) as engine:

        def step() -> float:
            nonlocal skipped
            batch = next(data)
            start = time.perf_counter()
            result = engine.train_step(batch)
            wall = time.perf_counter() - start
            losses.append([float(x) for x in result.losses])
            skipped += bool(result.skipped)
            return wall

        warm = [step() for _ in range(WARMUP_STEPS)]
        setup_s = time.monotonic() - args.spawned_at

        steps = args.steps
        if steps is None:
            # a step count (not a deadline) so that rank processes cannot
            # disagree on when to stop; sized from the warm-up median
            steps = max(1, round(args.seconds / statistics.median(warm)))
        if not engine.comm.all_local:
            # rank 0's count wins: one exchange, outside the timed region
            steps = int(engine.comm.exchange(np.array([steps]))[0][0])

        before = _counters(engine)
        # Start from a collected heap, but leave the collector on: with it
        # off, cycles holding I/O buffers pile up (nvme_z3's peak RSS grows
        # 60 % over 50 steps and late steps slow down), which no user sees.
        gc.collect()
        if recorder is not None:
            recorder.start()
        walls = [step() for _ in range(steps)]
        if recorder is not None:
            recorder.stop()
        after = _counters(engine)
        pinned_peak = engine.report().pinned_peak_bytes

    out = {
        "setup_s": setup_s,
        "walls_ms": [1e3 * x for x in walls],
        "losses": losses,
        "skipped": skipped,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": {k: after[k] - before[k] for k in after},
        "pinned_peak_bytes": pinned_peak,
    }
    if recorder is not None:
        out["ledger"] = recorder.ledger()
        out["chrome"] = recorder.chrome_events(backend.rank if backend else 0)
    return out


def _digest(state: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode())
        h.update(state[name].tobytes())
    return h.hexdigest()


def replay(w, seed, spool, *, baseline=False, backend=None) -> dict:
    """A fresh engine's first steps under memscope: losses, final state
    digest and the simulated-GPU high-water mark."""
    from repro.obs import MemScope, use_memscope

    data = batches(w, seed)
    with use_memscope(MemScope(enabled=True)):
        engine = (
            build_baseline_engine(w)
            if baseline
            else build_engine(w, nvme_dir=spool, comm_backend=backend)
        )
        with engine:
            count = CHECK_LOSSES if baseline else WARMUP_STEPS
            losses = [
                [float(x) for x in engine.train_step(next(data)).losses]
                for _ in range(count)
            ]
            return {
                "losses": losses,
                "digest": _digest(engine.gather_state()),
                "gpu_peak_bytes": engine.report().tier_peak_bytes.get("gpu", 0),
            }


def verify(w, args, spool, measured, shm_before) -> dict:
    """Untimed correctness checks; every miss fails the whole run."""
    if w.backend == "mp":
        from repro.comm import run_multiproc

        same = run_multiproc(
            WORLD, lambda backend: replay(w, args.seed, None, backend=backend)
        ).results[0]
        # the loop backend is the oracle the mp backend must match bit for bit
        oracle = replay(w, args.seed, None)
    else:
        same = oracle = replay(
            w, args.seed, os.path.join(spool, "replay") if spool else None
        )
    baseline = replay(w, args.seed, None, baseline=True)

    losses = measured["losses"]
    leftovers = sorted(set(os.listdir("/dev/shm")) - shm_before)
    if spool:
        for root, _, files in os.walk(spool):
            leftovers += [
                os.path.join(root, f) for f in files if ".pipe" in f or ".tmp" in f
            ]
    checks = {
        "matches_data_parallel": losses[:CHECK_LOSSES] == baseline["losses"],
        "matches_instrumented_replay": losses[:WARMUP_STEPS] == same["losses"],
        "matches_loop_oracle": same["digest"] == oracle["digest"],
        "no_leftovers": not leftovers,
    }
    if leftovers:
        print(f"leftovers: {leftovers}", file=sys.stderr)
    return {"checks": checks, "gpu_peak_bytes": same["gpu_peak_bytes"]}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0, help="timed span")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed steps (overrides --seconds)")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--check", type=int, default=1,
                        help="run the untimed correctness checks afterwards")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    recorder = bench_trace.Recorder().install() if args.traced else None

    spool = make_spool(args.out_dir) if w.offload == "nvme" else None
    shm_before = set(os.listdir("/dev/shm"))
    try:
        if w.backend == "mp":
            from repro.comm import run_multiproc

            ranks = run_multiproc(
                WORLD,
                lambda backend: measure(w, args, None, recorder, backend),
                timeout=170.0,
            ).results
        else:
            ranks = [measure(w, args, spool, recorder)]
        measured = ranks[0]  # rank 0's clock; under mp the slowest rank sets it
        measured["rss_kb"] = max(r["rss_kb"] for r in ranks)
        if recorder is not None:
            bench_trace.write_chrome_trace(
                os.path.join(args.out_dir, f"trace-{w.name}.json"),
                [event for r in ranks for event in r.pop("chrome")],
            )
            measured["missing_entry_points"] = recorder.missing
        measured["checks"] = {
            "losses_finite": all(
                math.isfinite(x) for step in measured["losses"] for x in step
            ),
            "no_skipped_steps": measured["skipped"] == 0,
        }
        if args.check:
            checked = verify(w, args, spool, measured, shm_before)
            measured["checks"].update(checked["checks"])
            measured["gpu_peak_bytes"] = checked["gpu_peak_bytes"]
        # a fixed step, so the value compares across runs and commits
        # whatever the timed step count was
        measured["loss_at_step_8"] = (
            statistics.fmean(measured["losses"][7])
            if len(measured["losses"]) >= 8
            else None
        )
        measured["spool_fs"] = spool_fs(spool) if spool else None
        del measured["losses"]
    finally:
        if spool:
            shutil.rmtree(spool, ignore_errors=True)
    print(json.dumps(measured))


if __name__ == "__main__":
    main()
