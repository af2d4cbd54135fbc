"""Layer probes: each layer driven alone through its public functions.

A probe bounds one term of the step from below (what the layer costs with
nothing around it), so a change that trades reads for writes, or latency
for bandwidth, is visible at the layer even when a workload nets out.  Each
number is the median of ``REPS`` repetitions.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, WORLD, batches, build_engine, make_spool  # noqa: E402

REPS = 30
MB = 1 << 20


def timed(fn, reps: int, before=None) -> float:
    """Median seconds of ``fn()`` over ``reps`` runs (``before()`` untimed)."""
    samples = []
    for _ in range(reps):
        if before is not None:
            before()
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def probe_nn(reps: int) -> dict:
    import numpy as np

    from repro.nn import TransformerBlock
    from repro.nn import functional as F
    from repro.utils.rng import seeded_rng

    w = WORKLOADS["dense_z3"]  # the workload nn dominates
    rng = seeded_rng(0)
    tokens, hidden = w.bsz_per_rank * w.seq, w.hidden
    block = TransformerBlock(hidden, 4, rng=rng)
    x = rng.standard_normal((w.bsz_per_rank, w.seq, hidden)).astype(np.float32)
    ones = np.ones_like(x)
    act = rng.standard_normal((tokens, 4 * hidden)).astype(np.float32)
    a = rng.standard_normal((tokens, hidden)).astype(np.float32)
    b = rng.standard_normal((hidden, 4 * hidden)).astype(np.float32)

    def fwd_bwd():
        block(x)
        block.backward(ones)

    return {
        "nn.probe.block_fwd_bwd_ms": 1e3 * timed(fwd_bwd, reps),
        "nn.probe.gelu_melem_per_s": act.size / timed(lambda: F.gelu_fwd(act), reps) / 1e6,
        "nn.probe.matmul_gflops": 2 * tokens * hidden * 4 * hidden
        / timed(lambda: F.matmul(a, b), reps) / 1e9,
    }


def probe_optim(reps: int) -> dict:
    import numpy as np

    from repro.optim import adam_step

    n = 1 << 20
    master, grad, m, v = (np.full(n, x, dtype=np.float32) for x in (1.0, 0.01, 0.0, 0.0))
    step = lambda: adam_step(master, grad, m, v, step=1, lr=1e-3)  # noqa: E731
    return {"optim.probe.adam_melem_per_s": n / timed(step, reps) / 1e6}


def probe_comm_loop(reps: int) -> dict:
    import numpy as np

    from repro.comm import ProcessGroup

    group = ProcessGroup(WORLD)
    shards = [np.ones(MB // 4 // WORLD, dtype=np.float32) for _ in range(WORLD)]
    full = [np.ones(MB // 4, dtype=np.float32) for _ in range(WORLD)]
    return {
        "comm.probe.allgather_mb_per_s": 1 / timed(lambda: group.allgather(shards), reps),
        "comm.probe.reduce_scatter_mb_per_s": 1
        / timed(lambda: group.reduce_scatter(full), reps),
    }


def probe_comm_mp(reps: int) -> dict:
    import numpy as np

    from repro.comm import run_multiproc

    small = np.ones(4096, dtype=np.uint8)
    large = np.ones(MB, dtype=np.uint8)

    def worker(backend):
        return (
            timed(lambda: backend.exchange(small), reps),
            timed(lambda: backend.exchange(large), reps),
        )

    small_s, large_s = run_multiproc(WORLD, worker).results[0]
    return {
        "comm.probe.shm_exchange_us": 1e6 * small_s,
        "comm.probe.shm_exchange_mb_per_s": 1 / large_s,
        "comm.probe.spawn_s": timed(
            lambda: run_multiproc(WORLD, lambda backend: None), reps
        ),
    }


def probe_nvme(reps: int, directory: str, disk_directory: str) -> dict:
    import numpy as np

    from repro.nvme import PinnedBufferPool, TensorStore
    from repro.nvme.store import shadow_key

    big = np.ones(4 * MB // 4, dtype=np.float32)
    small = np.ones(4096 // 4, dtype=np.float32)
    pool = PinnedBufferPool(64 * MB)
    with TensorStore(directory, pool=pool) as store:
        out = {
            "nvme.probe.write_mb_per_s": 4 / timed(lambda: store.write("big", big), reps),
            "nvme.probe.read_mb_per_s": 4 / timed(lambda: store.read("big"), reps),
            # 4 KB records: the per-operation open/rename cost
            "nvme.probe.small_write_us": 1e6
            * timed(lambda: store.write("small", small), reps),
            "nvme.probe.small_read_us": 1e6 * timed(lambda: store.read("small"), reps),
            "nvme.probe.promote_us": 1e6
            * timed(
                lambda: store.promote(shadow_key("small"), "small"),
                reps,
                before=lambda: store.write(shadow_key("small"), small),
            ),
            "nvme.probe.pinned_acquire_us": 1e6
            * timed(lambda: pool.acquire(1 << 16).release(), reps),
        }
    # the same 4 MB write on the checkout's real disk: the device ceiling of
    # this box, reported for context and never compared
    with TensorStore(disk_directory) as store:
        out["nvme.probe.disk_write_mb_per_s"] = 4 / timed(
            lambda: store.write("big", big), reps
        )
    return out


def probe_offload(reps: int, directory: str) -> dict:
    import numpy as np

    from repro.core import InfinityOffloadEngine, OffloadConfig, OffloadDevice

    arr = np.ones(256 * 1024 // 4, dtype=np.float32)
    config = OffloadConfig(param_device=OffloadDevice.NVME, nvme_dir=directory)
    out = {}
    with InfinityOffloadEngine(config) as offload:
        for device in (OffloadDevice.CPU, OffloadDevice.NVME):

            def roundtrip():
                offload.stash("probe", arr, device, rank=0)
                offload.fetch("probe", rank=0)

            name = f"core.offload.probe.{device.value}_roundtrip_us"
            out[name] = 1e6 * timed(roundtrip, reps)
    return out


def probe_engine(reps: int, directory: str) -> dict:
    """Probes that need a live engine: gather/release and checkpoint I/O."""
    from repro.core import load_checkpoint, save_checkpoint

    w = WORKLOADS["dense_z3"]
    with build_engine(w) as engine:
        engine.train_step(next(batches(w, 0)))  # optimizer state exists
        param = max(engine.model.parameters(), key=lambda p: p.full_numel)

        def gather_release():
            engine.partitioner.gather(param)
            engine.partitioner.release(param)

        return {
            "core.partition.probe.gather_release_us": 1e6 * timed(gather_release, reps),
            # the time training would be stalled saving dense_z3's state
            "core.checkpoint_io.probe.save_s": timed(
                lambda: save_checkpoint(engine, directory), reps
            ),
            "core.checkpoint_io.probe.load_s": timed(
                lambda: load_checkpoint(engine, directory), reps
            ),
        }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    reps = 3 if args.quick else REPS

    scratch = os.path.join(args.out_dir, f"probes-{os.getpid()}")
    os.makedirs(scratch)
    spool = make_spool(args.out_dir)  # where nvme_z3's spool lives too
    try:
        out = {
            # fork-based probes first, while the process has no aio threads
            **probe_comm_mp(reps),
            **probe_nn(reps),
            **probe_optim(reps),
            **probe_comm_loop(reps),
            **probe_nvme(reps, os.path.join(spool, "store"), os.path.join(scratch, "store")),
            **probe_offload(reps, os.path.join(spool, "offload")),
            **probe_engine(reps, os.path.join(scratch, "ckpt")),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(spool, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
