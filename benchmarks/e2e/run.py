"""End-to-end training benchmark with a per-layer ledger.

One workload, as the benchmark driver calls it (last stdout line is the
result object)::

    python3 benchmarks/e2e/run.py --workload nvme_z3 --seed 1 --seconds 15 --trace 0

The whole set, for ``compare.py`` (writes ``benchmarks/e2e/out/result.json``)::

    python3 benchmarks/e2e/run.py [--seed S] [--repeat K] [--quick] [--out PATH]

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs an untraced and a traced child plus the layer probes and
reports the per-layer metrics.  Metric names, units, directions and bounds
live in ``BENCHMARK.json``; README.md says which layer metric should move
which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: child processes per --trace 0 run.  Each sets up afresh and times a
#: third of --seconds; steps are pooled and the set-up median reported, so
#: one process's memory layout or one noisy stretch cannot set the result.
CHILDREN = 3
#: timed steps per child under --quick
QUICK_STEPS = 3
#: shares of --seconds given to the untraced and the traced child of a
#: --trace 1 run (the probes take the rest)
UNTRACED_SHARE, TRACED_SHARE = 0.45, 0.3
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS/OpenMP thread per process, set before numpy loads: two rank
    # processes with unpinned BLAS oversubscribe a 2-core box several-fold.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # every child compiles the sources afresh, so set-up time does not
    # depend on whether an earlier run left bytecode behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    return env


def spawn(script: str, *args: str) -> dict:
    """Run one child to completion; its last stdout line is a JSON object."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, script), "--out-dir", OUT_DIR, *args]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{script} {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(workload: str, seed: int, *, seconds, steps=None, traced=0, check=1) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--traced", str(traced),
            "--check", str(check)]
    if steps is not None:
        args += ["--steps", str(steps)]
    else:
        args += ["--seconds", repr(seconds)]
    # set-up is timed from here, so it includes the interpreter's own start
    return spawn("child.py", *args, "--spawned-at", repr(time.monotonic()))


# --- metric assembly ---------------------------------------------------------------
def end_to_end(workload: str, children: list[dict]) -> dict:
    walls = [x for c in children for x in c["walls_ms"]]
    tokens = WORKLOADS[workload].tokens_per_step * len(walls)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "tokens_per_s": tokens / (sum(walls) / 1e3),
        "step_ms_p50": statistics.median(walls),
        "peak_rss_mb": max(c["rss_kb"] for c in children) / 1024,
        "gpu_peak_mb": children[0]["gpu_peak_bytes"] / 1e6,
    }


def per_layer(untraced: dict, traced: dict, probes: dict) -> dict:
    """Per-layer metrics; ``None`` where a layer has nothing to measure."""
    ledger = traced["ledger"]
    steps = len(traced["walls_ms"])
    per_step = {k: v / steps for k, v in traced["counters"].items()}
    self_ms, calls, named = ledger["self_ms"], ledger["calls"], ledger["calls_by_name"]
    reads = per_step["prefetch_hits"] + per_step["prefetch_misses"]
    offload = "InfinityOffloadEngine."
    out = {
        "nn.self_ms": self_ms["nn"],
        "nn.calls": calls["nn"],
        "optim.self_ms": self_ms["optim"],
        "optim.calls": calls["optim"],
        "comm.self_ms": self_ms["comm"],
        "comm.calls": calls["comm"],
        "comm.mb": per_step["comm_bytes"] / 1e6,
        # part of comm.self_ms, not a row of its own; mp backend only
        "comm.wait_ms": 1e3 * per_step["exchange_wait_s"]
        if "exchange_wait_s" in per_step else None,
        "comm.exchanges": per_step.get("exchanges"),
        "core.partition.self_ms": self_ms["core.partition"],
        "core.partition.gathers": per_step["gathers"],
        "core.bucket.self_ms": self_ms["core.bucket"],
        "core.bucket.flushes": per_step["bucket_flushes"],
        "core.offload.self_ms": self_ms["core.offload"],
        "core.offload.fetches": named.get(offload + "fetch", 0)
        + named.get(offload + "fetch_into", 0),
        "core.offload.stashes": named.get(offload + "stash", 0)
        + named.get(offload + "stage_nvme", 0),
        "core.prefetch.hit_ratio": per_step["prefetch_hits"] / reads if reads else None,
        "core.prefetch.mispredicts": per_step["prefetch_mispredicts"],
        "core.zero_optimizer.self_ms": self_ms["core.zero_optimizer"],
        "nvme.self_ms": self_ms["nvme"],
        "nvme.wait_ms": self_ms["nvme.wait"],
        "nvme.read_ops": per_step["nvme_read_ops"],
        "nvme.write_ops": per_step["nvme_write_ops"],
        "nvme.read_mb": per_step["nvme_read_bytes"] / 1e6,
        "nvme.write_mb": per_step["nvme_write_bytes"] / 1e6,
        "nvme.retries": per_step["nvme_retries"],
        "nvme.pinned_peak_mb": traced["pinned_peak_bytes"] / 1e6,
        "nvme.pinned_fallbacks": per_step["pinned_fallbacks"],
        "engine.self_ms": self_ms["engine"],
        # untraced: a tail on a shared box does not repeat within a tenth,
        # so it is reported here, unbounded, with its sample count
        "engine.step_ms_p90": statistics.quantiles(
            untraced["walls_ms"], n=10, method="inclusive"
        )[-1],
        "engine.steps_timed": len(untraced["walls_ms"]),
        # the ledger rows above sum to this (mean traced step wall)
        "bench.traced_step_ms": ledger["step_wall_ms"],
        "bench.trace_overhead": statistics.median(traced["walls_ms"])
        / statistics.median(untraced["walls_ms"]) - 1,
    }
    out.update(probes)
    return out


# --- one workload --------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: int, quick: bool):
    """Returns ``(metrics, info)`` for one (workload, trace mode) run."""
    steps = QUICK_STEPS if quick else None
    if not trace:
        count = 1 if quick else CHILDREN
        children = [
            # the checks are deterministic: once per run is enough
            run_child(name, seed, seconds=seconds / count, steps=steps, check=int(i == 0))
            for i in range(count)
        ]
        metrics = end_to_end(name, children)
    else:
        untraced = run_child(name, seed, seconds=seconds * UNTRACED_SHARE, steps=steps)
        traced = run_child(
            name, seed, seconds=seconds * TRACED_SHARE, steps=steps, traced=1
        )
        probes = spawn("probes.py", *(["--quick"] if quick else []))
        children = [untraced, traced]
        metrics = per_layer(untraced, traced, probes)
    attempted = sum(len(c["walls_ms"]) for c in children)
    checks: dict[str, bool] = {}
    for child in children:
        for check, passed in child["checks"].items():
            checks[check] = checks.get(check, True) and passed
    ok = all(checks.values())
    info = {
        "correct": ok,
        "attempted": attempted,
        # a failed check voids every step of the run
        "failed": sum(c["skipped"] for c in children) if ok else attempted,
        "checks": checks,
        "loss_at_step_8": children[0]["loss_at_step_8"],
        "spool_fs": children[0]["spool_fs"],
        "missing_entry_points": children[-1].get("missing_entry_points", []),
    }
    return metrics, info


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {units[name]}")


def driver_main(args, units: dict) -> int:
    """The driver's contract: one workload, one trace mode, one JSON line."""
    metrics, info = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.quick
    )
    print_metrics(f"{args.workload} (trace {args.trace}, seed {args.seed})", metrics, units)
    for key in ("checks", "loss_at_step_8", "spool_fs", "missing_entry_points"):
        print(f"  {key}: {info[key]}")
    print(
        json.dumps(
            {
                "correct": info["correct"],
                "attempted": info["attempted"],
                "failed": info["failed"],
                "metrics": {
                    # a layer with nothing to measure reads 0 for the driver
                    name: {"value": 0.0 if value is None else value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if info["correct"] else 1


# --- the whole set -------------------------------------------------------------------
def fingerprint() -> dict:
    import numpy as np

    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
    }


def summarize(values: list[float]) -> dict:
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def set_main(args, units: dict) -> int:
    result = {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "environment": fingerprint(),
        "workloads": {},
    }
    ok = True
    for name in [args.workload] if args.workload else list(WORKLOADS):
        runs = [
            run_workload(name, args.seed, args.seconds, 0, args.quick)
            for _ in range(args.repeat)
        ]
        layer_metrics, layer_info = run_workload(
            name, args.seed, args.seconds, 1, args.quick
        )
        infos = [info for _, info in runs] + [layer_info]
        e2e = {
            metric: summarize([m[metric] for m, _ in runs]) for metric in runs[0][0]
        }
        e2e["step_fail_share"] = summarize([i["failed"] / i["attempted"] for i in infos])
        result["workloads"][name] = {
            "end_to_end": e2e,
            "per_layer": layer_metrics,
            "correct": all(i["correct"] for i in infos),
            "attempted": sum(i["attempted"] for i in infos),
            "failed": sum(i["failed"] for i in infos),
            "checks": {k: all(i["checks"][k] for i in infos) for k in infos[0]["checks"]},
            "loss_at_step_8": infos[0]["loss_at_step_8"],
            "spool_fs": infos[0]["spool_fs"],
            "missing_entry_points": layer_info["missing_entry_points"],
        }
        ok &= result["workloads"][name]["correct"]
        print_metrics(
            f"{name} end to end (median of {args.repeat})",
            {k: v["median"] for k, v in e2e.items()},
            {**units, "step_fail_share": "ratio"},
        )
        print_metrics(f"{name} per layer", layer_metrics, units)
        print(f"  checks: {result['workloads'][name]['checks']}")
    done = result["workloads"]
    if "mp_z3" in done and "dense_z3" in done:
        # derived, never gated: the measured replacement for BENCH_mp.json's
        # projected speedup
        result["mp_over_loop"] = (
            done["mp_z3"]["end_to_end"]["tokens_per_s"]["median"]
            / done["dense_z3"]["end_to_end"]["tokens_per_s"]["median"]
        )
        print(f"mp_over_loop = {result['mp_over_loop']:.4f} (base: dense_z3 tokens_per_s)")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
    print(f"wrote {args.out}")
    return 0 if ok else 1


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: print one result line for the driver")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_STEPS} timed steps per child (smoke test)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="end-to-end runs per workload in a set")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    args = parser.parse_args()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver_main(args, units)
    return set_main(args, units)


if __name__ == "__main__":
    sys.exit(main())
