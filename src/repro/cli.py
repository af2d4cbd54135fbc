"""Command-line interface.

Subcommands mirror the questions the paper answers:

* ``repro scale``      — max trainable model size per strategy on a cluster;
* ``repro throughput`` — simulated step time / TFLOPs for a Table 1 workload;
* ``repro memory``     — the Sec. 3 memory profile of a model configuration;
* ``repro efficiency`` — required bandwidths from the Sec. 4 model;
* ``repro train-demo`` — a short functional training run with full NVMe
  offload on simulated ranks (proof the whole stack works on this machine);
* ``repro memreport``   — the same run profiled by :mod:`repro.obs.memscope`:
  per-tier watermarks with owner attribution, drift against the Sec. 3
  analytic model, and tuning recommendations.

``train-demo`` and ``throughput`` accept ``--trace out.json``: the run (or
simulated timeline) is exported as Chrome trace-event JSON, ready to open
at https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.utils import Table, format_bytes, format_count


def _cmd_scale(args) -> int:
    from repro.core.config import Strategy
    from repro.core.scale import max_model_size
    from repro.hardware import dgx2_cluster

    cluster = dgx2_cluster(args.nodes)
    strategies = (
        [Strategy(args.strategy)] if args.strategy else list(Strategy)
    )
    t = Table(
        ["strategy", "max params", "hidden", "layers", "limited by"],
        title=f"Max model size on {args.nodes} DGX-2 node(s)"
        f" ({cluster.num_gpus} GPUs)",
    )
    for s in strategies:
        kw = {}
        if s is Strategy.THREED:
            kw["mp_degree"] = args.mp
        if s in (Strategy.ZERO_INF_CPU, Strategy.ZERO_INF_NVME):
            kw["tile_factor"] = args.tile_factor
        r = max_model_size(s, cluster, bsz_per_gpu=args.batch, **kw)
        t.add_row(
            [
                str(s),
                format_count(r.max_params),
                r.hidden_dim,
                r.num_layers,
                r.limiting_factor,
            ]
        )
    print(t.render())
    return 0


def _cmd_throughput(args) -> int:
    from repro.analytics.model_zoo import TABLE1_CONFIGS
    from repro.hardware import dgx2_cluster
    from repro.sim import SimWorkload, StepSimulator
    from repro.sim.step_model import policy_from_config

    if args.config not in TABLE1_CONFIGS:
        print(
            f"unknown config {args.config!r}; choose from:"
            f" {', '.join(sorted(TABLE1_CONFIGS))}",
            file=sys.stderr,
        )
        return 2
    cfg = TABLE1_CONFIGS[args.config]
    nodes = args.nodes or cfg.num_nodes
    wl = SimWorkload.from_config(cfg, grad_accumulation_steps=args.accum)
    b = StepSimulator(dgx2_cluster(nodes), wl, policy_from_config(cfg)).simulate()
    t = Table(["quantity", "value"], title=f"Simulated step: {args.config} on {nodes} node(s)")
    t.add_row(["parameters", format_count(cfg.params)])
    t.add_row(["placement", f"params:{cfg.param_device} optimizer:{cfg.optimizer_device}"])
    t.add_row(["grad accumulation", args.accum])
    t.add_row(["step time", f"{b.total_time:.1f} s"])
    t.add_row(["TFLOPs/GPU", f"{b.tflops_per_gpu:.1f}"])
    t.add_row(["compute stream busy", f"{b.compute_time:.1f} s"])
    t.add_row(["GPU-GPU stream busy", f"{b.gg_time:.1f} s"])
    t.add_row(["PCIe stream busy", f"{b.cg_time:.1f} s"])
    t.add_row(["NVMe stream busy", f"{b.nc_time:.1f} s"])
    t.add_row(["CPU (optimizer) busy", f"{b.cpu_time:.1f} s"])
    print(t.render())
    if args.gantt:
        from repro.sim import render_gantt

        print("\n" + render_gantt(b.result))
    if args.trace:
        from repro.obs import write_sim_trace

        n = write_sim_trace(args.trace, b.result)
        print(f"wrote {n} timeline events to {args.trace} (open in Perfetto)")
    if args.backend:
        from repro.workloads import CalibSpec, run_mp_training, run_training

        spec = CalibSpec(world=args.calib_world, steps=3)
        if args.backend == "mp":
            run, _ = run_mp_training(spec)
        else:
            run = run_training(spec)
        t = Table(
            ["quantity", "value"],
            title=f"Functional calibration ({args.backend} backend,"
            f" world {spec.world})",
        )
        t.add_row(["measured steps/s", f"{run.steps_per_s:.2f}"])
        t.add_row(["final loss", f"{run.losses[-1][0]:.4f}"])
        t.add_row(["comm bytes", format_bytes(sum(run.comm_bytes_by_op.values()))])
        if run.transport:
            t.add_row(
                ["shm exchange", format_bytes(int(run.transport["exchange_bytes"]))]
            )
            t.add_row(
                [
                    "exchanges / rendezvous per step",
                    f"{run.transport['exchanges_per_step']:.1f}"
                    f" / {run.transport['rendezvous_per_step']:.1f}",
                ]
            )
        print(t.render())
    return 0


def _cmd_memory(args) -> int:
    from repro.analytics import memory_requirements

    req = memory_requirements(
        num_layers=args.layers,
        hidden_dim=args.hidden,
        attn_heads=args.heads,
        bsz_per_node=args.batch * 16,
        bsz_per_gpu=args.batch,
        seq=args.seq,
        ci=args.ci,
    )
    t = Table(
        ["quantity", "value"],
        title=f"Sec. 3 memory profile: nl={args.layers} hd={args.hidden}",
    )
    t.add_row(["parameters (Eq. 1)", format_count(req.params)])
    t.add_row(["model states (Eq. 2)", format_bytes(req.model_states)])
    t.add_row(["activation ckpts/node (Eq. 3)", format_bytes(req.activation_checkpoints)])
    t.add_row(["full activations/node", format_bytes(req.full_activations)])
    t.add_row(["MSWM per GPU (Eq. 4)", format_bytes(req.mswm)])
    t.add_row(["AWM per GPU (Eq. 5)", format_bytes(req.awm)])
    print(t.render())
    return 0


def _cmd_efficiency(args) -> int:
    from repro.analytics import (
        ait_activation_checkpoints,
        ait_optimizer_states,
        ait_param_grad,
        required_bandwidth,
    )

    streams = {
        "params": ait_param_grad(seq=args.seq, bsz=args.batch),
        "optimizer": ait_optimizer_states(seq=args.seq, bsz=args.batch),
        "activations": ait_activation_checkpoints(hidden_dim=args.hidden, ci=args.ci),
    }
    t = Table(
        ["data stream", "AIT (flop/byte)", f"bw for {args.target:.0%}"],
        title=f"Sec. 4 bandwidth requirements (seq={args.seq}, bsz={args.batch})",
    )
    for name, ait in streams.items():
        bw = required_bandwidth(ait=ait, target_efficiency=args.target)
        t.add_row([name, f"{ait:.0f}", format_bytes(int(bw)) + "/s"])
    print(t.render())
    return 0


def _cmd_plan(args) -> int:
    from repro.core.autotune import recommend_config
    from repro.hardware import dgx2_cluster

    params = int(float(args.params.rstrip("BT")) * (1e12 if args.params.endswith("T") else 1e9))
    cluster = dgx2_cluster(args.nodes)
    try:
        plan = recommend_config(
            cluster,
            params,
            bsz_per_gpu=args.batch,
            hidden_dim=args.hidden,
        )
    except ValueError as e:
        print(f"does not fit: {e}", file=sys.stderr)
        return 1
    t = Table(
        ["decision", "value"],
        title=f"Placement plan: {format_count(params)} params on"
        f" {args.nodes} DGX-2 node(s)",
    )
    t.add_row(["model shape", f"nl={plan.num_layers} hd={plan.hidden_dim}"])
    t.add_row(["fp16 params+grads", str(plan.param_device)])
    t.add_row(["optimizer states", str(plan.optimizer_device)])
    t.add_row(["activation ckpts", str(plan.activation_device)])
    t.add_row(["tiling factor", plan.tile_factor])
    t.add_row(["min batch/GPU for 50% eff.", plan.min_batch_per_gpu])
    t.add_row(["expected TFLOPs/GPU", f"{plan.expected_tflops_per_gpu:.1f}"])
    print(t.render())
    for note in plan.notes:
        print(f"  note: {note}")
    return 0


def _cmd_train_demo(args) -> int:
    if getattr(args, "backend", "loop") == "mp":
        return _train_demo_mp(args)
    return _train_demo_body(args)


def _train_demo_mp(args) -> int:
    """Process-parallel train-demo: one forked process per rank.

    Every rank runs the full demo body (replicated state, rank-local
    compute); non-rank-0 stdout is discarded so the output reads like the
    loop run.  Per-rank tracer shards are merged into one multi-process
    Chrome trace by the parent.
    """
    import contextlib
    import os

    from repro.comm import run_multiproc

    perfreport = getattr(args, "perfreport", False)
    want_trace = bool(args.trace or perfreport)

    def worker(backend) -> int:
        if backend.rank != 0:
            with open(os.devnull, "w") as sink:
                with contextlib.redirect_stdout(sink):
                    return _train_demo_body(args, comm_backend=backend)
        return _train_demo_body(args, comm_backend=backend)

    want_live = getattr(args, "live", False)
    postmortem = getattr(args, "postmortem", None)
    live_cfg = None
    on_view = None
    if want_live or postmortem:
        from repro.obs.live import LiveConfig, render_dashboard

        live_cfg = LiveConfig(postmortem_dir=postmortem, dashboard=want_live)
        if want_live:

            def on_view(view) -> None:
                print(render_dashboard(view))

    out = run_multiproc(
        args.world, worker, trace=want_trace, live=live_cfg, on_view=on_view
    )
    if args.trace and out.shards is not None:
        from repro.obs import write_merged_chrome_trace

        n = write_merged_chrome_trace(args.trace, out.shards)
        print(
            f"wrote {n} spans from {len(out.shards)} rank processes to"
            f" {args.trace} (open in Perfetto)"
        )
    return max(out.results)


def _train_demo_body(args, comm_backend=None) -> int:
    import contextlib

    from repro.core import OffloadConfig, OffloadDevice, ZeroConfig, ZeroInfinityEngine
    from repro.nn import GPTModel, TransformerConfig
    from repro.utils.rng import seeded_rng
    from repro.workloads import (
        ConstantSchedule,
        MarkovCorpus,
        Trainer,
        TrainerConfig,
        per_rank_batches,
    )

    perfreport = getattr(args, "perfreport", False)
    distributed = comm_backend is not None
    if (args.trace or perfreport) and not distributed:
        # perfreport post-processes spans, so it implies an enabled tracer
        from repro.obs import use_tracer

        trace_ctx = use_tracer()
    else:
        # mp rank processes run under the launcher-installed tracer; the
        # parent merges the per-rank shards into one Chrome trace
        trace_ctx = contextlib.nullcontext()
    memreport = getattr(args, "memreport", False)
    if memreport:
        from repro.obs import use_memscope

        scope_ctx = use_memscope()
    else:
        scope_ctx = contextlib.nullcontext()
    if getattr(args, "faults", None):
        from repro.faults import use_faults

        faults_ctx = use_faults(args.faults, seed=args.faults_seed)
    else:
        faults_ctx = contextlib.nullcontext()
    live_ctx = contextlib.nullcontext()
    flight_ctx = contextlib.nullcontext()
    want_live = getattr(args, "live", False)
    postmortem = getattr(args, "postmortem", None)
    if (want_live or postmortem) and not distributed:
        # mp workers get their plane from the launcher; the loop backend
        # hosts the aggregator (and dashboard) right here
        from repro.obs.flightrec import FlightRecorder, use_flightrec
        from repro.obs.live import LiveConfig, LivePlane, use_live

        live_cfg = LiveConfig(
            dashboard=want_live,
            refresh_steps=max(args.steps // 5, 1),
            postmortem_dir=postmortem,
        )
        recorder = FlightRecorder(capacity=live_cfg.flight_capacity)
        flight_ctx = use_flightrec(recorder)
        live_ctx = use_live(
            LivePlane(world=args.world, config=live_cfg, recorder=recorder)
        )

    model_cfg = TransformerConfig(
        num_layers=2,
        hidden_dim=args.hidden,
        num_heads=4,
        vocab_size=128,
        max_seq=16,
        activation_checkpointing=True,
    )
    dev = OffloadDevice(args.offload)
    check_cfg = None
    if args.check:
        from repro.check import CheckConfig

        # record mode: collect violations and summarize after the run
        check_cfg = CheckConfig.from_spec(args.check, mode="record")
    zero_cfg = ZeroConfig(
        world_size=args.world,
        offload=OffloadConfig(
            param_device=dev, grad_device=dev, optimizer_device=dev
        ),
        loss_scale=1.0,
        **({"check": check_cfg} if check_cfg is not None else {}),
    )
    with trace_ctx as tracer, scope_ctx as scope, faults_ctx as plane, flight_ctx, live_ctx, ZeroInfinityEngine(
        zero_cfg,
        model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(0)),
        lr=5e-3,
        comm_backend=comm_backend,
    ) as engine:
        if tracer is None and (args.trace or perfreport):
            from repro.obs import get_tracer

            tracer = get_tracer()
        data = per_rank_batches(
            MarkovCorpus(128, seed=1),
            world_size=args.world,
            bsz_per_rank=2,
            seq=16,
            seed=2,
        )
        hist = Trainer(
            engine,
            data,
            TrainerConfig(total_steps=args.steps, log_every=max(args.steps // 5, 1)),
            schedule=ConstantSchedule(lr=5e-3),
        ).fit()
        rep = engine.report()
        print(
            f"\ndone: loss {hist.losses[0]:.3f} -> {hist.final_loss:.3f}"
            f" in {hist.wall_seconds:.1f}s;"
            f" NVMe traffic {format_bytes(rep.nvme_read_bytes + rep.nvme_write_bytes)}"
        )
        if args.trace and not distributed:
            from repro.obs import telemetry_summary, write_chrome_trace

            n = write_chrome_trace(args.trace, tracer)
            print("\n" + telemetry_summary(tracer))
            print(f"\nwrote {n} spans to {args.trace} (open in Perfetto)")
        if memreport:
            from repro.obs.memreport import build_memreport

            report = build_memreport(
                engine, scope, bsz=2 * args.world, seq=16, ci=1
            )
            print("\n" + report.render())
        if perfreport:
            from repro.obs.perfreport import build_perfreport

            report = build_perfreport(
                engine, tracer, bsz=2 * args.world, seq=16, ci=1
            )
            print("\n" + report.render())
        if plane is not None:
            rep = engine.report()
            print(plane.summary())
            print(
                f"recovery: {rep.step_retries} step replay(s),"
                f" {rep.io_read_retries + rep.io_write_retries} I/O"
                f" retry(ies), {rep.checksum_refetches} checksum"
                f" re-fetch(es), {rep.pinned_fallbacks + rep.prefetch_fallbacks}"
                f" fallback(s), {rep.abandoned_prefetch_errors} abandoned"
                f" prefetch error(s)"
            )
        if engine.check_context is not None:
            print(engine.check_context.summary())
    if check_cfg is not None and check_cfg.lint:
        from repro.check.lint import run_lint

        report = run_lint()
        print(
            f"lint: {len(report.new_findings)} new finding(s),"
            f" {len(report.all_findings) - len(report.new_findings)}"
            f" absorbed by baseline"
        )
        for f in report.new_findings:
            print("  " + f.format())
        if not report.clean:
            return 1
    return 0


def _cmd_doctor(args) -> int:
    """Quick self-verification of every subsystem on this machine."""
    import numpy as np

    checks: list[tuple[str, bool, str]] = []

    def check(name, fn):
        try:
            detail = fn() or ""
            checks.append((name, True, str(detail)))
        except Exception as e:  # noqa: BLE001 - it's a doctor
            checks.append((name, False, f"{type(e).__name__}: {e}"))

    def nvme_roundtrip():
        from repro.nvme import TensorStore

        with TensorStore() as store:
            data = np.arange(10_000, dtype=np.float32)
            store.write("probe", data)
            assert np.array_equal(store.read("probe"), data)
        return "async file I/O round-trips bitwise"

    def gradcheck():
        from repro.nn import Linear
        from repro.utils.rng import seeded_rng

        lin = Linear(4, 3, rng=seeded_rng(0))
        for p in lin.parameters():
            p.data = p.data.astype(np.float64)
        x = seeded_rng(1).standard_normal((2, 4))
        y = lin(x)
        lin.backward(np.ones_like(y))
        eps, idx = 1e-6, (0, 0)
        w = lin.weight
        orig = w.data[idx]
        w.data[idx] = orig + eps
        lp = float(lin(x).sum())
        w.data[idx] = orig - eps
        lm = float(lin(x).sum())
        w.data[idx] = orig
        num = (lp - lm) / (2 * eps)
        assert abs(w.grad[idx] - num) < 1e-6
        return "autograd matches finite differences"

    def engine_equivalence():
        from repro.baselines import DDPTrainer
        from repro.core import (
            OffloadConfig,
            OffloadDevice,
            ZeroConfig,
            ZeroInfinityEngine,
        )
        from repro.nn import GPTModel, TransformerConfig
        from repro.utils.rng import seeded_rng, spawn_rngs

        def f():
            return GPTModel(
                TransformerConfig(
                    num_layers=1, hidden_dim=16, num_heads=2, vocab_size=32, max_seq=8
                ),
                rng=seeded_rng(0),
            )

        rngs = spawn_rngs(1, 2)
        b = [
            (r.integers(0, 32, (1, 8)), r.integers(0, 32, (1, 8))) for r in rngs
        ]
        ref = float(np.mean(DDPTrainer(f, 2, lr=1e-2).train_step(b)))
        cfg = ZeroConfig(
            world_size=2,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
            ),
            loss_scale=1.0,
        )
        with ZeroInfinityEngine(cfg, model_factory=f, lr=1e-2) as eng:
            got = eng.train_step(b).mean_loss
        assert abs(got - ref) < 1e-4
        return f"ZeRO-3+NVMe loss {got:.6f} == DDP {ref:.6f}"

    def simulator():
        from repro.core.config import Strategy
        from repro.hardware import dgx2_cluster
        from repro.sim import SimWorkload, StepSimulator, policy_for_strategy

        wl = SimWorkload(
            params=int(8e9), num_layers=10, hidden_dim=8192, attn_heads=16,
            batch_per_gpu=2,
        )
        b = StepSimulator(
            dgx2_cluster(4), wl, policy_for_strategy(Strategy.ZERO_INF_NVME)
        ).simulate()
        assert 0 < b.tflops_per_gpu < 70
        return f"modeled {b.tflops_per_gpu:.1f} TFlops/GPU for an 8B NVMe run"

    check("nvme", nvme_roundtrip)
    check("autograd", gradcheck)
    check("zero-engine", engine_equivalence)
    check("simulator", simulator)

    width = max(len(n) for n, _, _ in checks)
    ok = True
    for name, passed, detail in checks:
        status = "ok  " if passed else "FAIL"
        ok = ok and passed
        print(f"[{status}] {name.ljust(width)}  {detail}")
    print("\nall systems nominal" if ok else "\nproblems found", flush=True)
    return 0 if ok else 1


def _cmd_check_static(args) -> int:
    """Prove the SPMD schedule before any rank process launches."""
    from repro.check.static.driver import DEFAULT_MATRIX, run_static_check

    matrix = [
        spec
        for spec in DEFAULT_MATRIX
        if (args.stage is None or spec.stage == args.stage)
        and (args.world is None or spec.world == args.world)
        and (args.backend is None or spec.backend == args.backend)
    ]
    if not matrix:
        print("no matrix cell matches the requested filters")
        return 2
    report = run_static_check(matrix, lint=not args.no_lint)
    print(report.render())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="ZeRO-Infinity reproduction toolkit"
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("scale", help="max model size per strategy")
    s.add_argument("--nodes", type=int, default=1)
    s.add_argument("--strategy", type=str, default=None)
    s.add_argument("--batch", type=int, default=1)
    s.add_argument("--mp", type=int, default=4)
    s.add_argument("--tile-factor", type=int, default=16)
    s.set_defaults(fn=_cmd_scale)

    s = sub.add_parser("throughput", help="simulate a Table 1 workload")
    s.add_argument("--config", type=str, required=True)
    s.add_argument("--nodes", type=int, default=None)
    s.add_argument("--accum", type=int, default=1)
    s.add_argument("--gantt", action="store_true", help="render the timeline")
    s.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="write the simulated timeline as Chrome trace JSON",
    )
    s.add_argument(
        "--backend", type=str, default=None, choices=["loop", "mp"],
        help="also run a small functional calibration workload on this"
        " machine with the chosen collective backend and report its"
        " measured steps/s next to the simulated numbers",
    )
    s.add_argument(
        "--calib-world", type=int, default=2,
        help="world size for the --backend calibration run (default 2)",
    )
    s.set_defaults(fn=_cmd_throughput)

    s = sub.add_parser("memory", help="Sec. 3 memory profile")
    s.add_argument("--layers", type=int, required=True)
    s.add_argument("--hidden", type=int, required=True)
    s.add_argument("--heads", type=int, default=16)
    s.add_argument("--batch", type=int, default=2)
    s.add_argument("--seq", type=int, default=1024)
    s.add_argument("--ci", type=int, default=1)
    s.set_defaults(fn=_cmd_memory)

    s = sub.add_parser("efficiency", help="Sec. 4 bandwidth requirements")
    s.add_argument("--seq", type=int, default=1024)
    s.add_argument("--batch", type=int, default=2)
    s.add_argument("--hidden", type=int, default=8192)
    s.add_argument("--ci", type=int, default=1)
    s.add_argument("--target", type=float, default=0.5)
    s.set_defaults(fn=_cmd_efficiency)

    s = sub.add_parser("doctor", help="self-verify every subsystem")
    s.set_defaults(fn=_cmd_doctor)

    s = sub.add_parser(
        "check-static",
        help="statically verify the SPMD schedule (collectives, deadlock,"
        " locks) plus the repo lint",
    )
    s.add_argument(
        "--stage", type=int, choices=(2, 3), default=None,
        help="restrict the matrix to one ZeRO stage",
    )
    s.add_argument(
        "--world", type=int, default=None,
        help="restrict the matrix to one world size",
    )
    s.add_argument(
        "--backend", choices=("loop", "mp"), default=None,
        help="restrict the matrix to one comm backend",
    )
    s.add_argument(
        "--no-lint", action="store_true",
        help="skip the repo-wide lint pass (schedule verification only)",
    )
    s.set_defaults(fn=_cmd_check_static)

    s = sub.add_parser("plan", help="recommend placements for a model size")
    s.add_argument("--params", type=str, required=True, help="e.g. 100B or 1T")
    s.add_argument("--nodes", type=int, default=1)
    s.add_argument("--batch", type=int, default=2)
    s.add_argument("--hidden", type=int, default=None)
    s.set_defaults(fn=_cmd_plan)

    def _train_demo_args(s, *, offload_default: str) -> None:
        s.add_argument("--world", type=int, default=4)
        s.add_argument("--steps", type=int, default=10)
        s.add_argument("--hidden", type=int, default=64)
        s.add_argument(
            "--backend", type=str, default="loop", choices=["loop", "mp"],
            help="collective backend: 'loop' runs every rank in-process"
            " (the oracle); 'mp' forks one process per rank exchanging"
            " through shared memory (bit-identical numerics, parallel"
            " forward/backward)",
        )
        s.add_argument(
            "--offload",
            type=str,
            default=offload_default,
            choices=["gpu", "cpu", "nvme"],
        )
        s.add_argument(
            "--trace", type=str, default=None, metavar="PATH",
            help="record spans and write a Chrome trace JSON of the run",
        )
        s.add_argument(
            "--check", type=str, default=None, metavar="SPEC",
            help="run checker passes: 'all' or a comma list of"
            " zerosan,races,lint (violations are recorded and"
            " summarized after the run)",
        )
        s.add_argument(
            "--faults", type=str, default=None, metavar="SPEC",
            help="chaos run: inject faults from a spec like"
            " 'io_error@aio.read:times=2;bit_flip@aio.read' (see"
            " docs/resilience.md); the injection summary prints after"
            " the run",
        )
        s.add_argument(
            "--faults-seed", type=int, default=0,
            help="seed for probabilistic fault rules (default 0)",
        )
        s.add_argument(
            "--live", action="store_true",
            help="stream per-rank telemetry through repro.obs.live and"
            " render a top-style health dashboard while training (works"
            " for both backends; under mp the parent aggregates the shm"
            " telemetry ring)",
        )
        s.add_argument(
            "--postmortem", type=str, default=None, metavar="DIR",
            help="arm the crash flight recorder: on a terminal failure,"
            " dump a postmortem bundle (per-rank event tails, last-known"
            " state, Chrome-trace tail) into DIR",
        )
        s.set_defaults(fn=_cmd_train_demo)

    s = sub.add_parser("train-demo", help="short functional training run")
    _train_demo_args(s, offload_default="nvme")
    s.add_argument(
        "--memreport", action="store_true",
        help="profile the run with repro.obs.memscope and print per-tier"
        " watermarks, attribution and analytic-model drift",
    )
    s.add_argument(
        "--perfreport", action="store_true",
        help="trace the run with repro.obs.perfscope and print the step"
        " time ledger, stall attribution, critical path and Eq. (6)"
        " bandwidth drift",
    )

    s = sub.add_parser(
        "memreport",
        help="train-demo profiled by memscope: watermarks, attribution,"
        " and Sec. 3 model drift",
    )
    _train_demo_args(s, offload_default="gpu")
    s.set_defaults(memreport=True)

    s = sub.add_parser(
        "perfreport",
        help="train-demo traced by perfscope: time ledger, stalls,"
        " critical path, and Sec. 4 bandwidth drift",
    )
    _train_demo_args(s, offload_default="nvme")
    s.set_defaults(perfreport=True)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
