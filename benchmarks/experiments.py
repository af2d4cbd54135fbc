"""The paper's experiments as one table: ``EXPERIMENTS``.

Each row reproduces one artifact of ZeRO-Infinity's analysis (Secs. 3-4),
evaluation (Sec. 8) or outlook (Sec. 9), one ablation of a tunable this
implementation exposes, or one measurement of the machine it runs on.  A
row's callable computes the artifact through the library and returns an
:class:`Outcome`: the report text, the named shape checks that make it a
reproduction (who wins, by roughly what factor, where the crossovers fall),
and this repo's numbers, each next to the paper's where the row quotes one.

Kinds: ``modeled`` rows come from the capacity solver, the closed-form
efficiency model or the step simulator of a V100 cluster; ``engine counts``
rows count what the functional engine does on a small model; both are
deterministic.  The two ``machine measurement`` rows time this machine and
differ on every run.

``benchmarks/reproduce.py`` runs the rows and writes what they return;
``tests/test_experiments.py`` runs every deterministic row in tier 1.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import tempfile
import time
from typing import Callable, NamedTuple

import numpy as np

from repro.analytics import (
    FIG2A_ROWS, EfficiencyModel, activation_checkpoint_bytes, ait_activation_checkpoints,
    ait_optimizer_states, ait_param_grad, awm_bytes, checkpoint_batch_ceiling, efficiency,
    full_activation_bytes, model_states_bytes, mswm_bytes, transformer_params,
)
from repro.analytics.model_zoo import (
    FIG6A_CONFIGS, FIG6B_CONFIGS, FIG6C_CONFIG, FIG6C_GPU_SWEEP, FIG6D_BATCH_SWEEP,
    FIG6D_CONFIG, FIG6E_CONFIGS, TABLE1_CONFIGS,
)
from repro.baselines.threed import best_threed_config
from repro.core import OffloadConfig, OffloadDevice, ZeroConfig, ZeroInfinityEngine, ZeroStage
from repro.core.config import Strategy
from repro.core.scale import max_model_size
from repro.core.tiling import TiledLinear, split_sizes
from repro.hardware import CLUSTER_PRESETS, dgx2_cluster
from repro.hardware.memory import AllocationError, FirstFitAllocator
from repro.nn import GPTModel, Linear, TransformerConfig
from repro.sim import SimPolicy, SimWorkload, StepSimulator, policy_for_strategy
from repro.sim.step_model import policy_from_config
from repro.utils import Table, ascii_bar_chart, ascii_line_chart, format_count
from repro.utils.rng import seeded_rng, spawn_rngs
from repro.utils.units import GB, GIB, MIB, TB, TIB

MODELED = "modeled"
ENGINE = "engine counts"
MACHINE = "machine measurement"


class Outcome(NamedTuple):
    report: str
    checks: list[tuple[str, bool]]  # (shape check, holds)
    values: dict[str, str]  # this repo's numbers, by item


class Experiment(NamedTuple):
    id: str
    stem: str  # writes benchmarks/reports/<stem>.txt
    kind: str
    artifact: str
    run: Callable[[], Outcome]
    paper: dict[str, str]  # the paper's number for each item of ``values`` it has one for


def close(got: float, want: float, rel: float = 1e-6) -> bool:
    """``got == pytest.approx(want, rel=rel)``."""
    return abs(got - want) <= max(rel * abs(want), 1e-12)


def table(headers, rows, title, float_fmt="{:.2f}") -> str:
    t = Table(headers, title=title, float_fmt=float_fmt)
    for row in rows:
        t.add_row(row)
    return t.render()


def ascending(values) -> bool:
    values = list(values)
    return values == sorted(values)


def descending(values) -> bool:
    """Never rises, up to float noise."""
    return all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def joined(values, fmt="{:.2f}") -> str:
    return " / ".join(fmt.format(v) for v in values)


# --------------------------------------------------------- Secs. 3-4, Figs. 1-3


def fig1() -> Outcome:
    """32 DGX-2 nodes: 3D parallelism tops out near 650B, ZeRO-Infinity
    trains 32T.  Both capacities are solved from the Sec. 3 memory model."""
    cluster = dgx2_cluster(32)
    threed = max_model_size(Strategy.THREED, cluster, mp_degree=4, bsz_per_gpu=1)
    inf = max_model_size(Strategy.ZERO_INF_NVME, cluster, tile_factor=16, bsz_per_gpu=1)
    ratio = inf.max_params / threed.max_params
    t = table(
        ["system", "max params (solved)", "paper", "limited by"],
        [["3D parallelism", format_count(threed.max_params), "~650B", threed.limiting_factor],
         ["ZeRO-Infinity (NVMe, tiling 16)", format_count(inf.max_params),
          "32T demonstrated", inf.limiting_factor]],
        "Figure 1 — max model size on 32 DGX-2 nodes (512 V100 GPUs)",
    )
    chart = ascii_bar_chart(
        ["3D parallelism", "ZeRO-Infinity"], [threed.max_params / 1e12, inf.max_params / 1e12],
        title="max trainable parameters (trillions)", value_fmt="{:.2f}T",
    )
    return Outcome(
        f"{t}\n\n{chart}\n\nscale leap: {ratio:.0f}x (paper demonstrates 50x: 32T vs ~650B)",
        [("3D parallelism tops out at 0.4-0.9T", 0.4e12 < threed.max_params < 0.9e12),
         ("ZeRO-Infinity reaches > 30x beyond 3D", ratio > 30)],
        {"3D parallelism": f"{format_count(threed.max_params)}, {threed.limiting_factor}",
         "ZeRO-Infinity": f"{format_count(inf.max_params)} capacity, {inf.limiting_factor}",
         "scale leap": f"{ratio:.0f}x"},
    )


def fig2a() -> Outcome:
    """Memory requirements of massive models (memory columns binary)."""
    rows = []
    for _, nl, hd, heads in FIG2A_ROWS:
        params = transformer_params(nl, hd)
        act = full_activation_bytes(bsz=32, seq=1024, hidden_dim=hd, num_layers=nl,
                                    attn_heads=heads)
        ckpt = activation_checkpoint_bytes(bsz=32, seq=1024, hidden_dim=hd, num_layers=nl)
        awm = awm_bytes(bsz=4, seq=1024, hidden_dim=hd, attn_heads=heads)
        rows.append([f"{params / 1e12:.2f}T", nl, hd, heads, model_states_bytes(params) / TIB,
                     act / TIB, ckpt / TIB, mswm_bytes(hd) / GIB, awm / GIB])
    states, ckpts = [r[4] for r in rows], [r[6] for r in rows]
    return Outcome(
        table(["params", "layers", "hidden", "heads", "states TiB", "act TiB/node",
               "ckpt TiB/node", "MSWM GiB", "AWM GiB"], rows,
              "Figure 2a — memory requirements (bsz 32/node, 4/GPU; seq 1024)"),
        [("model states match the paper's rows within 1%", all(
            close(g, w, 0.01) for g, w in zip(states, [1.83, 9.16, 18.31, 182.81, 1845.70]))),
         ("activation checkpoints match the paper's rows within 10%", all(
             close(g, w, 0.1) for g, w in zip(ckpts, [0.05, 0.12, 0.20, 0.76, 3.08])))],
        {"model states, TiB": joined(states), "activation checkpoints, TiB/node": joined(ckpts)},
    )


def fig2b() -> Outcome:
    """DGX-2 cluster memory and achievable bandwidth, from the presets."""
    rows = {
        n: [n, c.num_gpus, c.gpu_memory_bytes / TB, c.cpu_memory_bytes / TB,
            c.nvme_bytes / TB, c.gpu_to_gpu_bw() / GB, c.node.cpu_bw_per_gpu_parallel / GB,
            c.node.nvme_bw_per_gpu_parallel / GB]
        for n, c in sorted(CLUSTER_PRESETS.items())
    }
    return Outcome(
        table(["nodes", "GPUs", "GPU TB", "CPU TB", "NVMe TB", "GPU-GPU GB/s",
               "CPU GB/s/GPU", "NVMe GB/s/GPU"], rows.values(),
              "Figure 2b — aggregate memory and achievable bandwidth, DGX-2"),
        [("64 nodes hold 1792 TB of NVMe", close(rows[64][4], 1792.0)),
         ("96 nodes hold 144 TB of CPU memory", close(rows[96][3], 144.0)),
         ("CPU bandwidth is 3.0 GB/s per GPU", close(rows[16][6], 3.0)),
         ("NVMe bandwidth is 1.6 GB/s per GPU", close(rows[16][7], 1.6))],
        {"NVMe TB, 64 nodes": f"{rows[64][4]:.0f}", "CPU TB, 96 nodes": f"{rows[96][3]:.0f}",
         "CPU / NVMe GB/s per GPU": f"{rows[16][6]:.1f} / {rows[16][7]:.1f}"},
    )


def fig3(letter, subject, bws, series, bw_fmt="{:.1f}") -> str:
    """One Fig. 3 panel, Eq. (6) per series over ``bws``: table and chart."""
    t = table(
        ["bandwidth GB/s", *series],
        [[bw_fmt.format(bw / GB), *(ys[i] for ys in series.values())]
         for i, bw in enumerate(bws)],
        f"Figure 3{letter} — efficiency vs {subject} bandwidth", float_fmt="{:.3f}",
    )
    chart = ascii_line_chart(np.log10(np.asarray(bws) / GB), series, height=14, width=60,
                             title=f"Fig 3{letter} (x: log10 GB/s, y: efficiency)")
    return f"{t}\n\n{chart}"


def batch_sweep(ait, bws) -> dict[str, list[float]]:
    return {f"bsz={b}": [efficiency(ait=ait(seq=1024, bsz=b), bw=bw) for bw in bws]
            for b in (1, 2, 4, 8, 16)}


def fig3a() -> Outcome:
    """Parameters and gradients: > 50% at 70 GB/s even at batch 1."""
    bws = np.logspace(0, 3, 13) * GB  # 1 GB/s .. 1 TB/s
    series = batch_sweep(ait_param_grad, bws)
    at70 = efficiency(ait=ait_param_grad(seq=1024, bsz=1), bw=70 * GB)
    return Outcome(
        fig3("a", "parameter/gradient", bws, series),
        [("> 50% at 70 GB/s, batch 1", at70 > 0.5),
         ("each batch's curve rises with bandwidth", all(map(ascending, series.values())))],
        {"efficiency at 70 GB/s, batch 1": f"{at70:.1%}"},
    )


def fig3b() -> Outcome:
    """Optimizer states need 4x the bandwidth of parameters and gradients
    for equal efficiency (the AIT ratio), ~1.5 TB/s for 90% at batch 2."""
    bws = np.logspace(0, 3.5, 13) * GB
    e_param = efficiency(ait=ait_param_grad(seq=1024, bsz=2), bw=50 * GB)
    e_opt = efficiency(ait=ait_optimizer_states(seq=1024, bsz=2), bw=200 * GB)
    at15 = efficiency(ait=ait_optimizer_states(seq=1024, bsz=2), bw=1.5 * TB)
    need = EfficiencyModel().future_hardware_row(peak_multiplier=1.0)["slow_memory_aggregate_bw"]
    return Outcome(
        fig3("b", "optimizer-state", bws, batch_sweep(ait_optimizer_states, bws)),
        [("4x the bandwidth gives the optimizer states equal efficiency", e_param == e_opt),
         ("> 90% at 1.5 TB/s, batch 2", at15 > 0.9)],
        {"bandwidth for 90%, batch 2": f"{need / TB:.2f} TB/s"},
    )


def fig3c() -> Outcome:
    """Activation checkpoints: 2 GB/s sustains > 50% at hidden 2K, and
    under 1 GB/s does beyond 8K."""
    bws = np.logspace(-1, 2, 13) * GB  # 0.1 .. 100 GB/s
    series = {
        f"hd={h // 1024}K": [
            efficiency(ait=ait_activation_checkpoints(hidden_dim=h), bw=bw) for bw in bws]
        for h in (2048, 8192, 16384, 32768, 65536)
    }
    e2k = EfficiencyModel(hidden_dim=2048).activation_efficiency(2 * GB)
    e8k = EfficiencyModel(hidden_dim=8192).activation_efficiency(1 * GB)
    return Outcome(
        fig3("c", "activation-checkpoint", bws, series, bw_fmt="{:.2f}"),
        [("> 50% at 2 GB/s, hidden 2K", e2k > 0.5), ("> 50% at 1 GB/s, hidden 8K", e8k > 0.5)],
        {"efficiency at 2 GB/s, hidden 2K": f"{e2k:.1%}",
         "efficiency at 1 GB/s, hidden 8K": f"{e8k:.1%}"},
    )


# ------------------------------------------------------------ Sec. 8, Figs. 5-6


def simulate(cluster, workload, policy):
    return StepSimulator(cluster, workload, policy).simulate()


def threed_fit(cluster, cfg):
    """3D parallelism's best configuration for ``cfg``, or None (OOM)."""
    return best_threed_config(
        cluster, cfg.params, hidden_dim=cfg.hidden_dim, num_layers=cfg.num_layers,
        attn_heads=cfg.attn_heads, bsz_per_gpu=max(int(cfg.batch_per_gpu), 1),
    )[1]


def workload(cfg, **kw) -> SimWorkload:
    return SimWorkload(params=cfg.params, num_layers=cfg.num_layers,
                       hidden_dim=cfg.hidden_dim, attn_heads=cfg.attn_heads, **kw)


FIG5A_MODELS = ("0.5T", "1T", "5T", "10T", "20T")
FIG5A_PAPER = {"0.5T": 49, "1T": 49, "10T": 43, "20T": 34}


def fig5a() -> Outcome:
    """512 GPUs: ZeRO-Infinity matches 3D parallelism at 0.5T and keeps
    training to 20T, where 3D runs out of memory beyond ~650B.  Gradient
    accumulation is sized for a ~4K-sequence effective batch.  The batch
    shrinks with the model because activation checkpoints must fit CPU
    memory (the Eq. (3) ceiling column)."""
    cluster = dgx2_cluster(32)
    zero, threed, accum, batch, ceiling = {}, {}, {}, {}, {}
    for m in FIG5A_MODELS:
        cfg = TABLE1_CONFIGS[f"{m}-32node"]
        accum[m] = max(1, round(4096 / cfg.total_batch))
        batch[m] = cfg.batch_per_gpu
        ceiling[m] = checkpoint_batch_ceiling(cfg.hidden_dim, cfg.num_layers)
        wl = SimWorkload.from_config(cfg, grad_accumulation_steps=accum[m])
        zero[m] = simulate(cluster, wl, policy_from_config(cfg)).tflops_per_gpu
        td = threed_fit(cluster, cfg)
        threed[m] = td.tflops_per_gpu if td else None
    t = table(
        ["model", "ZeRO-Inf TF/GPU", "3D par. TF/GPU", "paper ZeRO-Inf", "accum",
         "batch/GPU", "Eq. 3 ceiling"],
        [[m, zero[m], "OOM" if threed[m] is None else threed[m], FIG5A_PAPER.get(m, "-"),
          accum[m], f"{batch[m]:g}", ceiling[m]] for m in FIG5A_MODELS],
        "Figure 5a — throughput on 512 GPUs (V100, modeled)", float_fmt="{:.1f}",
    )
    chart = ascii_bar_chart(FIG5A_MODELS, list(zero.values()),
                            title="ZeRO-Infinity TFlops/GPU", value_fmt="{:.1f}")
    z05, td05 = zero["0.5T"], threed["0.5T"] or 0.0
    larger = list(zero.values())[1:]
    models = " / ".join(FIG5A_MODELS)
    return Outcome(
        f"{t}\n\n{chart}",
        [("3D parallelism fits 0.5T", threed["0.5T"] is not None),
         ("ZeRO-Infinity within 35% of 3D at 0.5T", abs(z05 - td05) < 0.35 * z05),
         ("3D parallelism runs out of memory at 5T, 10T and 20T",
          all(threed[m] is None for m in ("5T", "10T", "20T"))),
         ("ZeRO-Infinity declines monotonically from 1T to 20T",
          larger == sorted(larger, reverse=True)),
         ("ZeRO-Infinity > 15 TF/GPU at 20T", zero["20T"] > 15.0),
         ("every Table 1 batch sits under its Eq. (3) ceiling",
          all(batch[m] <= ceiling[m] for m in FIG5A_MODELS))],
        {**{f"{m}, TF/GPU": f"{zero[m]:.1f} (3D: "
            + ("OOM)" if threed[m] is None else f"{threed[m]:.1f})") for m in FIG5A_PAPER},
         f"batch/GPU, {models}": " / ".join(f"{batch[m]:g}" for m in FIG5A_MODELS),
         f"Eq. (3) batch ceiling, {models}":
             " / ".join(f"{ceiling[m]:.1f}" for m in FIG5A_MODELS)},
    )


def fig5b() -> Outcome:
    """Weak scaling of the 1T model: with batch per node held constant,
    aggregate throughput grows faster than the node count."""
    cfg = TABLE1_CONFIGS["1T-32node"]
    wl = workload(cfg, batch_per_gpu=cfg.batch_per_gpu, mp_degree=4, grad_accumulation_steps=4)
    policy = policy_for_strategy(Strategy.ZERO_INF_NVME)
    nodes = (4, 8, 16, 32)
    per_gpu = [simulate(dgx2_cluster(n), wl, policy).tflops_per_gpu for n in nodes]
    pflops = [tf * n * 16 / 1000 for tf, n in zip(per_gpu, nodes)]
    t = table(
        ["nodes", "GPUs", "TFlops/GPU", "aggregate PFlops", "vs linear-from-4"],
        [[n, n * 16, tf, pf, f"{pf / (pflops[0] * n / 4):.2f}x"]
         for n, tf, pf in zip(nodes, per_gpu, pflops)],
        "Figure 5b — weak scaling of the 1T model (NVMe offload)",
    )
    chart = ascii_bar_chart(
        [f"{n} nodes" for n in nodes], pflops, value_fmt="{:.2f}",
        title="aggregate PFlops (linear scaling would multiply the first bar)",
    )
    return Outcome(
        f"{t}\n\n{chart}",
        [("per-GPU throughput never falls with node count", ascending(per_gpu)),
         ("per-GPU throughput rises from 4 to 32 nodes", per_gpu[-1] > per_gpu[0]),
         ("8x the nodes give > 8x the throughput", pflops[-1] > 8 * pflops[0])],
        {"TF/GPU at 4 nodes": f"{per_gpu[0]:.1f}",
         "aggregate, 4 → 32 nodes": f"{pflops[-1] / pflops[0]:.1f}x"},
    )


FIG5C_MODELS = ("10B", "50B", "100B", "0.5T", "1T")


def fig5c() -> Outcome:
    """One DGX-2, no model parallelism: strong throughput through 100B,
    still training at 0.5-1T via NVMe, where 3D parallelism cannot go.
    The paper reads > 40 TF/GPU through 100B; the NVMe optimizer model
    here is slightly more conservative, landing at ~34-51."""
    cluster = dgx2_cluster(1)
    tflops, fits, rows = {}, {}, []
    for m in FIG5C_MODELS:
        cfg = TABLE1_CONFIGS[f"{m}-1node"]
        accum = max(1, round(512 / cfg.total_batch))
        wl = SimWorkload.from_config(cfg, grad_accumulation_steps=accum)
        tflops[m] = simulate(cluster, wl, policy_from_config(cfg)).tflops_per_gpu
        fits[m] = threed_fit(cluster, cfg) is not None
        rows.append([m, f"p:{cfg.param_device.value}/o:{cfg.optimizer_device.value}",
                     tflops[m], "fits" if fits[m] else "OOM"])
    t = table(["model", "placement", "ZeRO-Inf TF/GPU", "3D parallelism"], rows,
              "Figure 5c — single DGX-2 node, no model parallelism", float_fmt="{:.1f}")
    chart = ascii_bar_chart(FIG5C_MODELS, list(tflops.values()), value_fmt="{:.1f}",
                            title="TFlops/GPU on one DGX-2 (paper: >40 up to 100B)")
    return Outcome(
        f"{t}\n\n{chart}",
        [("> 30 TF/GPU through 100B", all(tflops[m] > 30.0 for m in FIG5C_MODELS[:3])),
         ("1T still trains, slower than 100B", 10.0 < tflops["1T"] < tflops["100B"]),
         ("3D parallelism cannot fit 0.5T", not fits["0.5T"]),
         ("3D parallelism cannot fit 1T", not fits["1T"])],
        {"TF/GPU, 10B / 50B / 100B": joined(list(tflops.values())[:3], "{:.1f}"),
         "TF/GPU, 0.5T / 1T": joined(list(tflops.values())[3:], "{:.1f}"),
         "3D parallelism on one node": "fits " + ", ".join(m for m in fits if fits[m])
         + "; OOM " + ", ".join(m for m in fits if not fits[m])},
    )


FIG6A_ORDER = (
    (Strategy.DATA_PARALLEL, "1.4B", {}),
    (Strategy.ZERO_2, "13B", {}),
    (Strategy.ZERO_OFFLOAD, "13B", {}),
    (Strategy.THREED, "20B", {"mp_degree": 4}),
    (Strategy.ZERO_3, "20B", {}),
    (Strategy.ZERO_INF_CPU, "~100B", {"tile_factor": 16}),
    (Strategy.ZERO_INF_NVME, "1T", {"tile_factor": 16}),
)


def fig6a() -> Outcome:
    """Max model size per placement strategy (Table 2) on one DGX-2: data
    parallelism 1.4B -> ZeRO-2 13B -> ZeRO-3 20B -> ZeRO-Infinity 1T."""
    cluster = dgx2_cluster(1)
    got = {s: max_model_size(s, cluster, bsz_per_gpu=1, **kw) for s, _, kw in FIG6A_ORDER}
    t = table(
        ["strategy", "max params (solved)", "paper", "limited by"],
        [[str(s), format_count(got[s].max_params), paper, got[s].limiting_factor]
         for s, paper, _ in FIG6A_ORDER],
        "Figure 6a — max model size per strategy, one DGX-2 (16 GPUs)",
    )
    chart = ascii_bar_chart([str(s) for s in got], [r.max_params / 1e9 for r in got.values()],
                            title="max parameters (billions, log-ish shape)", value_fmt="{:.1f}B")
    dp = got[Strategy.DATA_PARALLEL].max_params
    nvme = got[Strategy.ZERO_INF_NVME].max_params
    return Outcome(
        f"{t}\n\n{chart}\n\ntotal leap vs data parallelism: {nvme / dp:.0f}x (paper: 700x)",
        [("data parallelism fits 1.0-2.5B", 1.0e9 < dp < 2.5e9),
         ("ZeRO-2 fits 4-15x data parallelism", 4 < got[Strategy.ZERO_2].max_params / dp < 15),
         ("ZeRO-Infinity on CPU fits 50-110B",
          50e9 < got[Strategy.ZERO_INF_CPU].max_params < 110e9),
         ("ZeRO-Infinity on NVMe fits > 1T", nvme > 1e12),
         ("ZeRO-Infinity on NVMe fits > 400x data parallelism", nvme / dp > 400)],
        {**{str(s): format_count(r.max_params) for s, r in got.items()},
         "leap over data parallelism": f"{nvme / dp:.0f}x"},
    )


def hidden_fits(hd: int, tiles: int) -> bool:
    """Can one transformer block's params+grads be allocated tile-by-tile
    out of 32 GiB pre-fragmented into 2 GiB chunks?

    Mirrors ZeRO-3 + tiling execution: the tiling factor splits *both*
    dimensions of each linear (DeepSpeed's TiledLinear takes in_splits and
    out_splits, so "tiling factor 16" is a 16x16 grid), each tile's fused
    fp16 parameter+gradient region (the MSWM unit of Eq. 4) is resident
    alone, and every allocation must find a contiguous run.
    """
    allocator = FirstFitAllocator(32 * GIB, alignment=256)
    allocator.pre_fragment(2 * GIB)
    try:
        # the four block linears of Sec. 3, as (out, in) multiples of hd
        for out_m, in_m in ((3, 1), (1, 1), (4, 1), (1, 4)):
            rows, cols = out_m * hd, in_m * hd
            for rows_tile in split_sizes(rows, min(tiles, rows)):
                for cols_tile in split_sizes(cols, min(tiles, cols)):
                    allocator.free(allocator.malloc(2 * 2 * rows_tile * cols_tile))
        return True
    except AllocationError:
        return False


def fig6b() -> Outcome:
    """Largest hidden size per tiling factor when every allocation over
    2 GB fails: 8K untiled, 64K at factor 16.  The tiled operator is checked
    against the dense one at reduced scale."""
    grid = {
        tiles: max((hd for hd in (8192, 16384, 32768, 65536) if hidden_fits(hd, tiles)),
                   default=0)
        for tiles in (1, 2, 4, 8, 16)
    }
    rng = seeded_rng(0)
    dense = Linear(64, 256, rng=seeded_rng(1))
    tiled = TiledLinear.from_linear(dense, out_tiles=16)
    x = rng.standard_normal((2, 8, 64)).astype(np.float32)
    y_dense, y_tiled = dense(x), tiled(x)
    gx = tiled.backward(rng.standard_normal(y_dense.shape).astype(np.float32))
    paper = {1: "8K", 16: "64K"}
    return Outcome(
        table(["tiling factor", "max hidden size", "paper"],
              [[f, f"{hd // 1024}K" if hd else "OOM", paper.get(f, "")] for f, hd in grid.items()],
              "Figure 6b — largest hidden size under 2 GB fragmentation"),
        [("8K without tiling", grid[1] == 8192),
         ("64K at tiling factor 16", grid[16] == 65536),
         ("more tiles never shrink the hidden size", ascending(grid.values())),
         ("a tiled linear computes the dense one (rtol 1e-5, atol 1e-6)",
          y_tiled.shape == y_dense.shape and np.allclose(y_tiled, y_dense, rtol=1e-5, atol=1e-6)),
         ("a tiled linear's input gradient has the input's shape", gx.shape == (2, 8, 64))],
        {f"max hidden, tiling factor {f}": f"{grid[f] // 1024}K" for f in paper},
    )


def backward_time(sim) -> float:
    """Backward-phase cost: backward compute and gradient movement."""
    tasks = [t for t in sim.result.tasks
             if t.name.startswith(("compute-bwd", "rs-", "cg-grad", "nc-grad"))]
    return max(t.finish for t in tasks) - min(t.start for t in tasks)


def gpu_slice(gpus: int):
    """A DGX-2 slice.  On a partial node the one PCIe link ZeRO-Offload
    funnels through is shared by fewer GPUs, so its per-GPU share rises,
    which is why the speedup grows with GPU count."""
    if gpus >= 16:
        return dgx2_cluster(gpus // 16)
    c = dgx2_cluster(1)
    return dataclasses.replace(c, node=dataclasses.replace(c.node, gpus_per_node=gpus))


def fig6c() -> Outcome:
    """8B model, 4-64 GPUs (Table 6): bandwidth-centric partitioning writes
    each rank's gradient shard over its own PCIe link, where ZeRO-Offload
    funnels every gradient through one link per node."""
    cpu = OffloadDevice.CPU
    infinity = SimPolicy(name="zero-infinity", grad_device=cpu, optimizer_device=cpu,
                         bandwidth_centric=True, overlap=True)
    offload = SimPolicy(name="zero-offload", grad_device=cpu, optimizer_device=cpu,
                        partition_params=False, bandwidth_centric=False, overlap=False)
    wl = workload(FIG6C_CONFIG, batch_per_gpu=FIG6C_CONFIG.batch_per_gpu)
    rows, speedups = [], []
    for gpus in FIG6C_GPU_SWEEP:
        inf, off = (backward_time(simulate(gpu_slice(gpus), wl, p)) for p in (infinity, offload))
        speedups.append(off / inf)
        rows.append([gpus, inf, off, f"{off / inf:.2f}x"])
    t = table(["GPUs", "ZeRO-Inf bwd (s)", "ZeRO-Offload bwd (s)", "speedup"], rows,
              "Figure 6c — backward time with CPU gradient offload (8B model)")
    return Outcome(
        f"{t}\n\npaper: 'a speedup of nearly 2x at 64 GPUs'",
        [("ZeRO-Infinity is faster at every GPU count", all(s > 1.0 for s in speedups)),
         ("the speedup grows (or holds) with scale", speedups[-1] >= speedups[0]),
         ("> 1.3x at 64 GPUs", speedups[-1] > 1.3)],
        {"backward speedup at 64 GPUs": f"{speedups[-1]:.2f}x"},
    )


def fig6d() -> Outcome:
    """8B model, 64 GPUs (Table 7): overlap and prefetching matter most at
    small batch per GPU and fade at large batch."""
    cluster = dgx2_cluster(4)
    policies = (policy_for_strategy(Strategy.ZERO_3), SimPolicy(name="no-overlap", overlap=False))
    rows, speedups = [], []
    for bsz in FIG6D_BATCH_SWEEP:
        on, off = (simulate(cluster, workload(FIG6D_CONFIG, batch_per_gpu=bsz), p)
                   for p in policies)
        speedups.append(off.total_time / on.total_time)
        rows.append([bsz, on.tflops_per_gpu, off.tflops_per_gpu, f"{speedups[-1]:.2f}x"])
    t = table(["batch/GPU", "overlap TF/GPU", "no-overlap TF/GPU", "speedup"], rows,
              "Figure 6d — communication overlap & prefetching (8B, 64 GPUs)", float_fmt="{:.1f}")
    chart = ascii_bar_chart(
        [f"bsz={b}" for b in FIG6D_BATCH_SWEEP], speedups, value_fmt="{:.2f}x",
        title="overlap speedup (paper: large at small batch, ~1 at bsz 16)",
    )
    return Outcome(
        f"{t}\n\n{chart}",
        [("> 1.15x at the smallest batch", speedups[0] > 1.15),
         ("smaller at the largest batch", speedups[-1] < speedups[0]),
         ("never grows with batch", descending(speedups)),
         ("never a slowdown at the largest batch", speedups[-1] >= 1.0)],
        {"speedup at batch 2 / 16": f"{speedups[0]:.2f}x / {speedups[-1]:.2f}x"},
    )


def fig6e() -> Outcome:
    """Table 8 rows: offloading activation checkpoints to CPU costs "up to
    1.2x for small hidden sizes", next to nothing at 32K and 64K (the
    checkpoint AIT grows with hd, Eq. 11)."""
    rows, slowdowns = [], []
    for hd, cfg in sorted(FIG6E_CONFIGS.items()):
        cluster, wl = dgx2_cluster(cfg.num_nodes), SimWorkload.from_config(cfg)
        base, off = (
            simulate(cluster, wl, SimPolicy(name=name, optimizer_device=cfg.optimizer_device,
                                            act_offload=on))
            for name, on in (("no-act-offload", False), ("act-offload", True))
        )
        slowdowns.append(off.total_time / base.total_time)
        rows.append([f"{hd // 1024}K", base.tflops_per_gpu, off.tflops_per_gpu,
                     f"{slowdowns[-1]:.3f}x"])
    t = table(["hidden", "TF/GPU (no offload)", "TF/GPU (offload)", "slowdown"], rows,
              "Figure 6e — activation checkpoint CPU offload overhead", float_fmt="{:.1f}")
    chart = ascii_bar_chart(
        [f"hd={r[0]}" for r in rows], slowdowns, value_fmt="{:.3f}x",
        title="slowdown from checkpoint offload (paper: up to 1.2x at small hd)",
    )
    return Outcome(
        f"{t}\n\n{chart}",
        [("> 1.05x at hidden 2K", slowdowns[0] > 1.05),
         ("< 1.03x at hidden 64K", slowdowns[-1] < 1.03),
         ("never grows with hidden size", descending(slowdowns))],
        {"slowdown at hidden 2K": f"{slowdowns[0]:.2f}x",
         "slowdown at hidden 32K / 64K": joined(slowdowns[-2:], "{:.2f}x")},
    )


# ------------------------------------------------------------- Tables 1, 3, 4-8

T1_ADVERTISED = {
    "10B-1node": 10e9, "50B-1node": 50e9, "100B-1node": 100e9, "0.5T-1node": 0.5e12,
    "1T-1node": 1e12, "0.5T-32node": 0.5e12, "1T-32node": 1e12, "5T-32node": 5e12,
    "10T-32node": 10e12, "20T-32node": 20e12,
}


def config_table(title, configs) -> str:
    return table(
        ["name", "nodes", "GPUs", "mp", "layers", "hidden", "heads", "batch/GPU",
         "params (Eq. 1)", "param dev", "opt dev"],
        [[c.name, c.num_nodes, c.num_gpus, c.mp_degree, c.num_layers, c.hidden_dim,
          c.attn_heads, c.batch_per_gpu, format_count(c.params), c.param_device.value,
          c.optimizer_device.value] for c in configs],
        title,
    )


def table1() -> Outcome:
    """Tables 1 and 4-8, every workload the paper evaluates, each with the
    parameter count Eq. (1) derives from its (layers, hidden) pair.  Eq. (1)
    counts only the block linears, so small models undershoot their labels
    (the 1.4B row's embeddings are ~20% of it), and the paper's own "70B"
    row computes to 100B under its stated (125, 8192) shape: the checks hold
    the Eq. (1) values."""
    sections = [
        ("Table 1 — main experiment configurations", TABLE1_CONFIGS.values()),
        ("Table 4 — Fig. 6a configurations", FIG6A_CONFIGS.values()),
        ("Table 5 — Fig. 6b configurations", FIG6B_CONFIGS.values()),
        (f"Table 6 — Fig. 6c configuration (GPU sweep {list(FIG6C_GPU_SWEEP)})",
         [FIG6C_CONFIG]),
        (f"Table 7 — Fig. 6d configuration (batch sweep {list(FIG6D_BATCH_SWEEP)})",
         [FIG6D_CONFIG]),
        ("Table 8 — Fig. 6e configurations", FIG6E_CONFIGS.values()),
    ]
    t4 = {name: FIG6A_CONFIGS[name].params for name in ("1.4B", "70B", "1000B")}
    return Outcome(
        "\n\n".join(config_table(title, cfgs) for title, cfgs in sections),
        [("Table 1 rows derive the sizes their names advertise (13%)", all(
            close(TABLE1_CONFIGS[n].params, want, 0.13) for n, want in T1_ADVERTISED.items())),
         ("Table 4's 1.4B row is 1.13B under Eq. (1)", close(t4["1.4B"], 1.13e9, 0.02)),
         ("Table 4's 70B row is 100.7B under Eq. (1)", close(t4["70B"], 100.7e9, 0.02)),
         ("Table 4's 1000B row is 1T", close(t4["1000B"], 1e12, 0.05)),
         ("Table 5 holds single-layer models at each hidden size",
          all(c.num_layers == 1 and c.hidden_dim == hd for hd, c in FIG6B_CONFIGS.items())),
         ("Table 6 is the 8B model", close(FIG6C_CONFIG.params, 8e9, 0.01)),
         ("Table 7 is the 8B model", close(FIG6D_CONFIG.params, 8e9, 0.01)),
         ("Table 8 sweeps five hidden sizes",
          sorted(FIG6E_CONFIGS) == [2048, 8192, 16384, 32768, 65536]),
         ("Table 8's models have 5 layers each",
          all(c.num_layers == 5 for c in FIG6E_CONFIGS.values()))],
        {"Table 1, 10B ... 20T": " / ".join(
            format_count(TABLE1_CONFIGS[n].params, precision=1) for n in T1_ADVERTISED),
         "Table 4, 1.4B / 70B / 1000B": " / ".join(map(format_count, t4.values())),
         "Tables 6 and 7": format_count(FIG6C_CONFIG.params)},
    )


T3_PAPER = {"V100": (1.0, 3.0, 1.5, 70.0), "10x": (10.0, 30.0, 15.0, 700.0),
            "100x": (100.0, 300.0, 150.0, 7000.0)}  # x compute: GB/s, TB/s, GB/s


def table3() -> Outcome:
    """Bandwidth needs of 512 devices with 1x, 10x and 100x a V100's
    compute: the optimizer-state bound at 90% (batch 2) and the
    parameter/gradient bound at 50% (batch 1) of Eq. (6)."""
    model = EfficiencyModel()
    rows = {n: model.future_hardware_row(peak_multiplier=p[0]) for n, p in T3_PAPER.items()}
    v100 = rows["V100"]
    t = table(
        ["device", "peak PFlops", "slow-mem GB/s/dev (paper)", "slow-mem agg TB/s (paper)",
         "dev-dev GB/s (paper)"],
        [[n, f"{r['peak_pflops_per_device']:.2f}",
          f"{r['slow_memory_bw_per_device'] / GB:.1f} ({T3_PAPER[n][1]})",
          f"{r['slow_memory_aggregate_bw'] / TB:.2f} ({T3_PAPER[n][2]})",
          f"{r['gpu_to_gpu_bw'] / GB:.0f} ({T3_PAPER[n][3]})"] for n, r in rows.items()],
        "Table 3 — bandwidth needs at 512 devices (derived from Eq. 6)",
    )
    scaled = [(rows[n], T3_PAPER[n][0]) for n in ("10x", "100x")]
    slow, gg = v100["slow_memory_aggregate_bw"], v100["gpu_to_gpu_bw"]
    return Outcome(
        t,
        [("V100 slow memory ~3 GB/s per device (30%)",
          close(v100["slow_memory_bw_per_device"], 3.0 * GB, 0.3)),
         ("V100 slow memory ~1.5 TB/s aggregate (30%)", close(slow, 1.5 * TB, 0.3)),
         ("V100 device-device ~70 GB/s (5%)", close(gg, 70 * GB, 0.05)),
         ("device-device need scales with compute",
          all(close(r["gpu_to_gpu_bw"], m * gg) for r, m in scaled)),
         ("slow-memory need scales with compute",
          all(close(r["slow_memory_aggregate_bw"], m * slow) for r, m in scaled))],
        {"V100 slow memory, GB/s per device": f"{v100['slow_memory_bw_per_device'] / GB:.1f}",
         "V100 slow memory, TB/s aggregate": f"{slow / TB:.2f}",
         "device-device GB/s, V100 / 10x / 100x":
             joined([r["gpu_to_gpu_bw"] / GB for r in rows.values()], "{:.0f}")},
    )


# ------------------------------------------ ablations: the engine's own tunables

WORLD = 2
VOCAB = 32


def factory():
    cfg = TransformerConfig(num_layers=3, hidden_dim=32, num_heads=4, vocab_size=VOCAB,
                            max_seq=8)
    return GPTModel(cfg, rng=seeded_rng(7))


def batches(seed=0, vocab=VOCAB):
    return [(r.integers(0, vocab, (2, 8)), r.integers(0, vocab, (2, 8)))
            for r in spawn_rngs(seed, WORLD)]


def stage3(**kw) -> ZeroConfig:
    return ZeroConfig(world_size=WORLD, stage=ZeroStage.PARAMETERS, loss_scale=1.0, **kw)


def prefetch_depth() -> Outcome:
    """``ZeroConfig.prefetch_depth`` 0/1/2/4: NVMe prefetch hits, 3 steps."""
    got = {}
    for depth in (0, 1, 2, 4):
        cfg = stage3(offload=OffloadConfig(param_device=OffloadDevice.NVME), prefetch_depth=depth)
        with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
            for step in range(3):
                eng.train_step(batches(step))
            rep = eng.report()
        total = rep.prefetch_hits + rep.prefetch_misses
        got[depth] = (rep.prefetch_hits, rep.prefetch_misses,
                      rep.prefetch_hits / total if total else 0.0)
    return Outcome(
        table(["prefetch depth", "NVMe prefetch hits", "cold misses", "hit rate"],
              [[d, hits, misses, f"{rate:.0%}"] for d, (hits, misses, rate) in got.items()],
              "Ablation — prefetch depth vs NVMe read path (functional engine)"),
        [("depth 0 never hits", got[0][0] == 0),
         ("the default depth 2 hits > 50%", got[2][2] > 0.5),
         ("depth 4 hits at least as often as depth 1", got[4][0] >= got[1][0])],
        {"hit rate, depth 0 / 1 / 2 / 4": joined([r[2] for r in got.values()], "{:.0%}"),
         "hits / misses at depth ≥ 1": f"{got[1][0]} / {got[1][1]}"},
    )


def nvme_engine(**offload) -> dict:
    """Three steps of an NVMe stage-3 engine: the last step's read requests
    and the run's pinned-pool figures.  One 131 k-element embedding (a 65 k
    shard per rank) over small blocks: the chunk sizes the ablations sweep
    stream it in 16 spans, in 2, and whole."""
    model_cfg = TransformerConfig(num_layers=1, hidden_dim=32, num_heads=4, vocab_size=4096,
                                  max_seq=8)
    nvme = OffloadDevice.NVME
    cfg = stage3(offload=OffloadConfig(param_device=nvme, grad_device=nvme,
                                       optimizer_device=nvme, **offload))
    batch = batches(vocab=4096)
    with ZeroInfinityEngine(
        cfg, model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(7)), lr=1e-3
    ) as eng:
        for _ in range(2):
            eng.train_step(batch)
        stats = eng.offload.store.engine.stats
        reads_before = stats.read_requests
        eng.train_step(batch)
        rep = eng.report()
        return {"read_requests": stats.read_requests - reads_before,
                "pinned_peak": rep.pinned_peak_bytes, "fallbacks": rep.pinned_fallbacks,
                "reuse": eng.offload.pool.stats.reuse_hits,
                "acquisitions": eng.offload.pool.stats.acquisitions}


def pinned_budget() -> Outcome:
    """``OffloadConfig.pinned_budget_bytes``: the pinned peak never passes
    the budget (Sec. 6.3); a starved pool stages unpinned, a roomy one
    never does.  The pool reuses within a size class, so small prefetches
    cannot sit in the optimizer's buffers."""
    got = {b: nvme_engine(pinned_budget_bytes=b, optimizer_chunk_numel=1 << 15)
           for b in (1 << 18, 1 << 20, 1 << 22, 1 << 24)}
    fallbacks = [r["fallbacks"] for r in got.values()]
    return Outcome(
        table(["budget (B)", "acquisitions", "reuse hits", "unpinned fallbacks",
               "pinned peak (B)"],
              [[b, r["acquisitions"], r["reuse"], r["fallbacks"], r["pinned_peak"]]
               for b, r in got.items()],
              "Ablation — pinned staging budget (NVMe stage-3 engine, 3 steps)"),
        [("the pinned peak stays within every budget",
          all(r["pinned_peak"] <= b for b, r in got.items())),
         ("every budget reuses a cached buffer", all(r["reuse"] > 0 for r in got.values())),
         ("the smallest budget falls back, the largest never",
          fallbacks[0] > 0 and fallbacks[-1] == 0),
         ("more budget never costs more fallbacks", fallbacks == sorted(fallbacks, reverse=True))],
        {f"{b >> 10} KB budget": f"{r['fallbacks']} of {r['acquisitions']} unpinned,"
         f" {r['reuse']} reused, peak {r['pinned_peak']} B" for b, r in got.items()},
    )


def chunk_size() -> Outcome:
    """``OffloadConfig.optimizer_chunk_numel``: smaller chunks take more
    read requests and less pinned staging (the Sec. 5.2.2 streaming)."""
    got = {c: nvme_engine(optimizer_chunk_numel=c) for c in (1 << 12, 1 << 15, 1 << 18)}
    small, large = got[1 << 12], got[1 << 18]
    return Outcome(
        table(["chunk numel", "read requests / step", "pinned peak (B)"],
              [[c, r["read_requests"], r["pinned_peak"]] for c, r in got.items()],
              "Ablation — NVMe optimizer streaming chunk size (NVMe stage-3 engine)"),
        [("the smallest chunk takes more read requests",
          small["read_requests"] > large["read_requests"]),
         ("the smallest chunk stages fewer pinned bytes",
          small["pinned_peak"] < large["pinned_peak"])],
        {"read requests / step, 4 K / 32 K / 256 K":
             joined([r["read_requests"] for r in got.values()], "{}"),
         "pinned peak, B": joined([r["pinned_peak"] for r in got.values()], "{}")},
    )


def reduce_bucket() -> Outcome:
    """``ZeroConfig.reduce_bucket_numel`` on a stage-3 engine under
    memscope: what a capacity buys (fewer reduce collectives) and costs
    (``world`` fused buffers of that many elements), the same with one
    process per rank, against DDP's one allreduce per parameter, at
    identical bits."""
    from repro.baselines.ddp import DDPTrainer
    from repro.comm import run_multiproc
    from repro.obs import MemScope, use_memscope

    steps = 2
    got = {}
    for capacity in (1 << 9, 1 << 11, 1 << 13, 1 << 15, 500_000):
        cfg = stage3(reduce_bucket_numel=capacity)
        with use_memscope(MemScope(enabled=True)) as scope:
            with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
                losses = [eng.train_step(batches(step)).losses for step in range(steps)]
                rep = eng.report()
                r = got[capacity] = {
                    "collectives": rep.comm_calls_by_op["reduce_scatter"] // steps,
                    "oversized": eng.coordinator.bucket_store.stats.oversized_flushes // steps,
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

        r["mp_losses"], transport = run_multiproc(WORLD, rank_process, timeout=60.0).results[0]
        for key in ("exchanges", "barrier_waits", "exchange_bytes"):
            r[key] = transport[key] // steps
    ddp = DDPTrainer(factory, WORLD, lr=1e-3)
    for step in range(steps):
        ddp.train_step(batches(step))
    ddp_calls = ddp.comm.stats.calls_by_op["allreduce"] // steps
    columns = ("collectives", "oversized", "bucket_bytes", "gpu_peak", "exchanges",
               "barrier_waits", "exchange_bytes")
    rows, first = got.values(), got[1 << 9]
    collectives = [r["collectives"] for r in rows]
    return Outcome(
        table(["reduce_bucket_numel", "reduce collectives / step", "of them oversized",
               "bucket (B)", "gpu peak (B)", "mp: exchanges / step", "mp: barrier waits / step",
               "mp: exchange bytes / step"],
              [[c, *(r[k] for k in columns)] for c, r in got.items()]
              + [["DDPTrainer (per-param allreduce)", ddp_calls] + ["-"] * 6],
              "Ablation — gradient reduce bucket capacity"
              " (stage-3 engine, world 2, fp32; mp = one process per rank)"),
        [("more capacity never takes more collectives",
          collectives == sorted(collectives, reverse=True)),
         ("the largest capacity takes fewer than the smallest", collectives[0] > collectives[-1]),
         ("the smallest capacity takes fewer collectives than DDP", collectives[0] < ddp_calls),
         ("one fused buffer per rank and nothing else",
          all(r["bucket_bytes"] == WORLD * c * 4 for c, r in got.items())),
         ("every capacity trains the same bits", all(r["losses"] == first["losses"] for r in rows)),
         ("one process per rank trains the same bits",
          all(r["mp_losses"] == r["losses"] for r in rows)),
         ("one ring exchange per reduce collective plus the step rendezvous",
          all(r["exchanges"] == r["collectives"] + 1 for r in rows)),
         ("every exchange waits at the barrier",
          all(r["barrier_waits"] >= r["exchanges"] for r in rows)),
         ("every gradient byte is published once whatever the capacity",
          all(r["exchange_bytes"] == first["exchange_bytes"] for r in rows)),
         ("more capacity never lowers the GPU peak", ascending(r["gpu_peak"] for r in rows))],
        {"reduce collectives / step, 512 → 500 K": f"{collectives[0]} → {collectives[-1]}",
         "fused buffers, B": f"{first['bucket_bytes']} → {got[500_000]['bucket_bytes']}",
         "DDPTrainer allreduces / step": str(ddp_calls)},
    )


def bandwidth_centric() -> Outcome:
    """Sec. 6.1 counted on the engine: every rank's host link carries the
    same bytes.  ZeRO-Offload's owner layout puts each parameter's bytes on
    its owner's one link; that row is derived (all of the step's bytes
    serialised on one link), not counted or checked."""
    cpu = OffloadDevice.CPU
    cfg = stage3(offload=OffloadConfig(param_device=cpu, grad_device=cpu, optimizer_device=cpu))
    with ZeroInfinityEngine(cfg, model_factory=factory, lr=1e-3) as eng:
        eng.train_step(batches())
        loads = dict(eng.report().host_link_bytes)
    total = sum(loads.values())
    return Outcome(
        table(["layout", "host links used", "max bytes on one link", "total bytes"],
              [["sharded/allgather", len(loads), max(loads.values()), total],
               ["owner/broadcast (derived)", 1, total, total]],
              "Ablation — bandwidth-centric parameter layout (Sec. 6.1)"),
        [("every rank's link is used", len(loads) == WORLD),
         ("every link carries the same bytes", max(loads.values()) == min(loads.values()))],
        {"bytes per host link, of the step's total": f"{max(loads.values())} of {total}"},
    )


# ---------------------------------------------------------- machine measurements


def deepnvme() -> Outcome:
    """DeepNVMe-style calibration of the async I/O engine (Sec. 6.3): the
    block size x thread sweep DeepSpeed's perf tools run, on the local disk,
    checking what does not depend on the disk: every configuration moves
    real data, reads land intact in the caller's buffer, and submission
    returns before the transfer completes (the overlap the prefetcher and
    the gradient offload live in)."""
    from repro.nvme import AsyncIOEngine

    data = np.random.default_rng(0).random(32 * MIB // 8)
    expect = np.random.default_rng(1).random(32 * MIB // 8)
    out = np.empty_like(expect)
    writes, reads = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for key in ((1, 1), (1, 8), (2, 1), (2, 8), (4, 1), (4, 8)):
            threads, block_mb = key
            with AsyncIOEngine(num_threads=threads, block_bytes=block_mb * MIB) as eng:
                t0 = time.perf_counter()
                eng.write(f"{tmp}/w{threads}_{block_mb}.bin", data)
                writes[key] = data.nbytes / (time.perf_counter() - t0) / MIB
                eng.write(f"{tmp}/r{threads}_{block_mb}.bin", expect)
                t0 = time.perf_counter()
                eng.read(f"{tmp}/r{threads}_{block_mb}.bin", out)
                reads[key] = expect.nbytes / (time.perf_counter() - t0) / MIB
        intact = np.array_equal(out, expect)
        with AsyncIOEngine(num_threads=2, block_bytes=4 * MIB) as eng:
            t0 = time.perf_counter()
            req = eng.submit_write(f"{tmp}/big.bin", np.zeros(64 * MIB // 8))
            submit_s = time.perf_counter() - t0
            req.wait()
            total_s = time.perf_counter() - t0
    return Outcome(
        table(["threads", "block MB", "write MB/s", "read MB/s"],
              [[*key, writes[key], reads[key]] for key in writes],
              "DeepNVMe stand-in: achieved bandwidth on local disk", float_fmt="{:.0f}"),
        [("every configuration writes > 10 MB/s", all(v > 10 for v in writes.values())),
         ("every configuration reads > 10 MB/s", all(v > 10 for v in reads.values())),
         ("reads land intact in the caller's buffer", intact),
         ("submission returns before the write completes", submit_s < total_s),
         ("submission takes < 0.25 s", submit_s < 0.25)],
        {},
    )


RECORD = pathlib.Path(__file__).resolve().parent.parent / "BENCH_overhead.json"


def overhead() -> Outcome:
    """The overhead contract of ``repro.obs.overhead``, every row measured:
    each plane alone, then all of them together.  ``BENCH_overhead.json`` is
    rewritten only when every row holds, so a failing run cannot overwrite
    the committed record.  ``tests/test_overhead.py`` holds the same rows in
    tier 1; throughput is gated by ``benchmarks/e2e/compare.py`` alone."""
    from repro.obs.overhead import measure_overhead, render_overhead

    reports = measure_overhead()
    ok = all(r.ok for r in reports)
    if ok:
        RECORD.write_text(json.dumps({"rows": [r.to_dict() for r in reports]}, indent=2) + "\n")
    return Outcome(render_overhead(reports), [("every row inside the contract", ok)], {})


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("F1", "fig1_model_scale", MODELED, "max model scale, 512 GPUs", fig1,
               {"3D parallelism": "~650B (OOM beyond)", "ZeRO-Infinity": "32T demonstrated",
                "scale leap": "50x"}),
    Experiment("F2a", "fig2a_memory_requirements", MODELED, "memory-requirements table", fig2a,
               {"model states, TiB": "1.83 / 9.16 / 18.31 / 182.81 / 1845.70",
                "activation checkpoints, TiB/node": "0.05 / 0.12 / 0.20 / 0.76 / 3.08"}),
    Experiment("F2b", "fig2b_cluster_memory_bandwidth", MODELED,
               "cluster memory/bandwidth table", fig2b,
               {"NVMe TB, 64 nodes": "1792", "CPU TB, 96 nodes": "144",
                "CPU / NVMe GB/s per GPU": "3.0 / 1.6"}),
    Experiment("F3a", "fig3a_param_grad_efficiency", MODELED,
               "efficiency vs parameter/gradient bandwidth", fig3a,
               {"efficiency at 70 GB/s, batch 1": "> 50%"}),
    Experiment("F3b", "fig3b_optimizer_efficiency", MODELED,
               "efficiency vs optimizer-state bandwidth", fig3b,
               {"bandwidth for 90%, batch 2": "nearly 1.5 TB/s"}),
    Experiment("F3c", "fig3c_activation_efficiency", MODELED,
               "efficiency vs activation-checkpoint bandwidth", fig3c,
               {"efficiency at 2 GB/s, hidden 2K": "> 50%",
                "efficiency at 1 GB/s, hidden 8K": "> 50%"}),
    Experiment("F5a", "fig5a_throughput", MODELED, "throughput vs model size, 512 GPUs", fig5a,
               {f"{m}, TF/GPU": f"{tf} (3D: {'~49' if m == '0.5T' else 'OOM'})"
                for m, tf in FIG5A_PAPER.items()}),
    Experiment("F5b", "fig5b_superlinear", MODELED, "superlinear weak scaling, 1T", fig5b,
               {"TF/GPU at 4 nodes": "44", "aggregate, 4 → 32 nodes": "> 8x (superlinear)"}),
    Experiment("F5c", "fig5c_single_node", MODELED, "single-node 10B-1T", fig5c,
               {"TF/GPU, 10B / 50B / 100B": "> 40", "TF/GPU, 0.5T / 1T": "trains, declining",
                "3D parallelism on one node": "OOM beyond ~20B"}),
    Experiment("F6a", "fig6a_strategy_scale", MODELED, "max size per strategy", fig6a,
               {**{str(s): paper for s, paper, _ in FIG6A_ORDER},
                "leap over data parallelism": "700x"}),
    Experiment("F6b", "fig6b_tiling", MODELED, "max hidden vs tiling factor", fig6b,
               {"max hidden, tiling factor 1": "8K", "max hidden, tiling factor 16": "64K"}),
    Experiment("F6c", "fig6c_grad_offload", MODELED, "grad offload, Inf vs Offload", fig6c,
               {"backward speedup at 64 GPUs": "nearly 2x"}),
    Experiment("F6d", "fig6d_overlap", MODELED, "overlap/prefetch speedup", fig6d,
               {"speedup at batch 2 / 16": "crucial / diminishing"}),
    Experiment("F6e", "fig6e_act_offload", MODELED, "activation-offload overhead", fig6e,
               {"slowdown at hidden 2K": "up to 1.2x", "slowdown at hidden 32K / 64K": "minimal"}),
    Experiment("T1", "table1_and_appendix_configs", MODELED,
               "experiment configurations (Tables 1, 4-8)", table1,
               {"Table 1, 10B ... 20T": "10B / 50B / 100B / 0.5T / 1T / 0.5T / 1T / 5T / 10T / 20T",
                "Table 4, 1.4B / 70B / 1000B": "1.4B / 70B / 1000B", "Tables 6 and 7": "8B"}),
    Experiment("T3", "table3_future_hw", MODELED, "future-hardware bandwidth", table3,
               {"V100 slow memory, GB/s per device": "3.0",
                "V100 slow memory, TB/s aggregate": "1.5",
                "device-device GB/s, V100 / 10x / 100x": "70 / 700 / 7000"}),
    Experiment("A-prefetch", "ablation_prefetch_depth", ENGINE,
               "prefetch depth vs NVMe prefetch hits", prefetch_depth, {}),
    Experiment("A-pinned", "ablation_pinned_budget", ENGINE,
               "pinned staging budget vs unpinned fallbacks", pinned_budget, {}),
    Experiment("A-chunk", "ablation_chunk_size", ENGINE,
               "optimizer chunk size vs read requests", chunk_size, {}),
    Experiment("A-bucket", "ablation_reduce_bucket", ENGINE,
               "reduce bucket capacity vs collectives", reduce_bucket, {}),
    Experiment("A-links", "ablation_bandwidth_centric", ENGINE,
               "bandwidth-centric host-link bytes (Sec. 6.1)", bandwidth_centric, {}),
    Experiment("DeepNVMe", "deepnvme_calibration", MACHINE,
               "async I/O bandwidth on the local disk", deepnvme, {}),
    Experiment("Overhead", "overhead", MACHINE,
               "compiled-in instrumentation cost per step", overhead, {}),
)
