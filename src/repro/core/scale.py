"""Maximum trainable model size per strategy (Fig. 1, Fig. 6a).

For each Table 2 strategy this module answers "does a model of P parameters
fit on this cluster?" from the Sec. 3 memory model, then binary-searches the
largest P.  The per-strategy placement arithmetic:

===============  ===========================================  ==================
strategy         GPU bytes/param                              slow-memory bound
===============  ===========================================  ==================
data parallel    20 (all three states replicated)             —
ZeRO-1           2 + 2 + 16/dp                                —
ZeRO-2           2 + (2 + 16)/dp                              —
ZeRO-Offload     2 (fp16 params replicated)                   18 P <= CPU
3D parallelism   20 / (mp * pp * dp) = 20 / N                 —
ZeRO-3           20 / dp                                      —
ZeRO-Inf (CPU)   ~0 (states partitioned + offloaded)          20 P <= CPU
ZeRO-Inf (NVMe)  ~0                                           20 P <= NVMe
===============  ===========================================  ==================

plus, for every strategy, per-GPU working memory: MSWM (Eq. 4; divided by
the tiling factor for ZeRO-Infinity, by mp for 3D parallelism) and AWM
(Eq. 5), and activation checkpoints (Eq. 3) on GPU — or on CPU for
ZeRO-Infinity, which offloads them (Sec. 5.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytics.memory_model import (
    activation_checkpoint_bytes,
    awm_bytes,
    layers_for_params,
    mswm_bytes,
)
from repro.core.config import Strategy
from repro.hardware.topology import ClusterTopology


def default_hidden_dim(params: int) -> int:
    """A paper-like hidden size for a given scale (Table 1 progression)."""
    K = 1024
    for bound, hd in [
        (2e9, 1536),
        (25e9, 4 * K),
        (150e9, 8 * K),
        (700e9, 18 * K),
        (2e12, 25 * K),
        (7e12, 48 * K),
        (15e12, 64 * K),
        (50e12, 88 * K),
        (float("inf"), 160 * K),
    ]:
        if params < bound:
            return hd
    raise AssertionError("unreachable")


def default_attn_heads(hidden_dim: int) -> int:
    """Heads scale with hidden size (Table 1 progression)."""
    return max(16, min(1024, hidden_dim // 128))


@dataclass(frozen=True)
class FitReport:
    """Whether a model fits, and what resource binds first."""

    fits: bool
    limiting_factor: str


@dataclass(frozen=True)
class MaxScaleResult:
    strategy: Strategy
    max_params: int
    hidden_dim: int
    num_layers: int
    limiting_factor: str


def model_fits(
    strategy: Strategy,
    cluster: ClusterTopology,
    params: int,
    *,
    seq: int = 1024,
    bsz_per_gpu: int = 1,
    mp_degree: int = 1,
    tile_factor: int = 1,
    hidden_dim: int | None = None,
    ci: int = 1,
) -> FitReport:
    """Check one (strategy, cluster, model size) combination."""
    if params <= 0:
        raise ValueError("params must be positive")
    hd = hidden_dim if hidden_dim is not None else default_hidden_dim(params)
    heads = default_attn_heads(hd)
    nl = layers_for_params(params, hd)
    n_gpus = cluster.num_gpus
    dp = max(n_gpus // mp_degree, 1)
    gpu_cap = cluster.node.gpu.memory.capacity_bytes
    cpu_cap = cluster.cpu_memory_bytes
    nvme_cap = cluster.nvme_bytes

    # --- model-state placement ------------------------------------------------
    cpu_needed = 0
    nvme_needed = 0
    if strategy is Strategy.DATA_PARALLEL:
        gpu_state = 20 * params
    elif strategy is Strategy.ZERO_2:
        gpu_state = 2 * params + (2 + 16) * params // dp
    elif strategy is Strategy.ZERO_OFFLOAD:
        gpu_state = 2 * params
        cpu_needed = 18 * params
    elif strategy is Strategy.THREED:
        gpu_state = 20 * params // n_gpus
    elif strategy is Strategy.ZERO_3:
        gpu_state = 20 * params // dp
    elif strategy is Strategy.ZERO_INF_CPU:
        gpu_state = 0
        cpu_needed = 20 * params
    elif strategy is Strategy.ZERO_INF_NVME:
        gpu_state = 0
        nvme_needed = 20 * params
    else:  # pragma: no cover - exhaustive over Strategy
        raise ValueError(f"unknown strategy {strategy}")

    # --- working memory on GPU ------------------------------------------------
    mswm = mswm_bytes(hd)
    if strategy is Strategy.THREED:
        mswm //= mp_degree  # tensor slicing splits the big linear
    elif strategy in (Strategy.ZERO_INF_CPU, Strategy.ZERO_INF_NVME):
        mswm //= tile_factor  # memory-centric tiling (Sec. 5.1.3)
    awm = awm_bytes(bsz=bsz_per_gpu, seq=seq, hidden_dim=hd, attn_heads=heads, ci=ci)

    # --- activation checkpoints -------------------------------------------------
    ckpt_per_node = activation_checkpoint_bytes(
        bsz=bsz_per_gpu * cluster.node.gpus_per_node,
        seq=seq,
        hidden_dim=hd,
        num_layers=nl,
        ci=ci,
    )
    if strategy in (Strategy.ZERO_INF_CPU, Strategy.ZERO_INF_NVME):
        cpu_needed += ckpt_per_node * cluster.num_nodes  # CPU offload (5.1.2)
        gpu_ckpt = 0
    else:
        gpu_ckpt = ckpt_per_node // cluster.node.gpus_per_node

    gpu_needed = gpu_state + mswm + awm + gpu_ckpt

    limits = []
    if gpu_needed > gpu_cap:
        limits.append("gpu-memory")
    if cpu_needed > cpu_cap:
        limits.append("cpu-memory")
    if nvme_needed > nvme_cap:
        limits.append("nvme-capacity")
    return FitReport(
        fits=not limits,
        limiting_factor=limits[0] if limits else "",
    )


def max_model_size(
    strategy: Strategy,
    cluster: ClusterTopology,
    *,
    seq: int = 1024,
    bsz_per_gpu: int = 1,
    mp_degree: int = 1,
    tile_factor: int = 1,
    ci: int = 1,
) -> MaxScaleResult:
    """Largest parameter count that fits, by exponential + binary search."""
    lo = 10**6  # a million parameters always fits on the smallest target
    report = model_fits(
        strategy,
        cluster,
        lo,
        seq=seq,
        bsz_per_gpu=bsz_per_gpu,
        mp_degree=mp_degree,
        tile_factor=tile_factor,
        ci=ci,
    )
    if not report.fits:
        return MaxScaleResult(strategy, 0, 0, 0, report.limiting_factor)
    hi = lo
    while True:
        hi *= 2
        report = model_fits(
            strategy,
            cluster,
            hi,
            seq=seq,
            bsz_per_gpu=bsz_per_gpu,
            mp_degree=mp_degree,
            tile_factor=tile_factor,
            ci=ci,
        )
        if not report.fits:
            break
        lo = hi
        if hi > 10**16:  # 10 quadrillion params: search guard
            break
    limiting = report.limiting_factor
    while hi - lo > max(lo // 1000, 1):
        mid = (lo + hi) // 2
        report = model_fits(
            strategy,
            cluster,
            mid,
            seq=seq,
            bsz_per_gpu=bsz_per_gpu,
            mp_degree=mp_degree,
            tile_factor=tile_factor,
            ci=ci,
        )
        if report.fits:
            lo = mid
        else:
            hi = mid
            limiting = report.limiting_factor
    hd = default_hidden_dim(lo)
    return MaxScaleResult(
        strategy=strategy,
        max_params=lo,
        hidden_dim=hd,
        num_layers=layers_for_params(lo, hd),
        limiting_factor=limiting,
    )
