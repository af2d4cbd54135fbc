"""Configuration recommendation: where should this model's states live?

Table 1 encodes the authors' placement decisions per scale (GPU to 10B on a
node, CPU params + NVMe optimizer at 50-100B, all-NVMe at 0.5T+).  This
module turns that implicit decision procedure into an explicit planner:

1. choose the *fastest tier that fits* for each model state, in order
   GPU -> CPU -> NVMe (capacity checks from the Sec. 3 memory model);
2. pick the smallest memory-centric tiling factor whose largest tile's
   MSWM fits GPU working memory;
3. from the Sec. 4 efficiency model, report the minimum batch per GPU at
   which the slow-memory bandwidth sustains the target efficiency;
4. estimate achievable TFLOPs/GPU with the step simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analytics.bandwidth_model import (
    DEFAULT_PEAK_TP,
    ait_optimizer_states,
    ait_param_grad,
    efficiency,
)
from repro.analytics.memory_model import (
    activation_checkpoint_bytes,
    layers_for_params,
    mswm_bytes,
)
from repro.core.config import OffloadDevice
from repro.core.scale import default_attn_heads, default_hidden_dim
from repro.hardware.topology import ClusterTopology


@dataclass(frozen=True)
class RecommendedPlan:
    """The planner's output: placements plus the numbers behind them."""

    params: int
    hidden_dim: int
    num_layers: int
    param_device: OffloadDevice
    optimizer_device: OffloadDevice
    activation_device: OffloadDevice
    tile_factor: int
    min_batch_per_gpu: int
    expected_tflops_per_gpu: float
    notes: tuple[str, ...]


def _first_fitting_tier(
    needed: int, *, gpu_free: int, cpu_free: int, nvme_free: int
) -> Optional[OffloadDevice]:
    if needed <= gpu_free:
        return OffloadDevice.NONE
    if needed <= cpu_free:
        return OffloadDevice.CPU
    if needed <= nvme_free:
        return OffloadDevice.NVME
    return None


def recommend_config(
    cluster: ClusterTopology,
    params: int,
    *,
    seq: int = 1024,
    bsz_per_gpu: int = 2,
    hidden_dim: Optional[int] = None,
    target_efficiency: float = 0.5,
    peak_tp: float = DEFAULT_PEAK_TP,
) -> RecommendedPlan:
    """Plan device placement and tiling for ``params`` on ``cluster``.

    Raises ``ValueError`` when no placement fits — with the limiting
    resource named, mirroring the scale solver's diagnostics.
    """
    if params <= 0:
        raise ValueError("params must be positive")
    hd = hidden_dim if hidden_dim is not None else default_hidden_dim(params)
    nl = layers_for_params(params, hd)
    heads = default_attn_heads(hd)
    notes: list[str] = []

    gpus = cluster.num_gpus
    # reserve 30% of GPU memory for working tensors and activations
    gpu_budget = int(cluster.gpu_memory_bytes * 0.7)
    cpu_budget = cluster.cpu_memory_bytes
    nvme_budget = cluster.nvme_bytes

    # --- activation checkpoints claim their tier first (Sec. 5.1.2) -------
    ckpt = activation_checkpoint_bytes(
        bsz=bsz_per_gpu * cluster.node.gpus_per_node,
        seq=seq,
        hidden_dim=hd,
        num_layers=nl,
    ) * cluster.num_nodes
    if ckpt <= gpu_budget // 4:
        act_device = OffloadDevice.NONE
        gpu_budget -= ckpt
    elif ckpt <= cpu_budget:
        act_device = OffloadDevice.CPU
        cpu_budget -= ckpt
        notes.append("activation checkpoints offloaded to CPU")
    elif ckpt <= nvme_budget:
        act_device = OffloadDevice.NVME
        nvme_budget -= ckpt
        notes.append("activation checkpoints offloaded to NVMe (Sec. 8.2)")
    else:
        raise ValueError("activation checkpoints exceed every tier: nvme-capacity")

    # --- fp16 parameters + gradients (4 B/param), then optimizer (16 B) ---
    pg_bytes = 4 * params
    param_device = _first_fitting_tier(
        pg_bytes, gpu_free=gpu_budget, cpu_free=cpu_budget, nvme_free=nvme_budget
    )
    if param_device is None:
        raise ValueError("parameters+gradients exceed every tier: nvme-capacity")
    if param_device is OffloadDevice.NONE:
        gpu_budget -= pg_bytes
    elif param_device is OffloadDevice.CPU:
        cpu_budget -= pg_bytes
        notes.append("fp16 parameters+gradients offloaded to CPU")
    else:
        nvme_budget -= pg_bytes
        notes.append("fp16 parameters+gradients offloaded to NVMe")

    opt_bytes = 16 * params
    optimizer_device = _first_fitting_tier(
        opt_bytes, gpu_free=gpu_budget, cpu_free=cpu_budget, nvme_free=nvme_budget
    )
    if optimizer_device is None:
        raise ValueError("optimizer states exceed every tier: nvme-capacity")
    if optimizer_device is OffloadDevice.CPU:
        notes.append("optimizer states offloaded to CPU")
    elif optimizer_device is OffloadDevice.NVME:
        notes.append("optimizer states offloaded to NVMe (chunked streaming)")

    # --- memory-centric tiling factor (per-dimension, Sec. 5.1.3) ---------
    per_gpu = cluster.node.gpu.memory.capacity_bytes
    working_budget = per_gpu // 4
    tile_factor = 1
    while mswm_bytes(hd) // (tile_factor**2) > working_budget:
        tile_factor *= 2
        if tile_factor > 256:
            raise ValueError("no tiling factor fits the working memory")
    if tile_factor > 1:
        notes.append(
            f"memory-centric tiling x{tile_factor} (MSWM"
            f" {mswm_bytes(hd) / 1e9:.1f} GB untiled)"
        )

    # --- minimum efficient batch (Sec. 4) ---------------------------------
    slowest_bw = {
        OffloadDevice.NONE: cluster.node.gpu.memory.read_bw,
        OffloadDevice.CPU: cluster.node.cpu_bw_per_gpu_parallel,
        OffloadDevice.NVME: cluster.node.nvme_bw_per_gpu_parallel,
    }
    pg_bw = slowest_bw[param_device]
    min_batch = 1
    while (
        efficiency(
            ait=ait_param_grad(seq=seq, bsz=min_batch), bw=pg_bw, peak_tp=peak_tp
        )
        < target_efficiency
        and min_batch < 4096
    ):
        min_batch *= 2
    # optimizer bandwidth is aggregate across ranks (Sec. 5.2.2); check it
    opt_bw_agg = slowest_bw[optimizer_device] * gpus
    opt_eff = efficiency(
        ait=ait_optimizer_states(seq=seq, bsz=max(bsz_per_gpu, min_batch)),
        bw=opt_bw_agg / gpus,
        peak_tp=peak_tp,
    )
    if opt_eff < target_efficiency:
        notes.append(
            "optimizer-state bandwidth is the efficiency bound; increase"
            " batch or gradient accumulation"
        )

    # --- expected throughput from the simulator ---------------------------
    from repro.sim.step_model import SimPolicy, SimWorkload, StepSimulator

    wl = SimWorkload(
        params=params,
        num_layers=nl,
        hidden_dim=hd,
        attn_heads=heads,
        batch_per_gpu=max(bsz_per_gpu, min_batch),
        seq=seq,
    )
    policy = SimPolicy(
        name="recommended",
        param_device=param_device,
        grad_device=param_device,
        optimizer_device=optimizer_device,
        act_offload=act_device is not OffloadDevice.NONE,
    )
    tflops = StepSimulator(cluster, wl, policy, peak_tp=peak_tp).simulate().tflops_per_gpu

    return RecommendedPlan(
        params=params,
        hidden_dim=hd,
        num_layers=nl,
        param_device=param_device,
        optimizer_device=optimizer_device,
        activation_device=act_device,
        tile_factor=tile_factor,
        min_batch_per_gpu=min_batch,
        expected_tflops_per_gpu=tflops,
        notes=tuple(notes),
    )
