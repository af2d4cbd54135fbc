"""3D parallelism: model (tensor) x pipeline x data (Sec. 2, the SOTA baseline).

Combines the Megatron communication model, the pipeline bubble model and
data-parallel gradient allreduce into per-GPU memory and step-time models.
Used by the Fig. 1 / Fig. 5 / Fig. 6a benches as "the relevant
state-of-the-art" comparator.  3D parallelism keeps all model states in GPU
memory — its scale ceiling — but avoids parameter movement entirely, so at
sizes where it fits it is highly efficient.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytics.bandwidth_model import DEFAULT_PEAK_TP
from repro.analytics.memory_model import (
    activation_checkpoint_bytes,
    awm_bytes,
    mswm_bytes,
)
from repro.baselines.megatron import megatron_comm_bytes_per_block
from repro.baselines.pipeline import pipeline_bubble_fraction
from repro.hardware.topology import ClusterTopology


@dataclass(frozen=True)
class ThreeDConfig:
    """A (mp, pp, dp) factorisation of the cluster."""

    mp: int  # tensor-slicing degree (within a node)
    pp: int  # pipeline stages
    dp: int  # data-parallel degree

    def __post_init__(self) -> None:
        if self.mp <= 0 or self.pp <= 0 or self.dp <= 0:
            raise ValueError("mp, pp, dp must be positive")

    @property
    def num_gpus(self) -> int:
        return self.mp * self.pp * self.dp


@dataclass
class ThreeDStepTime:
    compute: float
    total: float
    tflops_per_gpu: float
    fits: bool
    limiting_factor: str = ""


class ThreeDModel:
    """Memory and step-time model for 3D parallelism on a cluster."""

    def __init__(
        self,
        cluster: ClusterTopology,
        config: ThreeDConfig,
        *,
        peak_tp: float = DEFAULT_PEAK_TP,
    ) -> None:
        if config.num_gpus != cluster.num_gpus:
            raise ValueError(
                f"config covers {config.num_gpus} GPUs, cluster has"
                f" {cluster.num_gpus}"
            )
        if config.mp > cluster.node.gpus_per_node:
            raise ValueError("tensor slicing must stay within a node")
        self.cluster = cluster
        self.config = config
        self.peak_tp = peak_tp

    # --- memory --------------------------------------------------------------
    def fits(
        self,
        params: int,
        *,
        hidden_dim: int,
        num_layers: int,
        attn_heads: int,
        bsz_per_gpu: int,
        seq: int = 1024,
        ci: int = 1,
    ) -> tuple[bool, str]:
        c = self.config
        if num_layers < c.pp:
            return False, "fewer layers than pipeline stages"
        gpu_cap = self.cluster.node.gpu.memory.capacity_bytes
        state = 20 * params / c.num_gpus
        # tensor slicing divides both the largest operator and the block
        # activations across the mp group (Megatron's sliced activations)
        working = (
            mswm_bytes(hidden_dim)
            + awm_bytes(
                bsz=bsz_per_gpu,
                seq=seq,
                hidden_dim=hidden_dim,
                attn_heads=attn_heads,
                ci=ci,
            )
        ) / c.mp
        # each pipeline stage holds checkpoints for its nl/pp layers across
        # the ~pp microbatches in flight (1F1B steady state): the pp factors
        # cancel, leaving the full depth divided by the mp slicing
        ckpt = (
            activation_checkpoint_bytes(
                bsz=bsz_per_gpu,
                seq=seq,
                hidden_dim=hidden_dim,
                num_layers=num_layers,
                ci=ci,
            )
            / c.mp
        )
        needed = state + working + ckpt
        if needed > gpu_cap:
            return False, "gpu-memory"
        return True, ""

    # --- time ----------------------------------------------------------------
    def step_time(
        self,
        params: int,
        *,
        hidden_dim: int,
        num_layers: int,
        attn_heads: int,
        bsz_per_gpu: int,
        seq: int = 1024,
        microbatches: int | None = None,
        ci: int = 1,
    ) -> ThreeDStepTime:
        c = self.config
        ok, why = self.fits(
            params,
            hidden_dim=hidden_dim,
            num_layers=num_layers,
            attn_heads=attn_heads,
            bsz_per_gpu=bsz_per_gpu,
            seq=seq,
            ci=ci,
        )
        if not ok:
            return ThreeDStepTime(0, float("inf"), 0.0, False, why)
        m = microbatches if microbatches is not None else max(4 * c.pp, 1)
        # per-GPU compute: fwd(2) + bwd(4) + recompute(2) FLOPs per token,
        # over this GPU's parameter slice, on the per-GPU token stream
        flops = 8.0 * bsz_per_gpu * seq * params / (c.mp * c.pp)
        compute = flops / self.peak_tp
        # tensor-slicing allreduces over NVLink (mp is intra-node)
        nv = self.cluster.node.intra_node_link.bandwidth
        per_block_fwd = megatron_comm_bytes_per_block(
            bsz=bsz_per_gpu, seq=seq, hidden_dim=hidden_dim
        )
        blocks_per_gpu = num_layers / c.pp
        ring = 2.0 * (c.mp - 1) / max(c.mp, 1)
        mp_comm = (
            3.0 * per_block_fwd * blocks_per_gpu * ring / nv if c.mp > 1 else 0.0
        )  # fwd + bwd + recompute
        # data-parallel gradient allreduce over the fabric
        link = (
            self.cluster.inter_node_link.bandwidth
            if self.cluster.num_nodes > 1
            else nv
        )
        grad_bytes = 2.0 * params / (c.mp * c.pp)
        dp_comm = 2.0 * (c.dp - 1) / c.dp * grad_bytes / link if c.dp > 1 else 0.0
        busy = compute + mp_comm + dp_comm
        bubble_frac = pipeline_bubble_fraction(c.pp, m) if c.pp > 1 else 0.0
        total = busy / (1.0 - bubble_frac)
        # useful FLOPs exclude recomputation (the paper reports model FLOPs)
        useful = 6.0 * bsz_per_gpu * seq * params / (c.mp * c.pp)
        return ThreeDStepTime(
            compute=compute,
            total=total,
            tflops_per_gpu=useful / total / 1e12,
            fits=True,
        )


def best_threed_config(
    cluster: ClusterTopology,
    params: int,
    *,
    hidden_dim: int,
    num_layers: int,
    attn_heads: int,
    bsz_per_gpu: int,
    seq: int = 1024,
) -> tuple[ThreeDConfig | None, ThreeDStepTime | None]:
    """Search (mp, pp, dp) factorisations; return the fastest fitting one."""
    n = cluster.num_gpus
    best: tuple[ThreeDConfig, ThreeDStepTime] | None = None
    mp_options = [
        m
        for m in (1, 2, 4, 8, 16)
        if m <= cluster.node.gpus_per_node and n % m == 0
    ]
    for mp in mp_options:
        rest = n // mp
        pp = 1
        while pp <= rest:
            if rest % pp == 0:
                dp = rest // pp
                cfg = ThreeDConfig(mp=mp, pp=pp, dp=dp)
                model = ThreeDModel(cluster, cfg)
                t = model.step_time(
                    params,
                    hidden_dim=hidden_dim,
                    num_layers=num_layers,
                    attn_heads=attn_heads,
                    bsz_per_gpu=bsz_per_gpu,
                    seq=seq,
                )
                if t.fits and (best is None or t.total < best[1].total):
                    best = (cfg, t)
            pp *= 2
    if best is None:
        return None, None
    return best
