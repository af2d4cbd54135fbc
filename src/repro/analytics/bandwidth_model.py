"""Bandwidth requirements for efficient training (Sec. 4).

Implements the efficiency metric and the arithmetic-intensity expressions:

* Eq. (6): ``efficiency = ait*bw / (ait*bw + peak_tp)``;
* Eqs. (7)-(8): total computation per iteration
  ``2 * 4 * bsz * seq * params`` (fwd + 2x bwd + 1x recompute);
* Eq. (9): AIT w.r.t. parameters and gradients = ``seq * bsz``;
* Eq. (10): AIT w.r.t. optimizer states = ``seq * bsz / 4``;
* Eq. (11): AIT w.r.t. activation checkpoints = ``24 * hd * ci``.

``peak_tp`` defaults to the 70 TFlops/GPU the paper measured empirically on
V100s for hidden sizes 8K-64K (Sec. 4.2).  :func:`required_bandwidth`
inverts Eq. (6), which is how Table 3's future-hardware rows are produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import TFLOP

DEFAULT_PEAK_TP = 70 * TFLOP  # achievable single-GPU peak (Sec. 4.2)


def compute_per_iter_flops(*, bsz: int, seq: int, params: int) -> float:
    """Eq. (7): forward (2x) + backward (4x) + recompute (2x) per token."""
    if bsz <= 0 or seq <= 0 or params <= 0:
        raise ValueError("bsz, seq and params must be positive")
    return 2.0 * 4.0 * bsz * seq * params


def ait_param_grad(*, seq: int, bsz: int) -> float:
    """Eq. (9): FLOPs per byte moved for parameters + gradients.

    Derivation (Sec. 4.1): params are loaded for forward, backward, and
    recompute (3x) and gradients stored once (1x), i.e. ``4 * params``
    tensors = ``8 * params`` bytes in fp16, against ``8 * bsz * seq *
    params`` FLOPs — leaving ``seq * bsz``.
    """
    if seq <= 0 or bsz <= 0:
        raise ValueError("seq and bsz must be positive")
    return float(seq * bsz)


def ait_optimizer_states(*, seq: int, bsz: int) -> float:
    """Eq. (10): optimizer states are read+written once = 32x params bytes."""
    if seq <= 0 or bsz <= 0:
        raise ValueError("seq and bsz must be positive")
    return seq * bsz / 4.0


def ait_activation_checkpoints(*, hidden_dim: int, ci: int = 1) -> float:
    """Eq. (11): checkpoints are written in fwd and read in bwd."""
    if hidden_dim <= 0 or ci <= 0:
        raise ValueError("hidden_dim and ci must be positive")
    return 24.0 * hidden_dim * ci


def efficiency(*, ait: float, bw: float, peak_tp: float = DEFAULT_PEAK_TP) -> float:
    """Eq. (6): fraction of peak sustained at data-movement bandwidth ``bw``.

    ``bw`` in bytes/s, ``peak_tp`` in FLOP/s, ``ait`` in FLOP/byte.
    """
    if ait <= 0 or bw <= 0 or peak_tp <= 0:
        raise ValueError("ait, bw and peak_tp must be positive")
    x = ait * bw
    return x / (x + peak_tp)


def required_bandwidth(
    *, ait: float, target_efficiency: float, peak_tp: float = DEFAULT_PEAK_TP
) -> float:
    """Invert Eq. (6): bandwidth needed to sustain ``target_efficiency``."""
    if not 0.0 < target_efficiency < 1.0:
        raise ValueError("target_efficiency must be in (0, 1)")
    if ait <= 0 or peak_tp <= 0:
        raise ValueError("ait and peak_tp must be positive")
    return peak_tp / ait * target_efficiency / (1.0 - target_efficiency)


@dataclass(frozen=True)
class EfficiencyModel:
    """Eq. (6) bound to a workload (seq, bsz, hd, ci) and device peak."""

    seq: int = 1024
    bsz: int = 2
    hidden_dim: int = 8192
    ci: int = 1
    peak_tp: float = DEFAULT_PEAK_TP

    def activation_efficiency(self, bw: float) -> float:
        return efficiency(
            ait=ait_activation_checkpoints(hidden_dim=self.hidden_dim, ci=self.ci),
            bw=bw,
            peak_tp=self.peak_tp,
        )

    def future_hardware_row(self, *, peak_multiplier: float) -> dict[str, float]:
        """One Table 3 row: bandwidth needs when compute grows by ``x``.

        The slow-memory bound is the optimizer-state requirement at 90%
        efficiency with batch 2/GPU — the Sec. 4.2 worst case ("nearly
        1.5 TB/s").  Because ZeRO-Infinity partitions the optimizer step
        across all devices (Sec. 5.2.2), that aggregate divides by the
        paper's 512 devices to give the per-device slow-memory bandwidth
        (the paper's 3 GB/s on V100).  GPU-GPU comes from the parameter/gradient
        bound at 50% efficiency with batch 1 (the paper's 70 GB/s).
        """
        devices = 512
        peak = self.peak_tp * peak_multiplier
        slow_aggregate = required_bandwidth(
            ait=ait_optimizer_states(seq=self.seq, bsz=2),
            target_efficiency=0.9,
            peak_tp=peak,
        )
        gpu_gpu = required_bandwidth(
            ait=ait_param_grad(seq=self.seq, bsz=1),
            target_efficiency=0.5,
            peak_tp=peak,
        )
        return {
            "devices": float(devices),
            "peak_pflops_per_device": peak / 1e15,
            "slow_memory_bw_per_device": slow_aggregate / devices,
            "slow_memory_aggregate_bw": slow_aggregate,
            "gpu_to_gpu_bw": gpu_gpu,
        }
