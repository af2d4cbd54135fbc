"""The paper's experiment configurations (Table 1, appendix Tables 4-8).

Every evaluation figure references one of these configurations; the bench
harness pulls them from here so the reproduced experiments run the exact
model shapes the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytics.memory_model import transformer_params
from repro.core.config import OffloadDevice


@dataclass(frozen=True)
class ExperimentConfig:
    """One row of an experiment-configuration table."""

    name: str
    num_nodes: int
    num_gpus: int
    mp_degree: int  # model-parallel (tensor-slicing) degree; 1 = none
    num_layers: int
    hidden_dim: int
    attn_heads: int
    batch_per_gpu: float
    seq: int = 1024
    param_device: OffloadDevice = OffloadDevice.NONE
    optimizer_device: OffloadDevice = OffloadDevice.NONE

    @property
    def params(self) -> int:
        """Approximate parameter count via Eq. (1)."""
        return transformer_params(self.num_layers, self.hidden_dim)

    @property
    def total_batch(self) -> float:
        return self.batch_per_gpu * self.num_gpus


def _cfg(name, nodes, mp, nl, hd, heads, bsz, pdev, odev) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        num_nodes=nodes,
        num_gpus=nodes * 16,
        mp_degree=mp,
        num_layers=nl,
        hidden_dim=hd,
        attn_heads=heads,
        batch_per_gpu=bsz,
        param_device=pdev,
        optimizer_device=odev,
    )


_G = OffloadDevice.NONE
_C = OffloadDevice.CPU
_N = OffloadDevice.NVME
_K = 1024  # the paper: "K for 1024"

#: Table 1: main experiment configurations.
TABLE1_CONFIGS: dict[str, ExperimentConfig] = {
    c.name: c
    for c in [
        _cfg("10B-1node", 1, 1, 50, 4 * _K, 16, 8, _G, _G),
        _cfg("50B-1node", 1, 1, 62, 8 * _K, 32, 26, _C, _N),
        _cfg("100B-1node", 1, 1, 125, 8 * _K, 32, 24, _C, _N),
        _cfg("0.5T-1node", 1, 1, 124, 18 * _K, 64, 8, _N, _N),
        _cfg("1T-1node", 1, 1, 128, 25 * _K, 128, 7, _N, _N),
        _cfg("0.5T-32node", 32, 4, 124, 18 * _K, 64, 7, _G, _G),
        _cfg("1T-32node", 32, 4, 128, 25 * _K, 128, 5, _G, _G),
        _cfg("5T-32node", 32, 4, 174, 48 * _K, 256, 3, _N, _N),
        _cfg("10T-32node", 32, 4, 200, 64 * _K, 512, 2, _N, _N),
        _cfg("20T-32node", 32, 8, 205, 88 * _K, 512, 1.25, _N, _N),
    ]
}

#: Table 4: Fig. 6a max-model-size configurations (single DGX-2, 16 GPUs).
FIG6A_CONFIGS: dict[str, ExperimentConfig] = {
    c.name: c
    for c in [
        _cfg("1.4B", 1, 1, 40, 1536, 16, 1, _G, _G),
        _cfg("10B", 1, 1, 50, 4096, 16, 1, _G, _G),
        _cfg("13B", 1, 1, 64, 4096, 16, 1, _G, _C),
        _cfg("20B-zero3", 1, 1, 98, 4096, 32, 1, _G, _G),
        _cfg("20B-3d", 1, 4, 98, 4096, 32, 1, _G, _G),
        _cfg("70B", 1, 1, 125, 8192, 32, 1, _C, _C),
        _cfg("1000B", 1, 4, 128, 25600, 256, 5, _N, _N),
    ]
}

#: Table 5: Fig. 6b max-hidden-size configurations (1-layer transformer).
FIG6B_CONFIGS: dict[int, ExperimentConfig] = {
    hd: ExperimentConfig(
        name=f"hd{hd}",
        num_nodes=1,
        num_gpus=16,
        mp_degree=1,
        num_layers=1,
        hidden_dim=hd,
        attn_heads=16 if hd < 65536 else 32,
        batch_per_gpu=1,
    )
    for hd in (8192, 16384, 32768, 65536)
}

#: Table 6: Fig. 6c configuration (8B model, sweep of GPU counts).
FIG6C_CONFIG = ExperimentConfig(
    name="8B-grad-offload",
    num_nodes=4,
    num_gpus=64,
    mp_degree=1,
    num_layers=10,
    hidden_dim=8192,
    attn_heads=16,
    batch_per_gpu=2,
)
FIG6C_GPU_SWEEP = (4, 16, 32, 64)

#: Table 7: Fig. 6d configuration (8B model, batch-size sweep on 64 GPUs).
FIG6D_CONFIG = ExperimentConfig(
    name="8B-overlap",
    num_nodes=4,
    num_gpus=64,
    mp_degree=1,
    num_layers=10,
    hidden_dim=8192,
    attn_heads=16,
    batch_per_gpu=2,
)
FIG6D_BATCH_SWEEP = (2, 4, 8, 10, 14, 16)

#: Table 8: Fig. 6e configurations (activation checkpoint offload).
FIG6E_CONFIGS: dict[int, ExperimentConfig] = {
    hd: ExperimentConfig(
        name=f"act-offload-hd{hd}",
        num_nodes=4 if hd == 65536 else 2,
        num_gpus=64 if hd == 65536 else 32,
        mp_degree=1,
        num_layers=5,
        hidden_dim=hd,
        attn_heads=16,
        batch_per_gpu=4,
        optimizer_device=_N if hd == 65536 else _C,
    )
    for hd in (2048, 8192, 16384, 32768, 65536)
}

#: Fig. 2a rows: (params_label, layers, hidden, attn_heads).  Hidden sizes
#: are the paper's "10K"-style labels, interpreted as multiples of 1024.
FIG2A_ROWS: list[tuple[str, int, int, int]] = [
    ("0.10T", 80, 10 * _K, 128),
    ("0.50T", 100, 20 * _K, 160),
    ("1.01T", 128, 25 * _K, 256),
    ("10.05T", 195, 64 * _K, 512),
    ("101.47T", 315, 160 * _K, 1024),
]
