"""ZeRO-Infinity reproduction.

A from-scratch Python implementation of *ZeRO-Infinity: Breaking the GPU
Memory Wall for Extreme Scale Deep Learning* (Rajbhandari et al., SC 2021),
including the substrates the paper depends on: a hook-capable module
framework over numpy, simulated multi-rank collectives, an asynchronous
NVMe offload stack, mixed-precision Adam, the Megatron/pipeline/3D
baselines, the paper's analytic memory and bandwidth models, and a
discrete-event performance simulator of V100 DGX-2 clusters.

Quickstart::

    import numpy as np
    from repro import (
        GPTModel, TransformerConfig, ZeroConfig, ZeroInfinityEngine,
        OffloadConfig, OffloadDevice,
    )

    cfg = TransformerConfig(num_layers=2, hidden_dim=64, num_heads=4,
                            vocab_size=256, max_seq=32)
    zcfg = ZeroConfig(
        world_size=4,
        offload=OffloadConfig(param_device=OffloadDevice.NVME,
                              optimizer_device=OffloadDevice.NVME),
        loss_scale=1.0,
    )
    engine = ZeroInfinityEngine(zcfg, model_factory=lambda: GPTModel(cfg))
    # engine.train_step([(ids_r0, tgt_r0), ..., (ids_r3, tgt_r3)])
"""

from repro.nn import (
    GPTModel,
    TransformerConfig,
    TransformerBlock,
    Linear,
    Module,
    Parameter,
)
from repro.core import (
    OffloadConfig,
    OffloadDevice,
    Strategy,
    TiledLinear,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.hardware import dgx2_cluster, dgx2_node

__version__ = "1.0.0"

__all__ = [
    "GPTModel",
    "TransformerConfig",
    "TransformerBlock",
    "Linear",
    "Module",
    "Parameter",
    "OffloadConfig",
    "OffloadDevice",
    "Strategy",
    "TiledLinear",
    "ZeroConfig",
    "ZeroInfinityEngine",
    "ZeroStage",
    "dgx2_cluster",
    "dgx2_node",
    "__version__",
]
