"""Baselines the paper compares against.

* :mod:`repro.baselines.ddp` — classic data parallelism (torch-DDP
  equivalent): functional N-replica trainer used as the equivalence oracle;
* :mod:`repro.baselines.megatron` — Megatron-LM tensor slicing: the
  per-block communication cost model;
* :mod:`repro.baselines.pipeline` — pipeline parallelism: the GPipe bubble
  model;
* :mod:`repro.baselines.threed` — 3D parallelism: the composition of all
  three, with memory-per-GPU and step-time models used by Figs. 1 and 5.
"""

from repro.baselines.ddp import DDPTrainer
from repro.baselines.megatron import megatron_comm_bytes_per_block
from repro.baselines.pipeline import pipeline_bubble_fraction
from repro.baselines.threed import ThreeDConfig, ThreeDModel, best_threed_config

__all__ = [
    "DDPTrainer",
    "megatron_comm_bytes_per_block",
    "pipeline_bubble_fraction",
    "ThreeDConfig",
    "ThreeDModel",
    "best_threed_config",
]
