"""Baselines the paper compares against.

* :mod:`repro.baselines.ddp` — classic data parallelism (torch-DDP
  equivalent): functional N-replica trainer used as the equivalence oracle;
* :mod:`repro.baselines.megatron` — Megatron-LM tensor slicing: functional
  column/row-parallel linears + the per-block communication cost model;
* :mod:`repro.baselines.pipeline` — pipeline parallelism: schedule/bubble
  model (GPipe-style);
* :mod:`repro.baselines.threed` — 3D parallelism: the composition of all
  three, with memory-per-GPU and step-time models used by Figs. 1 and 5.
"""

from repro.baselines.ddp import DDPTrainer
from repro.baselines.megatron import (
    ColumnParallelLinear,
    RowParallelLinear,
    TensorParallelMLP,
    megatron_comm_bytes_per_block,
)
from repro.baselines.pipeline import PipelineSchedule, pipeline_bubble_fraction
from repro.baselines.threed import ThreeDConfig, ThreeDModel, best_threed_config

__all__ = [
    "DDPTrainer",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "TensorParallelMLP",
    "megatron_comm_bytes_per_block",
    "PipelineSchedule",
    "pipeline_bubble_fraction",
    "PipelineSchedule",
    "ThreeDConfig",
    "ThreeDModel",
    "best_threed_config",
]
