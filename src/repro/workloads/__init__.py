"""Training workloads: synthetic data, LR schedules, and a trainer loop.

The paper trains GPT-like models on text; offline we substitute synthetic
token streams with enough structure to be learnable (so loss curves are
meaningful in tests and examples), plus the schedule/trainer scaffolding a
downstream user expects from a training library.
"""

from repro.workloads.calibrate import (
    CalibRun,
    CalibSpec,
    run_mp_training,
    run_training,
    state_digest,
)
from repro.workloads.data import MarkovCorpus, per_rank_batches
from repro.workloads.schedule import ConstantSchedule
from repro.workloads.trainer import Trainer, TrainerConfig
from repro.workloads.metrics import MetricsLogger

__all__ = [
    "CalibRun",
    "CalibSpec",
    "run_mp_training",
    "run_training",
    "state_digest",
    "MetricsLogger",
    "MarkovCorpus",
    "per_rank_batches",
    "ConstantSchedule",
    "Trainer",
    "TrainerConfig",
]
