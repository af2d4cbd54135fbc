"""ZeRO-Infinity: the paper's primary contribution.

The engine composes five technologies (Sec. 1 contributions list):

1. **Infinity offload engine** (:mod:`repro.core.offload`) — model states
   partitioned across ranks and placed on GPU, CPU, or NVMe;
2. **Memory-centric tiling** (:mod:`repro.core.tiling`) — large linear
   operators split into sequentially executed tiles so no model parallelism
   is needed to fit them;
3. **Bandwidth-centric partitioning** (:mod:`repro.core.partition`) —
   parameters sharded across *all* ranks and retrieved with allgather so
   every PCIe/NVMe link pulls its 1/dp share in parallel;
4. **Overlap-centric design** (:mod:`repro.core.prefetch`) — a dynamic
   prefetcher over the traced operator sequence that overlaps NVMe→CPU,
   CPU→GPU and GPU-GPU transfer legs with compute;
5. **Ease-inspired implementation** (:mod:`repro.core.coordinator`,
   :mod:`repro.core.external`, plus :mod:`repro.nn.init_context`) — hooks
   injected into the module tree automate all data movement; external
   parameters are auto-registered; models partition at construction.

:class:`~repro.core.engine.ZeroInfinityEngine` is the public facade.
"""

from repro.core.config import (
    OffloadDevice,
    OffloadConfig,
    ZeroConfig,
    ZeroStage,
    Strategy,
    STRATEGY_PRESETS,
)
from repro.core.bucket import BucketStats, GradientBucketStore
from repro.core.partition import ParamGroup, ParameterPartitioner
from repro.core.offload import InfinityOffloadEngine
from repro.core.coordinator import ParameterCoordinator
from repro.core.prefetch import DynamicPrefetcher, OperatorTrace
from repro.core.tiling import TiledLinear
from repro.core.external import (
    InterceptingParameterDict,
    register_external_parameter,
)
from repro.core.engine import ZeroInfinityEngine
from repro.core.checkpoint_io import load_checkpoint, save_checkpoint

__all__ = [
    "OffloadDevice",
    "OffloadConfig",
    "ZeroConfig",
    "ZeroStage",
    "Strategy",
    "STRATEGY_PRESETS",
    "ParamGroup",
    "ParameterPartitioner",
    "BucketStats",
    "GradientBucketStore",
    "InfinityOffloadEngine",
    "ParameterCoordinator",
    "DynamicPrefetcher",
    "OperatorTrace",
    "TiledLinear",
    "InterceptingParameterDict",
    "register_external_parameter",
    "ZeroInfinityEngine",
    "load_checkpoint",
    "save_checkpoint",
]
