"""Hardware models of the paper's evaluation platform.

Device specifications (V100 GPU, host CPU memory, NVMe drives, PCIe Gen3,
NVLink, InfiniBand), node and cluster topologies (NVIDIA DGX-2, DGX-2
SuperPOD), and a memory allocator with controllable fragmentation.  The
numbers default to those the paper states in Fig. 2b and Sec. 4-6.
"""

from repro.hardware.devices import (
    DeviceSpec,
    GPUSpec,
    LinkSpec,
    MemorySpec,
    V100_32GB,
    DGX2_CPU_MEMORY,
    DGX2_NVME,
    PCIE_GEN3_X16,
    NVLINK_V100,
    INFINIBAND_800G,
)
from repro.hardware.topology import (
    ClusterTopology,
    NodeTopology,
    dgx2_node,
    dgx2_cluster,
    CLUSTER_PRESETS,
)
from repro.hardware.memory import (
    AllocationError,
    Block,
    FirstFitAllocator,
)

__all__ = [
    "DeviceSpec",
    "GPUSpec",
    "LinkSpec",
    "MemorySpec",
    "V100_32GB",
    "DGX2_CPU_MEMORY",
    "DGX2_NVME",
    "PCIE_GEN3_X16",
    "NVLINK_V100",
    "INFINIBAND_800G",
    "ClusterTopology",
    "NodeTopology",
    "dgx2_node",
    "dgx2_cluster",
    "CLUSTER_PRESETS",
    "AllocationError",
    "Block",
    "FirstFitAllocator",
]
