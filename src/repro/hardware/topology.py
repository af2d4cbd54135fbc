"""Node and cluster topologies.

A :class:`NodeTopology` describes one server (GPUs, CPU memory, NVMe and the
links between them); a :class:`ClusterTopology` replicates nodes over an
inter-node fabric.  The derived-quantity methods reproduce the aggregate
memory and per-GPU bandwidth table of Fig. 2b.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.devices import (
    DGX2_CPU_BW_PER_GPU,
    DGX2_CPU_MEMORY,
    DGX2_NVME,
    DGX2_NVME_BW_PER_GPU,
    GPUSpec,
    INFINIBAND_800G,
    LinkSpec,
    MemorySpec,
    NVLINK_V100,
    V100_32GB,
)


@dataclass(frozen=True)
class NodeTopology:
    """One multi-GPU server.

    ``pcie_switches`` models the DGX-2 layout where GPUs share PCIe root
    complexes; with all GPUs reading from host memory in parallel, each GPU
    sees ``cpu_bw_per_gpu_parallel`` rather than the full link bandwidth.
    """

    name: str
    gpu: GPUSpec
    gpus_per_node: int
    cpu_memory: MemorySpec
    nvme: MemorySpec
    intra_node_link: LinkSpec = NVLINK_V100
    cpu_bw_per_gpu_parallel: float = DGX2_CPU_BW_PER_GPU
    nvme_bw_per_gpu_parallel: float = DGX2_NVME_BW_PER_GPU

    def __post_init__(self) -> None:
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be positive")

    # --- aggregate capacities (Fig. 2b columns 3-5) -----------------------
    @property
    def gpu_memory_bytes(self) -> int:
        return self.gpu.memory.capacity_bytes * self.gpus_per_node

    @property
    def cpu_memory_bytes(self) -> int:
        return self.cpu_memory.capacity_bytes

    @property
    def nvme_bytes(self) -> int:
        return self.nvme.capacity_bytes

    def gpu_to_slow_memory_bw(self, *, nvme: bool, parallel: bool) -> float:
        """Per-GPU bandwidth to CPU or NVMe memory.

        ``parallel=False`` is the broadcast-based regime (one PCIe link
        active, Sec. 6.1); ``parallel=True`` is the bandwidth-centric
        allgather regime where every link pulls its shard.
        """
        if not parallel:
            bw = self.gpu.host_link.bandwidth
            return min(bw, self.nvme.read_bw) if nvme else bw
        return self.nvme_bw_per_gpu_parallel if nvme else self.cpu_bw_per_gpu_parallel


@dataclass(frozen=True)
class ClusterTopology:
    """``num_nodes`` identical nodes over an inter-node fabric."""

    node: NodeTopology
    num_nodes: int
    inter_node_link: LinkSpec = INFINIBAND_800G

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")

    @property
    def num_gpus(self) -> int:
        return self.node.gpus_per_node * self.num_nodes

    # --- aggregate memory (Fig. 2b) -------------------------------------------
    @property
    def gpu_memory_bytes(self) -> int:
        return self.node.gpu_memory_bytes * self.num_nodes

    @property
    def cpu_memory_bytes(self) -> int:
        return self.node.cpu_memory_bytes * self.num_nodes

    @property
    def nvme_bytes(self) -> int:
        return self.node.nvme_bytes * self.num_nodes

    # --- bandwidth ---------------------------------------------------------------
    def gpu_to_gpu_bw(self) -> float:
        """Per-GPU bandwidth for GPU-GPU collectives.

        Within one node collectives ride NVLink; across nodes they are
        bounded by each node's share of the fabric, divided among its GPUs.
        The paper's Fig. 2b reports 60-100 GB/s per GPU at multi-node scale
        — i.e. interconnect-bound; we take the conservative end of NVLink
        and fabric numbers.
        """
        if self.num_nodes == 1:
            return self.node.intra_node_link.bandwidth
        return min(
            self.node.intra_node_link.bandwidth,
            self.inter_node_link.bandwidth,
        )


def dgx2_node() -> NodeTopology:
    """The paper's evaluation node: 16x V100 32 GB, 1.5 TB DRAM, 28 TB NVMe."""
    return NodeTopology(
        name="DGX-2",
        gpu=V100_32GB,
        gpus_per_node=16,
        cpu_memory=DGX2_CPU_MEMORY,
        nvme=DGX2_NVME,
    )


def dgx2_cluster(num_nodes: int) -> ClusterTopology:
    """A DGX-2 SuperPOD slice with ``num_nodes`` nodes (16 GPUs each)."""
    return ClusterTopology(node=dgx2_node(), num_nodes=num_nodes)


#: The cluster sizes tabulated in Fig. 2b (nodes -> topology).
CLUSTER_PRESETS: dict[int, ClusterTopology] = {
    n: dgx2_cluster(n) for n in (1, 4, 16, 32, 64, 96)
}
