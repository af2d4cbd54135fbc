"""Device and link specifications.

All bandwidth and capacity numbers default to the values the paper reports
for the NVIDIA V100 DGX-2 SuperPOD platform (Fig. 2b and Secs. 4-6):

* V100 SXM3: 32 GB HBM2, 600-900 GB/s memory bandwidth (its ~70 TFlops
  *achievable* peak, Sec. 4.2, is
  :data:`repro.analytics.bandwidth_model.DEFAULT_PEAK_TP`);
* per-GPU PCIe Gen3 x16: ~12 GB/s to host when a single GPU reads;
* parallel reads from all 16 GPUs of a DGX-2: 3.0 GB/s per GPU from CPU
  memory, 1.6 GB/s per GPU from NVMe (aggregate 48 / 25.6 GB/s per node);
* 800 Gbps InfiniBand between nodes; 150-300 GB/s NVLink within a node.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import GB, TB


@dataclass(frozen=True, slots=True)
class MemorySpec:
    """A memory tier: capacity plus sequential read/write bandwidth."""

    name: str
    capacity_bytes: int
    read_bw: float  # bytes/s
    write_bw: float  # bytes/s

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.read_bw <= 0 or self.write_bw <= 0:
            raise ValueError(f"{self.name}: bandwidths must be positive")


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """A point-to-point or shared interconnect with usable bandwidth."""

    name: str
    bandwidth: float  # bytes/s usable per direction


@dataclass(frozen=True, slots=True)
class DeviceSpec:
    """A compute device with attached memory."""

    name: str
    memory: MemorySpec


@dataclass(frozen=True, slots=True)
class GPUSpec(DeviceSpec):
    """A GPU: adds the host link it hangs off."""

    host_link: LinkSpec = None  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Concrete parts of the paper's platform
# ---------------------------------------------------------------------------

PCIE_GEN3_X16 = LinkSpec("pcie-gen3-x16", bandwidth=12 * GB)
"""Single-GPU PCIe to host: the paper's 'meager 12 GB/s' (Sec. 5.2.1)."""

NVLINK_V100 = LinkSpec("nvlink-v100", bandwidth=150 * GB)
"""Intra-node GPU-GPU via NVSwitch; the paper quotes 150-300 GB/s (Fig. 2b).
We use the conservative end."""

INFINIBAND_800G = LinkSpec("ib-800gbps", bandwidth=100 * GB)
"""Inter-node fabric: 800 Gbps = 100 GB/s (Sec. 8.1)."""

V100_HBM = MemorySpec("v100-hbm2", capacity_bytes=32 * GB, read_bw=900 * GB, write_bw=900 * GB)

V100_32GB = GPUSpec(
    name="V100-SXM3-32GB",
    memory=V100_HBM,
    host_link=PCIE_GEN3_X16,
)

DGX2_CPU_MEMORY = MemorySpec(
    "dgx2-dram", capacity_bytes=int(1.5 * TB), read_bw=100 * GB, write_bw=100 * GB
)
"""1.5 TB DRAM per DGX-2 node (Fig. 2b); ~100 GB/s socket bandwidth (Sec. 5.2.1 fn)."""

DGX2_NVME = MemorySpec(
    "dgx2-nvme", capacity_bytes=28 * TB, read_bw=25 * GB, write_bw=25 * GB
)
"""28 TB NVMe per DGX-2 node, ~25 GB/s aggregate sequential (Sec. 5.2.1 fn)."""

# Per-GPU achievable bandwidth when all 16 GPUs of a DGX-2 read in parallel
# (Fig. 2b, last two columns).
DGX2_CPU_BW_PER_GPU = 3.0 * GB
DGX2_NVME_BW_PER_GPU = 1.6 * GB
