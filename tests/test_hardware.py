"""Device specs, topologies (Fig. 2b), and the first-fit allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    AllocationError,
    CLUSTER_PRESETS,
    FirstFitAllocator,
    PCIE_GEN3_X16,
    V100_32GB,
    dgx2_cluster,
    dgx2_node,
)
from repro.analytics.bandwidth_model import DEFAULT_PEAK_TP
from repro.utils.units import GB, GIB, TB


class TestDeviceSpecs:
    def test_v100_capacity(self):
        assert V100_32GB.memory.capacity_bytes == 32 * GB

    def test_v100_achievable_peak(self):
        # Sec. 4.2: empirically ~70 TFlops achievable
        assert DEFAULT_PEAK_TP == 70e12

    def test_pcie_single_link(self):
        # Sec. 5.2.1: "a meager 12 GB/s PCIe bandwidth"
        assert PCIE_GEN3_X16.bandwidth == 12 * GB


class TestDGX2Topology:
    """The Fig. 2b table rows."""

    def test_node_shape(self):
        node = dgx2_node()
        assert node.gpus_per_node == 16
        assert node.gpu_memory_bytes == 512 * GB  # 0.5 TB
        assert node.cpu_memory_bytes == 1.5 * TB
        assert node.nvme_bytes == 28 * TB

    @pytest.mark.parametrize(
        "nodes,gpu_tb,cpu_tb,nvme_tb",
        [
            (1, 0.5, 1.5, 28.0),
            (4, 2.0, 6.0, 112.0),
            (16, 8.0, 24.0, 448.0),
            (64, 32.0, 96.0, 1792.0),
            (96, 48.0, 144.0, 2688.0),
        ],
    )
    def test_fig2b_aggregate_memory(self, nodes, gpu_tb, cpu_tb, nvme_tb):
        c = dgx2_cluster(nodes)
        # the paper's table rounds 512 GB/node to "0.5 TB"
        assert c.gpu_memory_bytes == pytest.approx(gpu_tb * TB, rel=0.03)
        assert c.cpu_memory_bytes == pytest.approx(cpu_tb * TB, rel=0.01)
        assert c.nvme_bytes == pytest.approx(nvme_tb * TB, rel=0.01)

    def test_fig2b_parallel_bandwidths(self):
        node = dgx2_node()
        # 3.0 GB/s per GPU to CPU, 1.6 GB/s per GPU to NVMe
        assert node.cpu_bw_per_gpu_parallel == 3.0 * GB
        assert node.nvme_bw_per_gpu_parallel == 1.6 * GB
        # aggregates: 48 GB/s and 25.6 GB/s (capped by the 25 GB/s drives)
        gpus = node.gpus_per_node
        assert node.cpu_bw_per_gpu_parallel * gpus == pytest.approx(48 * GB)
        assert min(
            node.nvme_bw_per_gpu_parallel * gpus, node.nvme.read_bw
        ) == pytest.approx(25 * GB)

    def test_broadcast_vs_allgather_bandwidth(self):
        """Sec. 6.1: owner/broadcast uses one link; allgather uses all."""
        node = dgx2_node()
        single = node.gpu_to_slow_memory_bw(nvme=False, parallel=False)
        parallel_total = (
            node.gpu_to_slow_memory_bw(nvme=False, parallel=True)
            * node.gpus_per_node
        )
        assert single == 12 * GB
        assert parallel_total == 48 * GB  # 4x the single link

    def test_presets_cover_fig2b(self):
        assert set(CLUSTER_PRESETS) == {1, 4, 16, 32, 64, 96}

    def test_gpu_to_gpu_bandwidth(self):
        assert dgx2_cluster(1).gpu_to_gpu_bw() == 150 * GB  # NVLink
        assert dgx2_cluster(4).gpu_to_gpu_bw() == 100 * GB  # fabric bound

    def test_invalid_nodes_raises(self):
        with pytest.raises(ValueError):
            dgx2_cluster(0)


class TestFirstFitAllocator:
    def test_simple_alloc_free(self):
        al = FirstFitAllocator(1024, alignment=16)
        off = al.malloc(100)
        assert off == 0
        assert al.capacity - al.free_bytes == 112  # rounded to 16
        al.free(off)
        assert al.free_bytes == al.capacity
        assert al.largest_free_block == 1024

    def test_first_fit_order(self):
        al = FirstFitAllocator(1024, alignment=16)
        a = al.malloc(256)
        b = al.malloc(256)
        al.free(a)
        c = al.malloc(128)
        assert c == a  # reuses the first hole

    def test_coalescing(self):
        al = FirstFitAllocator(1024, alignment=16)
        blocks = [al.malloc(128) for _ in range(8)]
        for b in blocks:
            al.free(b)
        assert al.largest_free_block == 1024
        assert al.free_bytes == 1024  # one free run: no fragmentation

    def test_fragmentation_oom(self):
        """Total free is enough but no contiguous block is (Sec. 3 MSWM)."""
        al = FirstFitAllocator(1024, alignment=16)
        keep = []
        for i in range(8):
            keep.append(al.malloc(64))
            al.malloc(64)
        for b in keep:
            al.free(b)
        assert al.free_bytes >= 512
        with pytest.raises(AllocationError) as ei:
            al.malloc(512)
        assert ei.value.free >= 512
        assert ei.value.largest_contiguous < 512

    def test_pre_fragment_caps_contiguity(self):
        """The Fig. 6b setup: 2 GB chunks -> >2 GB allocations fail."""
        al = FirstFitAllocator(16 * GIB, alignment=256)
        al.pre_fragment(2 * GIB)
        assert al.largest_free_block <= 2 * GIB
        al.malloc(2 * GIB - 256)  # fits in one chunk
        with pytest.raises(AllocationError):
            al.malloc(2 * GIB + 256)

    def test_pre_fragment_requires_pristine(self):
        al = FirstFitAllocator(1024, alignment=16)
        al.malloc(16)
        with pytest.raises(RuntimeError):
            al.pre_fragment(256)

    def test_double_free_raises(self):
        al = FirstFitAllocator(1024)
        off = al.malloc(100)
        al.free(off)
        with pytest.raises(ValueError):
            al.free(off)

    def test_zero_alloc_raises(self):
        with pytest.raises(ValueError):
            FirstFitAllocator(1024).malloc(0)

    def test_bad_alignment_raises(self):
        with pytest.raises(ValueError):
            FirstFitAllocator(1024, alignment=3)

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(1, 2000)), min_size=1, max_size=200
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_accounting_invariants(self, ops):
        """used + free == capacity at all times; blocks never overlap."""
        al = FirstFitAllocator(64 * 1024, alignment=64)
        live: list[int] = []
        for is_alloc, size in ops:
            if is_alloc or not live:
                try:
                    live.append(al.malloc(size))
                except AllocationError:
                    pass
            else:
                al.free(live.pop(len(live) % len(live) - 1 if len(live) > 1 else 0))
            used = sum(b.size for b in al._allocated.values())
            assert used + al.free_bytes == al.capacity
            blocks = sorted(
                al._allocated.values(), key=lambda b: b.offset
            )
            for x, y in zip(blocks, blocks[1:]):
                assert x.end <= y.offset  # no overlap
