"""Max-model-size solver: the Fig. 1 and Fig. 6a scale claims."""

from dataclasses import replace

import pytest

from repro.core.config import Strategy
from repro.core.scale import (
    default_attn_heads,
    default_hidden_dim,
    max_model_size,
    model_fits,
)
from repro.hardware import dgx2_cluster


@pytest.fixture(scope="module")
def one_node():
    return dgx2_cluster(1)


@pytest.fixture(scope="module")
def pod32():
    return dgx2_cluster(32)


class TestFig6aProgression:
    """Fig. 6a on one DGX-2: each strategy unlocks the next scale jump."""

    @pytest.fixture(scope="class")
    def results(self):
        cluster = dgx2_cluster(1)
        out = {}
        for s in Strategy:
            kw = dict(bsz_per_gpu=1)
            if s is Strategy.THREED:
                kw["mp_degree"] = 4
            if s in (Strategy.ZERO_INF_CPU, Strategy.ZERO_INF_NVME):
                kw["tile_factor"] = 16
            out[s] = max_model_size(s, cluster, **kw)
        return out

    def test_data_parallel_about_1_4b(self, results):
        assert 1.0e9 < results[Strategy.DATA_PARALLEL].max_params < 2.5e9

    def test_zero2_about_9x_dp(self, results):
        """Paper: 'we are able to scale up 9x to 13B' with ZeRO-2/Offload."""
        ratio = (
            results[Strategy.ZERO_2].max_params
            / results[Strategy.DATA_PARALLEL].max_params
        )
        assert 4 < ratio < 15

    def test_offload_unlocks_more_than_zero2(self, results):
        assert (
            results[Strategy.ZERO_OFFLOAD].max_params
            > results[Strategy.ZERO_2].max_params
        )

    def test_zero3_between_offload_and_inf(self, results):
        assert (
            results[Strategy.ZERO_OFFLOAD].max_params
            < results[Strategy.ZERO_3].max_params
            < results[Strategy.ZERO_INF_CPU].max_params
        )

    def test_inf_cpu_approaches_100b(self, results):
        """Paper: 'allows us to almost reach 100B parameters'."""
        assert 50e9 < results[Strategy.ZERO_INF_CPU].max_params < 110e9

    def test_inf_nvme_reaches_a_trillion(self, results):
        """Paper: 'offloading model states to NVMe ... gets us to 1T'."""
        assert results[Strategy.ZERO_INF_NVME].max_params > 1e12

    def test_700x_total_leap(self, results):
        """Paper: 'a 700x increase in model size relative to data
        parallelism alone'."""
        ratio = (
            results[Strategy.ZERO_INF_NVME].max_params
            / results[Strategy.DATA_PARALLEL].max_params
        )
        assert ratio > 400

    def test_monotone_progression(self, results):
        order = [
            Strategy.DATA_PARALLEL,
            Strategy.ZERO_2,
            Strategy.ZERO_OFFLOAD,
            Strategy.ZERO_INF_CPU,
            Strategy.ZERO_INF_NVME,
        ]
        sizes = [results[s].max_params for s in order]
        assert sizes == sorted(sizes)

    def test_limiting_factors(self, results):
        assert results[Strategy.DATA_PARALLEL].limiting_factor == "gpu-memory"
        assert results[Strategy.ZERO_INF_CPU].limiting_factor == "cpu-memory"
        assert results[Strategy.ZERO_INF_NVME].limiting_factor == "nvme-capacity"


class TestFig1Scale:
    """Fig. 1 on 32 DGX-2 nodes (512 GPUs)."""

    def test_3d_parallelism_ceiling(self, pod32):
        r = max_model_size(Strategy.THREED, pod32, mp_degree=4, bsz_per_gpu=1)
        assert 0.4e12 < r.max_params < 0.9e12  # paper: ~650B

    def test_infinity_order_of_magnitude_beyond(self, pod32):
        r3d = max_model_size(Strategy.THREED, pod32, mp_degree=4, bsz_per_gpu=1)
        rinf = max_model_size(
            Strategy.ZERO_INF_NVME, pod32, tile_factor=16, bsz_per_gpu=1
        )
        # paper demonstrates 32T trained = 50x; capacity solve gives ~45T
        assert rinf.max_params > 30e12
        assert rinf.max_params / r3d.max_params > 30

    def test_one_trillion_per_node(self, one_node):
        """Abstract: 'supports one trillion parameters per ... DGX-2 node'."""
        r = max_model_size(
            Strategy.ZERO_INF_NVME, one_node, tile_factor=16, bsz_per_gpu=1
        )
        assert r.max_params > 1e12

    def test_100t_within_96_node_cluster(self):
        """Sec. 5.1.1: 100T model states fit the NVMe of 96 nodes.

        The paper notes the 100T activation checkpoints (~3 TB/node) are
        only 'within reach of the CPU memory of the next generation
        hardware' — on today's 1.5 TB they bind first, so we solve with a
        sparser checkpoint interval (ci=2) to expose the NVMe capacity
        headroom the section claims.
        """
        r = max_model_size(
            Strategy.ZERO_INF_NVME,
            dgx2_cluster(96),
            tile_factor=32,
            bsz_per_gpu=1,
            ci=2,
        )
        assert r.max_params > 100e12
        # and the states themselves fit: 20 B x 100T = 2 PB < 2.688 PB NVMe
        rep = model_fits(
            Strategy.ZERO_INF_NVME,
            dgx2_cluster(96),
            int(100e12),
            tile_factor=32,
            ci=2,
        )
        assert rep.fits


class TestModelFits:
    def test_fit_report_fields(self, one_node):
        rep = model_fits(Strategy.ZERO_INF_NVME, one_node, int(1e12), tile_factor=16)
        assert rep.fits and rep.limiting_factor == ""
        # the states need 20 B per parameter on NVMe: exactly what fills it
        edge = one_node.nvme_bytes // 20
        assert model_fits(
            Strategy.ZERO_INF_NVME, one_node, edge, tile_factor=16
        ).fits
        over = model_fits(Strategy.ZERO_INF_NVME, one_node, edge + 1, tile_factor=16)
        assert over.limiting_factor == "nvme-capacity"
        # and some GPU memory, however small the model
        one_byte_gpu = replace(
            one_node,
            node=replace(
                one_node.node,
                gpu=replace(
                    one_node.node.gpu,
                    memory=replace(one_node.node.gpu.memory, capacity_bytes=1),
                ),
            ),
        )
        rep = model_fits(Strategy.ZERO_INF_NVME, one_byte_gpu, int(1e9), tile_factor=16)
        assert rep.limiting_factor == "gpu-memory"

    def test_gpu_memory_binds_without_tiling(self, one_node):
        """Without memory-centric tiling, MSWM kills huge hidden sizes."""
        rep = model_fits(
            Strategy.ZERO_INF_NVME, one_node, int(30e12), tile_factor=1
        )
        assert not rep.fits
        assert rep.limiting_factor == "gpu-memory"
        rep16 = model_fits(
            Strategy.ZERO_INF_NVME, one_node, int(30e12), tile_factor=16
        )
        # tiling removes the working-memory obstacle; capacity now binds
        assert rep16.limiting_factor in ("", "nvme-capacity")

    def test_invalid_params_raise(self, one_node):
        with pytest.raises(ValueError):
            model_fits(Strategy.ZERO_3, one_node, 0)

    def test_bigger_cluster_fits_more(self):
        small = max_model_size(Strategy.ZERO_3, dgx2_cluster(1), bsz_per_gpu=1)
        large = max_model_size(Strategy.ZERO_3, dgx2_cluster(16), bsz_per_gpu=1)
        assert large.max_params > 8 * small.max_params


class TestDefaults:
    def test_hidden_dim_monotone(self):
        sizes = [default_hidden_dim(int(p)) for p in (1e9, 1e10, 1e11, 1e12, 1e13, 1e14)]
        assert sizes == sorted(sizes)

    def test_heads_track_hidden(self):
        assert default_attn_heads(2048) == 16
        assert default_attn_heads(163840) == 1024
