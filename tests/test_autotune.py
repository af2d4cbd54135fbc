"""The placement planner reproduces Table 1's decisions."""

import pytest

from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
    ZeroStage,
)
from repro.core.autotune import recommend_config
from repro.hardware import dgx2_cluster
from repro.nn import GPTModel, TransformerConfig
from repro.utils.rng import seeded_rng, spawn_rngs


@pytest.fixture(scope="module")
def one_node():
    return dgx2_cluster(1)


class TestTable1Decisions:
    """Each Table 1 single-node row's placement, rediscovered."""

    def test_10b_stays_on_gpu(self, one_node):
        plan = recommend_config(one_node, int(10e9), hidden_dim=4096)
        assert plan.param_device is OffloadDevice.NONE
        assert plan.optimizer_device is OffloadDevice.NONE

    def test_100b_params_cpu_optimizer_spills(self, one_node):
        """Table 1: 50-100B runs fp16 params on CPU, optimizer on NVMe."""
        plan = recommend_config(one_node, int(100e9), hidden_dim=8192)
        assert plan.param_device is OffloadDevice.CPU
        assert plan.optimizer_device in (OffloadDevice.CPU, OffloadDevice.NVME)

    def test_1t_all_nvme(self, one_node):
        plan = recommend_config(one_node, int(1e12), hidden_dim=25600)
        assert plan.param_device is OffloadDevice.NVME
        assert plan.optimizer_device is OffloadDevice.NVME

    def test_too_big_raises_with_limit(self, one_node):
        with pytest.raises(ValueError, match="nvme-capacity"):
            recommend_config(one_node, int(100e12))

    def test_bigger_cluster_relaxes_placement(self):
        small = recommend_config(dgx2_cluster(1), int(100e9), hidden_dim=8192)
        big = recommend_config(dgx2_cluster(16), int(100e9), hidden_dim=8192)
        order = [OffloadDevice.NONE, OffloadDevice.CPU, OffloadDevice.NVME]
        assert order.index(big.param_device) <= order.index(small.param_device)


class TestTilingAndBatch:
    def test_tiling_engages_for_huge_hidden(self, one_node):
        plan = recommend_config(one_node, int(1e12), hidden_dim=88 * 1024)
        assert plan.tile_factor > 1
        assert any("tiling" in n for n in plan.notes)

    def test_no_tiling_for_modest_hidden(self, one_node):
        plan = recommend_config(one_node, int(10e9), hidden_dim=4096)
        assert plan.tile_factor == 1

    def test_min_batch_grows_with_slower_tier(self, one_node):
        gpu_plan = recommend_config(one_node, int(10e9), hidden_dim=4096)
        nvme_plan = recommend_config(one_node, int(1e12), hidden_dim=25600)
        assert nvme_plan.min_batch_per_gpu >= gpu_plan.min_batch_per_gpu

    def test_expected_tflops_positive_and_bounded(self, one_node):
        plan = recommend_config(one_node, int(100e9), hidden_dim=8192)
        assert 5.0 < plan.expected_tflops_per_gpu < 70.0


class TestPlanMaterialisation:
    def test_recommended_config_actually_trains(self, one_node):
        """End-to-end: plan -> engine -> step (scaled-down model)."""
        plan = recommend_config(one_node, int(1e12), hidden_dim=25600)
        # the placement transfers; the model is shrunk for test speed
        cfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=plan.param_device,
                grad_device=plan.param_device,
                optimizer_device=plan.optimizer_device,
                activation_device=plan.activation_device,
            ),
            loss_scale=1.0,
        )
        model_cfg = TransformerConfig(
            num_layers=2, hidden_dim=16, num_heads=2, vocab_size=32, max_seq=8,
            activation_checkpointing=True,
        )
        with ZeroInfinityEngine(
            cfg, model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(0)), lr=1e-3
        ) as eng:
            rngs = spawn_rngs(1, 2)
            b = [
                (r.integers(0, 32, (1, 8)), r.integers(0, 32, (1, 8)))
                for r in rngs
            ]
            result = eng.train_step(b)
            assert result.mean_loss > 0

    def test_invalid_params_raise(self, one_node):
        with pytest.raises(ValueError):
            recommend_config(one_node, 0)
