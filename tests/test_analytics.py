"""The paper's analytic models reproduce its printed numbers.

Each test cites the Sec. 3 / Sec. 4 statement it checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    EfficiencyModel,
    FIG2A_ROWS,
    TABLE1_CONFIGS,
    activation_checkpoint_bytes,
    ait_activation_checkpoints,
    ait_optimizer_states,
    ait_param_grad,
    awm_bytes,
    checkpoint_batch_ceiling,
    compute_per_iter_flops,
    efficiency,
    layers_for_params,
    memory_requirements,
    model_states_bytes,
    mswm_bytes,
    required_bandwidth,
    transformer_params,
)
from repro.utils.units import GB, TB, TFLOP


class TestParameterCount:
    def test_eq1_formula(self):
        assert transformer_params(80, 10240) == 12 * 80 * 10240**2

    @pytest.mark.parametrize(
        "label,nl,hd,_heads",
        FIG2A_ROWS,
    )
    def test_fig2a_param_column(self, label, nl, hd, _heads):
        """Fig. 2a column 1: the configs produce the stated trillions."""
        target = float(label.rstrip("T")) * 1e12
        assert transformer_params(nl, hd) == pytest.approx(target, rel=0.01)

    def test_gpt3_consistency(self):
        """GPT-3: 96 layers x 12288 hidden ~ 175B params."""
        assert transformer_params(96, 12288) == pytest.approx(175e9, rel=0.01)

    def test_layers_inversion(self):
        for nl, hd in [(80, 10240), (128, 25600), (315, 163840)]:
            p = transformer_params(nl, hd)
            assert layers_for_params(p, hd) == nl

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            transformer_params(0, 100)
        with pytest.raises(ValueError):
            layers_for_params(-5, 100)


class TestModelStates:
    def test_20_bytes_per_param(self):
        assert model_states_bytes(10**9) == 20 * 10**9

    @pytest.mark.parametrize(
        "label,nl,hd,heads,expected_tb",
        [
            (l, nl, hd, heads, tb)
            for (l, nl, hd, heads), tb in zip(
                FIG2A_ROWS, [1.83, 9.16, 18.31, 182.81, 1845.70]
            )
        ],
    )
    def test_fig2a_model_state_column(self, label, nl, hd, heads, expected_tb):
        """Fig. 2a column 5.  The table's 'TB' are binary TiB: e.g. the
        0.10T row is 20 B x 0.1007e12 params = 2.01e12 B = 1.83 TiB."""
        got = model_states_bytes(transformer_params(nl, hd))
        assert got / 2**40 == pytest.approx(expected_tb, rel=0.01)

    def test_fitting_claims(self):
        """Sec. 3: 100B model states need 64 GPUs; 1T needs >512."""
        from repro.hardware import V100_32GB

        gpu = V100_32GB.memory.capacity_bytes
        assert model_states_bytes(int(100e9)) / gpu == pytest.approx(62.5, rel=0.01)
        assert model_states_bytes(int(1e12)) / gpu > 512


class TestActivationMemory:
    @pytest.mark.parametrize(
        "label,nl,hd,heads,expected_tb",
        [
            (l, nl, hd, heads, tb)
            for (l, nl, hd, heads), tb in zip(
                FIG2A_ROWS, [0.05, 0.12, 0.20, 0.76, 3.08]
            )
        ],
    )
    def test_fig2a_checkpoint_column(self, label, nl, hd, heads, expected_tb):
        """Fig. 2a column 7: activation checkpoints (bsz 32, seq 1024),
        in binary TiB like the other memory columns."""
        got = activation_checkpoint_bytes(
            bsz=32, seq=1024, hidden_dim=hd, num_layers=nl, ci=1
        )
        assert got / 2**40 == pytest.approx(expected_tb, rel=0.1)

    def test_ci_divides_checkpoints(self):
        base = activation_checkpoint_bytes(
            bsz=32, seq=1024, hidden_dim=8192, num_layers=64, ci=1
        )
        halved = activation_checkpoint_bytes(
            bsz=32, seq=1024, hidden_dim=8192, num_layers=64, ci=2
        )
        assert halved == base // 2

    def test_10t_fits_dgx2_cpu(self):
        """Sec. 5.1.2: 10T checkpoints (0.76 TB) fit in 1.5 TB CPU."""
        got = activation_checkpoint_bytes(
            bsz=32, seq=1024, hidden_dim=64 * 1024, num_layers=195, ci=1
        )
        assert got < 1.5 * TB


class TestWorkingMemory:
    def test_eq4_mswm(self):
        assert mswm_bytes(100) == 4 * 100 * 400

    @pytest.mark.parametrize(
        "hd,expected_gb",
        [(64 * 1024, 64.0), (160 * 1024, 400.0)],
    )
    def test_fig2a_mswm_column(self, hd, expected_gb):
        """Fig. 2a column 8 at 10T/100T scales (GB)."""
        assert mswm_bytes(hd) == pytest.approx(expected_gb * 1e9, rel=0.1)

    def test_eq5_awm(self):
        got = awm_bytes(bsz=4, seq=1024, hidden_dim=64 * 1024, attn_heads=512)
        # Fig. 2a column 9: 8.00 GB at the 10T row
        assert got == pytest.approx(8.0 * 1e9, rel=0.1)

    def test_awm_scales_with_ci(self):
        one = awm_bytes(bsz=2, seq=128, hidden_dim=256, attn_heads=4, ci=1)
        three = awm_bytes(bsz=2, seq=128, hidden_dim=256, attn_heads=4, ci=3)
        assert three == 3 * one


class TestAIT:
    def test_eq9_param_grad(self):
        assert ait_param_grad(seq=1024, bsz=4) == 4096

    def test_eq10_optimizer(self):
        assert ait_optimizer_states(seq=1024, bsz=4) == 1024

    def test_eq11_activations(self):
        assert ait_activation_checkpoints(hidden_dim=8192, ci=1) == 24 * 8192

    def test_eq7_total_compute(self):
        assert compute_per_iter_flops(bsz=2, seq=1024, params=10**9) == (
            8 * 2 * 1024 * 10**9
        )

    def test_ait_consistency_with_volumes(self):
        """ait = compute / data for the parameter+gradient stream."""
        bsz, seq, params = 4, 1024, 10**9
        compute = compute_per_iter_flops(bsz=bsz, seq=seq, params=params)
        data = 2 * 4 * params  # 4x params tensors in fp16 (Sec. 4.1)
        assert compute / data == ait_param_grad(seq=seq, bsz=bsz)


class TestEfficiency:
    def test_eq6_closed_form(self):
        e = efficiency(ait=100.0, bw=1e9, peak_tp=1e11)
        assert e == pytest.approx(100 * 1e9 / (100 * 1e9 + 1e11))

    def test_monotone_in_bandwidth(self):
        es = [efficiency(ait=64, bw=b * GB) for b in (1, 4, 16, 64)]
        assert es == sorted(es)

    def test_param_grad_70gbs_claim(self):
        """Sec. 4.2: 'with a bandwidth of over 70 GB/s for parameter and
        gradients, we can achieve over 50% efficiency for even the
        smallest batch size'."""
        e = efficiency(ait=ait_param_grad(seq=1024, bsz=1), bw=70 * GB)
        assert e > 0.50

    def test_optimizer_needs_4x_param_bandwidth(self):
        """Sec. 4.2: optimizer states need ~4x the bandwidth of params."""
        bw_p = required_bandwidth(
            ait=ait_param_grad(seq=1024, bsz=2), target_efficiency=0.5
        )
        bw_o = required_bandwidth(
            ait=ait_optimizer_states(seq=1024, bsz=2), target_efficiency=0.5
        )
        assert bw_o == pytest.approx(4 * bw_p)

    def test_optimizer_90pct_needs_about_1_5_tbs(self):
        """Sec. 4.2: 90% efficiency at bsz 2 needs ~1.5 TB/s."""
        bw = required_bandwidth(
            ait=ait_optimizer_states(seq=1024, bsz=2), target_efficiency=0.9
        )
        assert 1.0 * TB < bw < 1.6 * TB

    def test_activation_2gbs_claim(self):
        """Sec. 4.2: 2 GB/s sustains >50% even at hidden 2K; <1 GB/s
        suffices beyond 8K."""
        assert EfficiencyModel(hidden_dim=2048).activation_efficiency(2 * GB) > 0.5
        assert EfficiencyModel(hidden_dim=8192).activation_efficiency(1 * GB) > 0.5

    def test_required_bandwidth_inverts_efficiency(self):
        ait = 512.0
        for target in (0.3, 0.5, 0.9):
            bw = required_bandwidth(ait=ait, target_efficiency=target)
            assert efficiency(ait=ait, bw=bw) == pytest.approx(target)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            efficiency(ait=0, bw=1, peak_tp=1)
        with pytest.raises(ValueError):
            required_bandwidth(ait=1, target_efficiency=1.0)

    @given(
        ait=st.floats(1, 1e5),
        bw=st.floats(1e6, 1e13),
        peak=st.floats(1e12, 1e15),
    )
    @settings(max_examples=100, deadline=None)
    def test_efficiency_bounded_property(self, ait, bw, peak):
        e = efficiency(ait=ait, bw=bw, peak_tp=peak)
        assert 0.0 < e < 1.0


class TestTable3:
    """Future-hardware bandwidth requirements (Sec. 9, Table 3)."""

    def test_v100_row(self):
        row = EfficiencyModel().future_hardware_row(peak_multiplier=1.0)
        assert row["peak_pflops_per_device"] == pytest.approx(0.07)
        # ~3 GB/s per device slow memory, ~1.5 TB/s aggregate, ~70 GB/s gg
        assert row["slow_memory_bw_per_device"] == pytest.approx(3.0 * GB, rel=0.3)
        assert row["slow_memory_aggregate_bw"] == pytest.approx(1.5 * TB, rel=0.3)
        assert row["gpu_to_gpu_bw"] == pytest.approx(70 * GB, rel=0.05)

    def test_requirements_scale_linearly_with_compute(self):
        base = EfficiencyModel().future_hardware_row(peak_multiplier=1.0)
        x10 = EfficiencyModel().future_hardware_row(peak_multiplier=10.0)
        x100 = EfficiencyModel().future_hardware_row(peak_multiplier=100.0)
        for key in ("slow_memory_bw_per_device", "gpu_to_gpu_bw"):
            assert x10[key] == pytest.approx(10 * base[key])
            assert x100[key] == pytest.approx(100 * base[key])


class TestBatchCeiling:
    """Sec. 8.2: CPU memory for activation checkpoints caps the batch."""

    def test_table1_batches_respect_the_ceiling(self):
        for name in (
            "0.5T-32node",
            "1T-32node",
            "5T-32node",
            "10T-32node",
            "20T-32node",
        ):
            cfg = TABLE1_CONFIGS[name]
            ceiling = checkpoint_batch_ceiling(cfg.hidden_dim, cfg.num_layers)
            # every Table 1 batch sits below the checkpoint-memory ceiling
            assert cfg.batch_per_gpu <= ceiling, name

    def test_20t_is_checkpoint_bound(self):
        """The 20T row runs at batch 1.25 against a ~2.0 ceiling — the
        'extremely small batch ... as a result of limited CPU memory'
        the paper blames for the 20T throughput drop."""
        cfg = TABLE1_CONFIGS["20T-32node"]
        ceiling = checkpoint_batch_ceiling(cfg.hidden_dim, cfg.num_layers)
        assert ceiling < 2.5  # no room for a healthy batch
        assert cfg.batch_per_gpu <= ceiling

    def test_ci_raises_the_ceiling(self):
        assert checkpoint_batch_ceiling(65536, 200, ci=2) == pytest.approx(
            2 * checkpoint_batch_ceiling(65536, 200, ci=1)
        )


class TestModelZoo:
    def test_table1_complete(self):
        assert len(TABLE1_CONFIGS) == 10

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("10B-1node", 10e9),
            ("100B-1node", 100e9),
            ("1T-32node", 1e12),
            ("10T-32node", 10e12),
            ("20T-32node", 20e12),
        ],
    )
    def test_table1_param_counts(self, name, expected):
        assert TABLE1_CONFIGS[name].params == pytest.approx(expected, rel=0.12)

    def test_dp_degree(self):
        cfg = TABLE1_CONFIGS["1T-32node"]
        assert cfg.num_gpus == 512
        assert cfg.num_gpus // cfg.mp_degree == 128  # 512 / mp 4

    def test_memory_requirements_bundle(self):
        req = memory_requirements(num_layers=80, hidden_dim=10240, attn_heads=128)
        assert req.params == transformer_params(80, 10240)
        assert req.model_states == 20 * req.params
        assert req.mswm == mswm_bytes(10240)
        assert req.full_activations > req.activation_checkpoints
