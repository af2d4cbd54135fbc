"""Memory observability: scope invariants, engine attribution, drift report.

Four layers of guarantees:

* **Scope unit invariants** — category and owner breakdowns sum exactly
  to the tier totals, frees clamp instead of corrupting, watermarks and
  Chrome counter tracks record what the run did.
* **Engine attribution matrix** — across ZeRO stages 2/3, world sizes
  1/2/4 and CPU/NVMe placement, the live breakdown stays exactly
  consistent and model states measure exactly Eq. 2's 20 bytes per
  (padded) parameter — 16 where an fp32 parameter's master is its own
  record.
* **Unwind honesty** — overflow-skipped steps and exception-aborted
  steps leave no phantom bytes behind (the regression this PR's
  ``coordinator.on_abort`` routing exists to prevent).
* **Zero-interference** — a run with memscope enabled is bit-identical
  to a run without it.
"""

import numpy as np
import pytest

from repro.core import (
    OffloadConfig,
    OffloadDevice,
    ZeroConfig,
    ZeroInfinityEngine,
)
from repro.core.config import ZeroStage
from repro.nn import GPTModel, TransformerConfig
from repro.obs.export import chrome_trace_events, telemetry_summary
from repro.obs.memreport import build_memreport
from repro.obs.memscope import (
    MemScope,
    attributed_zeros,
    attribution_for_key,
    get_memscope,
    mem_alloc,
    render_memory_gantt,
    use_memscope,
)
from repro.obs.tracer import Tracer, use_tracer
from repro.utils.rng import seeded_rng
from tests.helpers import bucket_buffer_bytes, drift_row


def tiny_model_cfg(**kw) -> TransformerConfig:
    base = dict(
        num_layers=2,
        hidden_dim=16,
        num_heads=2,
        vocab_size=32,
        max_seq=8,
        activation_checkpointing=True,
    )
    base.update(kw)
    return TransformerConfig(**base)


def tiny_batches(world: int, *, seed: int = 2):
    rng = seeded_rng(seed)
    return [
        (rng.integers(0, 32, (1, 8)), rng.integers(0, 32, (1, 8)))
        for _ in range(world)
    ]


def category_bytes(scope: MemScope, category: str) -> int:
    """Current bytes in ``category`` summed over every tier."""
    return sum(scope.breakdown(tier).get(category, 0) for tier in scope.tiers())


def assert_consistent(scope: MemScope) -> None:
    """The sums-equal-totals invariant, for every tier the run touched."""
    for tier in scope.tiers():
        total = scope.tier_bytes(tier)
        assert sum(scope.breakdown(tier).values()) == total, tier
        assert sum(v for _, _, v in scope.owners(tier)) == total, tier
        peak = scope.peak_bytes(tier)
        assert sum(scope.peak_breakdown(tier).values()) == peak, tier
        assert peak >= total
    assert scope.underflows == 0


# --- scope unit invariants ---------------------------------------------------
class TestMemScopeUnit:
    def test_alloc_free_and_breakdown_sums(self):
        s = MemScope(enabled=True)
        s.alloc("gpu", 100, category="bucket", owner="b0")
        s.alloc("gpu", 50, category="grad", owner="p1")
        s.alloc("cpu", 30, category="optimizer_state", owner="p1")
        assert s.tier_bytes("gpu") == 150
        assert s.breakdown("gpu") == {"bucket": 100, "grad": 50}
        assert s.breakdown("cpu") == {"optimizer_state": 30}
        s.free("gpu", 50, category="grad", owner="p1")
        assert s.breakdown("gpu") == {"bucket": 100}
        assert s.peak_bytes("gpu") == 150
        assert sum(s.peak_breakdown("gpu").values()) == 150
        assert_consistent(s)

    def test_free_clamps_at_owner_and_counts_underflow(self):
        s = MemScope(enabled=True)
        s.alloc("gpu", 100, category="bucket", owner="b0")
        # wrong owner: nothing held there, so nothing is removed
        s.free("gpu", 100, category="bucket", owner="b1")
        assert s.tier_bytes("gpu") == 100
        assert s.underflows == 1
        # over-free on the right owner clamps to what it holds
        s.free("gpu", 150, category="bucket", owner="b0")
        assert s.tier_bytes("gpu") == 0
        assert s.underflows == 2
        assert s.breakdown("gpu") == {}
        assert sum(v for _, _, v in s.owners("gpu")) == 0

    def test_disabled_scope_records_nothing(self):
        s = MemScope(enabled=False)
        s.alloc("gpu", 100)
        s.free("gpu", 100)
        s.sample("x")
        assert s.op_count == 0
        assert s.tiers() == []
        assert s.timeline() == []

    def test_watermark_timeline_and_peak_label(self):
        s = MemScope(enabled=True)
        s.sample("start")
        s.alloc("gpu", 10)
        s.sample("after_small")
        s.alloc("gpu", 90)
        s.sample("after_big")
        tl = s.timeline()
        assert [w.label for w in tl] == ["start", "after_small", "after_big"]
        assert tl[0].tiers.get("gpu", 0) == 0
        assert tl[2].tiers["gpu"] == 100
        assert tl[0].ts_us <= tl[1].ts_us <= tl[2].ts_us
        # the peak bump happened after the "after_small" watermark
        assert s.peak_label("gpu") == "after_small"

    def test_sample_cap_drops_not_grows(self):
        s = MemScope(enabled=True, max_samples=3)
        for i in range(5):
            s.sample(f"s{i}")
        assert len(s.timeline()) == 3
        assert s.dropped_samples == 2

    def test_owner_alias_and_high_water(self):
        s = MemScope(enabled=True)
        s.alloc("gpu", 64, category="gather_buffer", owner="p3")
        s.alias("p3", "block0.attn.qkv.weight")
        assert s.owners("gpu") == [("block0.attn.qkv.weight", "gather_buffer", 64)]
        s.free("gpu", 64, category="gather_buffer", owner="p3")
        assert s.owners("gpu") == []
        assert s.peak_bytes("gpu") == 64
        assert s.peak_breakdown("gpu") == {"gather_buffer": 64}

    def test_attribution_for_key(self):
        assert attribution_for_key("p3.r1.master") == ("optimizer_state", "p3")
        assert attribution_for_key("p3.r0.exp_avg") == ("optimizer_state", "p3")
        assert attribution_for_key("p12.r2.param16") == ("param_fp16", "p12")
        assert attribution_for_key("p0.r0.grad16") == ("grad", "p0")
        assert attribution_for_key("act.7.0") == ("activation_ckpt", "act.7")
        assert attribution_for_key("scratch") == ("workspace", "scratch")

    def test_attributed_alloc_helpers(self):
        with use_memscope() as s:
            a = attributed_zeros(
                16, np.float32, tier="gpu", category="bucket", owner="b"
            )
            z = attributed_zeros(
                (2, 8), np.float32, tier="gpu", category="bucket", owner="b"
            )
        assert a.shape == (16,) and z.shape == (2, 8)
        assert not z.any()
        assert s.tier_bytes("gpu") == a.nbytes + z.nbytes
        assert s.breakdown("gpu") == {"bucket": a.nbytes + z.nbytes}

    def test_use_memscope_restores_previous(self):
        before = get_memscope()
        with use_memscope() as s:
            assert get_memscope() is s
            mem_alloc("gpu", 10)
        assert get_memscope() is before
        assert s.tier_bytes("gpu") == 10

    def test_gantt_renders_all_tiers(self):
        s = MemScope(enabled=True)
        s.alloc("gpu", 1 << 20)
        s.sample("a")
        s.alloc("cpu", 1 << 10)
        s.sample("b")
        art = render_memory_gantt(s)
        assert "gpu" in art and "cpu" in art
        assert "1.0 MiB" in art
        assert "exceeded" not in art

    def test_gantt_reports_a_double_free(self):
        s = MemScope(enabled=True)
        s.alloc("cpu", 64, category="bucket", owner="b0")
        assert "exceeded" not in render_memory_gantt(s)
        s.free("cpu", 64, category="bucket", owner="b0")
        s.free("cpu", 64, category="bucket", owner="b0")  # the double free
        assert "1 free(s) exceeded what the owner held" in render_memory_gantt(s)
        s.sample("after")
        art = render_memory_gantt(s)
        assert "cpu" in art and "1 free(s) exceeded what the owner held" in art


# --- counter tracks ----------------------------------------------------------
class TestCounterTracks:
    def test_sample_emits_chrome_counter_track(self):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer), use_memscope() as s:
            s.alloc("gpu", 123, category="bucket", owner="b")
            s.sample("phase")
        counters = [
            e
            for e in chrome_trace_events(tracer.records(), tracer.lane_names())
            if e.get("ph") == "C"
        ]
        assert counters, "sample() should emit a counter event"
        ev = counters[-1]
        assert ev["name"] == "mem.tiers"
        assert ev["args"]["gpu"] == 123
        assert "tid" not in ev  # counter tracks are process-scoped
        # the summary table is about spans; counters stay out of it
        assert "mem.tiers" not in telemetry_summary(tracer)

    def test_engine_run_emits_pool_and_bucket_tracks(self, tmp_path):
        cfg = ZeroConfig(
            world_size=2,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
                nvme_dir=str(tmp_path),
            ),
            loss_scale=1.0,
        )
        tracer = Tracer(enabled=True)
        with use_tracer(tracer), ZeroInfinityEngine(
            cfg,
            model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
        ) as eng:
            eng.train_step(tiny_batches(2))
        names = {
            e["name"]
            for e in chrome_trace_events(tracer.records(), tracer.lane_names())
            if e.get("ph") == "C"
        }
        assert "nvme.pinned_pool_bytes" in names
        assert "bucket.fill_numel" in names


# --- engine attribution matrix -----------------------------------------------
def run_engine(
    *,
    stage: ZeroStage,
    world: int,
    device: OffloadDevice,
    nvme_dir=None,
    steps: int = 2,
    optimizer_device=None,
) -> tuple[MemScope, ZeroInfinityEngine]:
    offload = OffloadConfig(
        # parameter offload is a stage-3 capability
        param_device=device if stage >= ZeroStage.PARAMETERS else OffloadDevice.NONE,
        grad_device=device,
        optimizer_device=optimizer_device or device,
        nvme_dir=str(nvme_dir) if nvme_dir is not None else None,
    )
    cfg = ZeroConfig(
        world_size=world, stage=stage, offload=offload, loss_scale=1.0
    )
    with use_memscope() as scope, ZeroInfinityEngine(
        cfg,
        model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
    ) as eng:
        for _ in range(steps):
            eng.train_step(tiny_batches(world))
        report = eng.report()
    scope_copy = scope
    return scope_copy, report


class TestEngineAttribution:
    @pytest.mark.parametrize("stage", [ZeroStage.GRADIENTS, ZeroStage.PARAMETERS])
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_attribution_sums_exactly(self, stage, world):
        scope, report = run_engine(
            stage=stage, world=world, device=OffloadDevice.NONE
        )
        assert_consistent(scope)
        assert scope.tier_bytes("gpu") > 0
        # EngineReport mirrors the scope's peaks while it is live
        assert report.tier_peak_bytes["gpu"] == scope.peak_bytes("gpu")

    @pytest.mark.parametrize("stage", [ZeroStage.GRADIENTS, ZeroStage.PARAMETERS])
    def test_attribution_sums_with_nvme(self, stage, tmp_path):
        scope, report = run_engine(
            stage=stage,
            world=2,
            device=OffloadDevice.NVME,
            nvme_dir=tmp_path,
        )
        assert_consistent(scope)
        # engine close drains the store, so current nvme is 0 — the peak
        # proves the offloaded states were accounted while resident
        assert scope.peak_bytes("nvme") > 0
        assert scope.tier_bytes("nvme") == 0
        assert report.tier_peak_bytes["nvme"] == scope.peak_bytes("nvme")

    def test_scope_off_reports_only_the_pinned_peak(self, tmp_path):
        """Without memscope no tier but the pinned pool has a real peak: the
        store's bytes at report time are not one, so none is reported."""
        cfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME,
                grad_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
                nvme_dir=str(tmp_path),
            ),
            loss_scale=1.0,
        )
        with ZeroInfinityEngine(
            cfg,
            model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
        ) as eng:
            assert not get_memscope().enabled
            for _ in range(3):
                eng.train_step(tiny_batches(2))
            report = eng.report()
        assert report.tier_peak_bytes == {"pinned": report.pinned_peak_bytes}

    @pytest.mark.parametrize("stage", [ZeroStage.GRADIENTS, ZeroStage.PARAMETERS])
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_bucket_bytes_are_one_fused_buffer_per_rank(self, stage, world):
        """What the memreport's ``reduce_bucket_numel`` recommendation
        reasons from: the ``bucket`` category is ``world x capacity x
        itemsize`` per dtype in use — ZeRO's C_B, one fused input buffer
        per rank, and nothing else (the reduce-scatter has no output
        buffer: shards land where their tier keeps them)."""
        cfg = ZeroConfig(
            world_size=world,
            stage=stage,
            loss_scale=1.0,
            reduce_bucket_numel=1000,  # rounds up to a multiple of 4 ranks
        )
        with use_memscope() as scope, ZeroInfinityEngine(
            cfg,
            model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
        ) as eng:
            for _ in range(2):
                eng.train_step(tiny_batches(world))
            store = eng.coordinator.bucket_store
            assert store.capacity == -(-cfg.reduce_bucket_numel // world) * world
            dtypes = list(store._buckets)
            assert dtypes == [np.dtype(np.float32)]
            want = sum(world * store.capacity * dt.itemsize for dt in dtypes)
            assert scope.breakdown("gpu")["bucket"] == want
            assert category_bytes(scope, "bucket") == want
            assert bucket_buffer_bytes(store) == want
            assert store.stats.flushes > 0 and store.stats.oversized_flushes > 0

    def test_model_states_measure_20_bytes_per_param(self):
        """Eq. 2 holds exactly, per placement, for this fp32 model: 4 (p) +
        4 (g) + 12 (fp32 Adam: master and two moments) = 20 B where the
        optimizer state lives on another tier than the sharded parameter
        (cpu here), so the master is a copy of it; 4 + 4 + 8 = 16 B where
        it lives on the same one (gpu), so the master is the parameter
        record itself and only the two moments are optimizer state."""
        for optimizer_device, tier, state_words in (
            (OffloadDevice.NONE, "gpu", 2),
            (OffloadDevice.CPU, "cpu", 3),
        ):
            scope, _ = run_engine(
                stage=ZeroStage.PARAMETERS,
                world=2,
                device=OffloadDevice.NONE,
                optimizer_device=optimizer_device,
            )
            param16 = category_bytes(scope, "param_fp16")
            grad = category_bytes(scope, "grad")
            opt = category_bytes(scope, "optimizer_state")
            assert grad == param16
            assert opt == state_words * param16, tier
            # parameters and gradients live on gpu, the state where it is put
            assert scope.breakdown("gpu")["param_fp16"] == param16
            assert scope.breakdown(tier)["optimizer_state"] == opt

    def test_dense_z3_gpu_peak_falls_by_the_master_copy(self, monkeypatch):
        """``dense_z3``'s shape (benchmarks/e2e/workloads.py: world 2,
        stage 3, no offload, a tied 128 x 128 table and two 128-wide
        checkpointed layers, 4 sequences of 32 per rank): N = 417 280
        elements, each in a sharded fp32 parameter whose optimizer state
        shares its gpu tier, so its master is its parameter record.  The
        loop backend holds both ranks' shards, all N elements, so the
        gpu-tier peak is exactly 4 B x 417 280 = 1 669 120 B below the
        one an fp32 master beside every record gives (the path an fp16
        parameter still takes, forced here)."""
        from repro.core.zero_optimizer import ZeroPartitionedAdam

        model_cfg = TransformerConfig(
            num_layers=2,
            hidden_dim=128,
            num_heads=4,
            vocab_size=128,
            max_seq=32,
            activation_checkpointing=True,
        )
        rng = seeded_rng(5)
        batches = [
            [
                (rng.integers(0, 128, (4, 32)), rng.integers(0, 128, (4, 32)))
                for _ in range(2)
            ]
            for _ in range(3)
        ]

        def gpu_peak():
            cfg = ZeroConfig(world_size=2, offload=OffloadConfig(), loss_scale=1.0)
            with use_memscope() as scope, ZeroInfinityEngine(
                cfg, model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(0))
            ) as eng:
                assert eng.model.num_parameters() == 417_280
                for batch in batches:
                    eng.train_step(batch)
                return scope.peak_bytes("gpu"), eng.gather_state()

        peak, state = gpu_peak()
        monkeypatch.setattr(ZeroPartitionedAdam, "master_is_param", lambda *_: False)
        kept, kept_state = gpu_peak()
        assert kept - peak == 4 * 417_280
        for name, value in state.items():
            assert np.array_equal(value, kept_state[name]), name

    def test_cpu_offload_peak_holds_the_model_states(self):
        """Offloaded to CPU, parameter shards, gradients and the optimizer
        state all land on the cpu tier: its peak exceeds the fp32 bytes
        of the parameters alone."""
        scope, report = run_engine(
            stage=ZeroStage.PARAMETERS, world=2, device=OffloadDevice.CPU
        )
        assert_consistent(scope)
        numel = GPTModel(tiny_model_cfg(), rng=seeded_rng(0)).num_parameters()
        assert report.tier_peak_bytes["cpu"] > 4 * numel
        for cat in ("param_fp16", "grad", "optimizer_state"):
            assert scope.peak_breakdown("cpu").get(cat, 0) > 0, cat


# --- unwind honesty ----------------------------------------------------------
class TestUnwind:
    def test_overflow_skip_leaves_no_phantom_bytes(self):
        cfg = ZeroConfig(
            world_size=2,
            offload=OffloadConfig(),
            loss_scale=1024.0,
        )
        with use_memscope() as scope, ZeroInfinityEngine(
            cfg,
            model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
        ) as eng:
            eng.train_step(tiny_batches(2))
            baseline = {t: scope.tier_bytes(t) for t in scope.tiers()}
            forced = eng.optimizer.grads_overflowed
            eng.optimizer.grads_overflowed = lambda: True
            try:
                res = eng.train_step(tiny_batches(2))
            finally:
                eng.optimizer.grads_overflowed = forced
            assert res.skipped
            after = {t: scope.tier_bytes(t) for t in scope.tiers()}
        assert after == baseline
        assert "overflow_skip" in [w.label for w in scope.timeline()]
        assert_consistent(scope)

    def test_exception_unwind_discards_activation_checkpoints(self):
        cfg = ZeroConfig(
            world_size=1,
            offload=OffloadConfig(activation_device=OffloadDevice.CPU),
            loss_scale=1.0,
        )
        with use_memscope() as scope, ZeroInfinityEngine(
            cfg,
            model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
        ) as eng:
            eng.train_step(tiny_batches(1))
            baseline = {t: scope.tier_bytes(t) for t in scope.tiers()}
            assert scope.breakdown("cpu").get("activation_ckpt", 0) == 0

            # raise *after* block0's checkpoint was saved to cpu: without
            # the abort-time discard those bytes would stay resident and
            # inflate every later watermark
            block1 = dict(eng.model.named_modules())["block1"]
            inner_fwd = block1.inner.forward

            def boom(x):
                raise RuntimeError("mid-forward fault")

            block1.inner.forward = boom
            with pytest.raises(RuntimeError, match="mid-forward fault"):
                eng.train_step(tiny_batches(1))
            block1.inner.forward = inner_fwd

            after = {t: scope.tier_bytes(t) for t in scope.tiers()}
            assert scope.breakdown("cpu").get("activation_ckpt", 0) == 0
            assert after == baseline
            labels = [w.label for w in scope.timeline()]
            assert "abort_step" in labels

            # and the engine still trains after the unwind
            res = eng.train_step(tiny_batches(1))
            assert not res.skipped
        assert_consistent(scope)


# --- zero interference -------------------------------------------------------
class TestBitIdentical:
    def test_enabled_scope_does_not_perturb_training(self):
        def final_state(with_scope: bool):
            cfg = ZeroConfig(
                world_size=2, offload=OffloadConfig(), loss_scale=1.0
            )
            import contextlib

            ctx = use_memscope() if with_scope else contextlib.nullcontext()
            with ctx, ZeroInfinityEngine(
                cfg,
                model_factory=lambda: GPTModel(
                    tiny_model_cfg(), rng=seeded_rng(0)
                ),
            ) as eng:
                losses = []
                for _ in range(3):
                    losses.append(eng.train_step(tiny_batches(2)).mean_loss)
                return losses, eng.gather_state()

        losses_off, state_off = final_state(False)
        losses_on, state_on = final_state(True)
        assert losses_off == losses_on
        assert state_off.keys() == state_on.keys()
        for name in state_off:
            np.testing.assert_array_equal(state_off[name], state_on[name])


# --- drift report ------------------------------------------------------------
class TestMemReport:
    def test_model_states_within_5pct_of_eq2(self):
        """Acceptance: measured model states match Eq. 2 within 5%, per
        placement: 16 B per parameter where the optimizer state shares the
        sharded fp32 parameter's tier (its master is the parameter
        record), 20 B where it does not (a master beside it)."""
        for optimizer_device, per_param in (
            (OffloadDevice.NONE, 16),
            (OffloadDevice.CPU, 20),
        ):
            cfg = ZeroConfig(
                world_size=2,
                offload=OffloadConfig(optimizer_device=optimizer_device),
                loss_scale=1.0,
            )
            with use_memscope() as scope, ZeroInfinityEngine(
                cfg,
                model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
            ) as eng:
                eng.train_step(tiny_batches(2))
                report = build_memreport(eng, scope, bsz=2, seq=8, ci=1)
                n_params = eng.model.num_parameters()
            row = drift_row(report, "model_states (Eq. 2)")
            assert row is not None
            assert row.predicted == per_param * n_params
            assert 0.95 <= row.ratio <= 1.05, row
            assert not row.flagged(report.tolerance)

    def test_render_shows_peaks_attribution_and_gantt(self, tmp_path):
        cfg = ZeroConfig(
            world_size=2,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
                nvme_dir=str(tmp_path),
            ),
            loss_scale=1.0,
        )
        with use_memscope() as scope, ZeroInfinityEngine(
            cfg,
            model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
        ) as eng:
            eng.train_step(tiny_batches(2))
            report = build_memreport(eng, scope, bsz=2, seq=8, ci=1)
            groups = {g.name for g in eng.partitioner.groups}
        text = report.render()
        assert "Per-tier memory watermarks" in text
        assert "= total" in text
        assert "model_states (Eq. 2)" in text
        assert "memory gantt" in text
        # owner aliases resolved to the parameter groups' module paths
        assert "tok_emb" in groups
        assert any(
            owner in groups
            for rows in report.top_owners.values()
            for owner, _, _ in rows
        )


# --- CLI ---------------------------------------------------------------------
class TestCli:
    def test_memreport_command_prints_report(self, capsys):
        from repro.cli import main

        rc = main(
            ["memreport", "--world", "1", "--steps", "1", "--hidden", "32"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Per-tier memory watermarks" in out
        assert "= total" in out
        assert "model_states (Eq. 2)" in out

    def test_train_demo_memreport_flag(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "train-demo",
                "--world",
                "1",
                "--steps",
                "1",
                "--hidden",
                "32",
                "--offload",
                "cpu",
                "--memreport",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Per-tier memory watermarks" in out
