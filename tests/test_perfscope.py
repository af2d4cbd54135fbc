"""Time observability: exact step ledgers, critical path, drift report.

Four layers of guarantees, mirroring ``tests/test_memscope.py`` on the
time axis:

* **Accounting exactness** — for every traced step, ``compute + comm +
  nvme_io + stall + overlap`` equals the step wall-clock exactly, across
  ZeRO stages 2/3, world sizes 1/2/4 and CPU/NVMe placement.
* **Critical path** — on an analytically known :mod:`repro.sim` schedule
  the extracted gating chain is exactly the chain that set the makespan;
  on a real trace the path explains most of the step.
* **Zero-interference** — a traced run is bit-identical to an untraced
  one, and aborted steps force-close their dangling worker spans.
* **Drift report** — a bandwidth-starved NVMe run is flagged by
  Eq. (6) with a matching recommendation; a machine-rate ``peak_tp``
  clears the same run.
"""

import contextlib
import threading

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
from repro.obs.perfreport import build_perfreport
from repro.obs.perfscope import (
    PHASES,
    CriticalPath,
    PathNode,
    build_step_ledgers,
    classify_span,
    critical_path_from_trace,
    render_perf_breakdown,
    stall_span,
    _walk_back,
    summarize_ledgers,
)
from repro.obs.tracer import Tracer, use_tracer
from repro.sim.events import TaskGraph
from repro.utils.rng import seeded_rng
from tests.helpers import (
    STALL_CAUSES,
    drift_row,
    ledger_residual_us,
    open_span_names,
    path_slack_us,
)


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


def traced_run(
    *,
    stage: ZeroStage,
    world: int,
    device: OffloadDevice,
    nvme_dir=None,
    steps: int = 2,
):
    offload = OffloadConfig(
        param_device=(
            device if stage >= ZeroStage.PARAMETERS else OffloadDevice.NONE
        ),
        grad_device=device,
        optimizer_device=device,
        nvme_dir=str(nvme_dir) if nvme_dir is not None else None,
    )
    cfg = ZeroConfig(
        world_size=world, stage=stage, offload=offload, loss_scale=1.0
    )
    tracer = Tracer(enabled=True)
    with use_tracer(tracer), ZeroInfinityEngine(
        cfg,
        model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
    ) as eng:
        for _ in range(steps):
            eng.train_step(tiny_batches(world))
        report = eng.report()
    return tracer, report


def assert_exact(ledger) -> None:
    """The phases-sum-to-wall invariant, with non-negative buckets."""
    phases = ledger.phase_us()
    assert set(phases) == set(PHASES)
    for phase, us in phases.items():
        assert us >= 0.0, (phase, us)
    assert sum(phases.values()) == pytest.approx(ledger.wall_us, abs=1e-6)
    assert ledger_residual_us(ledger) < 1.0, ledger
    for s in ledger.stalls:
        assert s.cause in STALL_CAUSES
        assert s.total_us >= 0.0
    # segments tile the window without gaps on the stepping lane
    assert ledger.stall_us == pytest.approx(
        sum(s.total_us for s in ledger.stalls), abs=1e-6
    )


# --- accounting exactness ----------------------------------------------------
class TestAccountingExactness:
    @pytest.mark.parametrize(
        "stage", [ZeroStage.GRADIENTS, ZeroStage.PARAMETERS]
    )
    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_exact_without_offload(self, stage, world):
        tracer, report = traced_run(
            stage=stage, world=world, device=OffloadDevice.NONE
        )
        ledgers = build_step_ledgers(tracer)
        assert len(ledgers) == 2
        for ledger in ledgers:
            assert_exact(ledger)
        assert report.perf_steps_traced == 2
        assert report.perf_phase_us["compute"] > 0

    @pytest.mark.parametrize(
        "stage", [ZeroStage.GRADIENTS, ZeroStage.PARAMETERS]
    )
    def test_exact_with_nvme(self, stage, tmp_path):
        tracer, report = traced_run(
            stage=stage,
            world=2,
            device=OffloadDevice.NVME,
            nvme_dir=tmp_path,
        )
        ledgers = build_step_ledgers(tracer)
        assert len(ledgers) == 2
        for ledger in ledgers:
            assert_exact(ledger)
        # an NVMe-offloaded step moves real bytes and waits on real I/O
        assert report.perf_phase_us["nvme_io"] + report.perf_phase_us[
            "stall"
        ] > 0
        causes = {
            s.cause for ledger in ledgers for s in ledger.stalls
        }
        assert causes & {"optimizer_io_tail", "pinned_wait", "prefetch_miss"}

    def test_exact_with_cpu_offload(self):
        tracer, _ = traced_run(
            stage=ZeroStage.PARAMETERS, world=2, device=OffloadDevice.CPU
        )
        for ledger in build_step_ledgers(tracer):
            assert_exact(ledger)

    def test_summary_and_render(self, tmp_path):
        tracer, _ = traced_run(
            stage=ZeroStage.PARAMETERS,
            world=2,
            device=OffloadDevice.NVME,
            nvme_dir=tmp_path,
        )
        ledgers = build_step_ledgers(tracer)
        summary = summarize_ledgers(ledgers)
        assert summary.steps == len(ledgers)
        fractions = summary.phase_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)
        text = render_perf_breakdown(
            ledgers, critical_path_from_trace(tracer, ledgers[-1])
        )
        assert "compute" in text and "stall" in text


# --- critical path on analytic schedules -------------------------------------
def critical_path_from_sim(result) -> CriticalPath:
    """The trace walk's gating rule over a :mod:`repro.sim` schedule.

    Predecessors are a task's ``deps`` plus its FIFO stream predecessor,
    so on an analytically known schedule the path must be exactly the
    chain that set the makespan.
    """
    nodes = [
        PathNode(t.name, f"stream:{t.stream}", t.start * 1e6, t.finish * 1e6)
        for t in result.tasks
    ]
    last_on_stream: dict[str, int] = {}
    preds: list[list[int]] = []
    for t in result.tasks:
        prev = last_on_stream.get(t.stream)
        preds.append(list(t.deps) + ([] if prev is None else [prev]))
        last_on_stream[t.stream] = t.index
    order = _walk_back(nodes, preds)
    return CriticalPath([nodes[i] for i in order], result.makespan * 1e6)


class TestCriticalPathSim:
    def test_serial_chain_is_the_path(self):
        g = TaskGraph()
        fwd = g.add("fwd", "compute", 10.0)
        bwd = g.add("bwd", "compute", 20.0, deps=[fwd])
        g.add("opt_write", "nvme", 30.0, deps=[bwd])
        res = g.run()
        assert res.makespan == pytest.approx(60.0)
        path = critical_path_from_sim(res)
        assert path.names() == ["fwd", "bwd", "opt_write"]
        assert path.coverage() == pytest.approx(1.0)
        assert path_slack_us(path) == [pytest.approx(0.0)] * 2

    def test_io_gated_step_detours_through_nvme(self):
        # fwd (10) overlaps a 15-unit parameter read; bwd needs both, so
        # the read gates the step and fwd has slack — exactly Eq. (6)'s
        # bandwidth-bound regime.
        g = TaskGraph()
        fwd = g.add("fwd", "compute", 10.0)
        read = g.add("param_read", "nvme", 15.0)
        g.add("bwd", "compute", 20.0, deps=[fwd, read])
        res = g.run()
        assert res.makespan == pytest.approx(35.0)
        path = critical_path_from_sim(res)
        assert path.names() == ["param_read", "bwd"]
        assert path.coverage() == pytest.approx(1.0)
        # fully overlapped compute: the nvme stream is busy 15/35 of the
        # step but only the non-overlapped 5 units extend the makespan
        assert res.busy_fraction("nvme") == pytest.approx(15.0 / 35.0)

    def test_overlapped_io_stays_off_the_path(self):
        g = TaskGraph()
        fwd = g.add("fwd", "compute", 10.0)
        g.add("prefetch", "nvme", 4.0)
        g.add("bwd", "compute", 20.0, deps=[fwd])
        res = g.run()
        path = critical_path_from_sim(res)
        assert "prefetch" not in path.names()
        assert path.names() == ["fwd", "bwd"]

    def test_trace_path_explains_the_step(self, tmp_path):
        tracer, _ = traced_run(
            stage=ZeroStage.PARAMETERS,
            world=2,
            device=OffloadDevice.NVME,
            nvme_dir=tmp_path,
        )
        ledger = build_step_ledgers(tracer)[-1]
        path = critical_path_from_trace(tracer, ledger)
        assert path.makespan_us == pytest.approx(ledger.wall_us)
        assert path.coverage() > 0.9
        top = path.top_segments(3)
        assert len(top) == 3
        assert top[0].dur_us >= top[1].dur_us >= top[2].dur_us


# --- zero interference and abort honesty -------------------------------------
class TestZeroInterference:
    def test_tracing_is_bit_identical(self):
        def final_state(traced: bool):
            cfg = ZeroConfig(
                world_size=2, offload=OffloadConfig(), loss_scale=1.0
            )
            ctx = (
                use_tracer(Tracer(enabled=True))
                if traced
                else contextlib.nullcontext()
            )
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

    def test_force_close_commits_dangling_worker_spans(self):
        tracer = Tracer(enabled=True)
        entered = threading.Event()
        release = threading.Event()

        def worker():
            with tracer.span("nvme:pwrite", cat="nvme", req=7):
                entered.set()
                release.wait(timeout=5.0)

        t = threading.Thread(target=worker)
        with use_tracer(tracer):
            t.start()
            assert entered.wait(timeout=5.0)
            assert open_span_names(tracer) == ["nvme:pwrite"]
            closed = tracer.force_close_open(reason="abort_step")
            assert closed == 1
            assert tracer.force_closed == 1
            assert open_span_names(tracer) == []
            release.set()
            t.join(timeout=5.0)
        records = [r for r in tracer.records() if r.name == "nvme:pwrite"]
        # exactly one record: the forced close won the pop, the worker's
        # own __exit__ saw the span already committed and stayed silent
        assert len(records) == 1
        assert records[0].args["aborted"] is True
        assert records[0].args["reason"] == "abort_step"
        assert records[0].args["req"] == 7

    def test_aborted_step_force_closes_and_recovers(self):
        cfg = ZeroConfig(
            world_size=1,
            offload=OffloadConfig(activation_device=OffloadDevice.CPU),
            loss_scale=1.0,
            step_retries=0,
        )
        tracer = Tracer(enabled=True)
        with use_tracer(tracer), ZeroInfinityEngine(
            cfg,
            model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
        ) as eng:
            eng.train_step(tiny_batches(1))
            block1 = dict(eng.model.named_modules())["block1"]
            inner_fwd = block1.inner.forward

            def boom(x):
                raise RuntimeError("mid-forward fault")

            block1.inner.forward = boom
            with pytest.raises(RuntimeError, match="mid-forward fault"):
                eng.train_step(tiny_batches(1))
            block1.inner.forward = inner_fwd

            # the unwind leaves no dangling spans behind on any lane
            assert open_span_names(tracer) == []
            eng.train_step(tiny_batches(1))
            report = eng.report()
        ledgers = build_step_ledgers(tracer)
        # the aborted step's span still commits on unwind, so all three
        # windows ledger — and every one of them stays exact
        assert len(ledgers) == 3
        for ledger in ledgers:
            assert_exact(ledger)
        assert report.perf_steps_traced == 3


# --- drift report ------------------------------------------------------------
class TestPerfReport:
    def run_nvme(self, tmp_path):
        cfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.PARAMETERS,
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
            for _ in range(2):
                eng.train_step(tiny_batches(2))
            return tracer, eng

    def test_starved_nvme_is_flagged_with_recommendation(self, tmp_path):
        tracer, eng = self.run_nvme(tmp_path)
        # at the paper's 70 TFLOPs peak, Eq. (6) requires NVMe bandwidth
        # no real disk (let alone this tmpfs shim) can deliver for a
        # tiny-AIT workload — the drift report must call that out
        report = build_perfreport(eng, tracer, bsz=2, seq=8, ci=1)
        row = drift_row(report, "nvme bandwidth (Eq. 6)")
        assert row is not None
        assert row.measured > 0
        assert row.flagged(report.tolerance)
        assert row in report.flagged()
        assert any("nvme" in r.lower() for r in report.recommendations)
        text = report.render()
        assert "Eq. 6" in text and "drift" in text.lower()

    def test_modest_peak_clears_the_same_run(self, tmp_path):
        tracer, eng = self.run_nvme(tmp_path)
        # against a 1 MFLOPs "accelerator" the measured bandwidth is
        # ample: the bandwidth row must clear, whatever else drifts
        report = build_perfreport(eng, tracer, bsz=2, seq=8, ci=1, peak_tp=1e6)
        row = drift_row(report, "nvme bandwidth (Eq. 6)")
        assert row is not None
        assert not row.flagged(report.tolerance)

    def test_measured_tiers_carry_bytes_and_bandwidth(self, tmp_path):
        tracer, eng = self.run_nvme(tmp_path)
        report = build_perfreport(eng, tracer, bsz=2, seq=8, ci=1)
        nvme = report.tier_bandwidth["nvme"]
        assert nvme["bytes"] > 0
        assert nvme["busy_us"] > 0
        assert nvme["bw"] == pytest.approx(
            nvme["bytes"] / (nvme["busy_us"] / 1e6)
        )
        assert report.ait["nvme"] > 0

    def test_empty_trace_raises(self):
        cfg = ZeroConfig(world_size=1, offload=OffloadConfig(), loss_scale=1.0)
        with ZeroInfinityEngine(
            cfg,
            model_factory=lambda: GPTModel(tiny_model_cfg(), rng=seeded_rng(0)),
        ) as eng:
            with pytest.raises(ValueError, match="engine:step"):
                build_perfreport(eng, [], bsz=1, seq=8)


# --- classification sanity ----------------------------------------------------
class TestClassify:
    @pytest.mark.parametrize(
        "name,cat,expect",
        [
            ("engine:forward", "engine", "compute"),
            ("engine:allgather:block0", "comm", "comm"),
            ("bucket:flush", "comm", "comm"),
            ("offload:swap_in", "offload", "nvme_io"),
            ("nvme:pwrite", "nvme", "nvme_io"),
            ("stall:pinned_wait", "stall", "stall"),
        ],
    )
    def test_vocabulary(self, name, cat, expect):
        assert classify_span(name, cat) == expect

    def test_stall_span_records_cause_and_owner(self):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with stall_span("bucket_flush_wait", owner="bucket0", numel=8):
                pass
        (rec,) = tracer.records()
        assert rec.name == "stall:bucket_flush_wait"
        assert rec.cat == "stall"
        assert rec.args["owner"] == "bucket0"
        assert rec.args["numel"] == 8


# --- stall attribution priority ----------------------------------------------
class TestStallAttributionPriority:
    """Overlapping stalls: ``pinned_wait`` names a resource shortage, so it
    must win the billing over latency-shaped causes wrapping it — the
    chunked optimizer read drain used to swallow nested pinned-pool
    acquires into ``optimizer_io_tail``."""

    @staticmethod
    def ledger(spans):
        from repro.obs.perfscope import _build_step_ledger
        from repro.obs.tracer import SpanRecord

        def rec(name, cat, ts, dur, **args):
            return SpanRecord(
                name=name, cat=cat, ts_us=ts, dur_us=dur, tid=0,
                thread="main", args=args,
            )

        step = rec("engine:step", "engine", 0.0, 100.0)
        records = [step] + [
            rec(f"stall:{cause}", "stall", ts, dur, owner=owner)
            for cause, ts, dur, owner in spans
        ]
        return _build_step_ledger(step, records)

    def test_pinned_wait_nested_inside_drain_wins(self):
        # the outer read-drain span covers [10, 60); a pinned acquire
        # inside it covers [20, 40) — the pool, not the disk, is what the
        # lane waits on there
        led = self.ledger(
            [
                ("optimizer_io_tail", 10.0, 50.0, "p1.r0.chunk0"),
                ("pinned_wait", 20.0, 20.0, "pool"),
            ]
        )
        by_cause = led.stall_us_by_cause()
        assert by_cause["pinned_wait"] == pytest.approx(20.0)
        assert by_cause["optimizer_io_tail"] == pytest.approx(30.0)

    def test_pinned_wait_wins_even_when_longer_lived(self):
        # regression guard for the min-duration tie-break: a pinned span
        # *longer* than the drain segment it overlaps still takes the
        # billing — priority, not span length, decides
        led = self.ledger(
            [
                ("pinned_wait", 10.0, 60.0, "pool"),
                ("optimizer_io_tail", 20.0, 20.0, "p1.r0.chunk1"),
            ]
        )
        by_cause = led.stall_us_by_cause()
        assert by_cause["pinned_wait"] == pytest.approx(60.0)
        assert "optimizer_io_tail" not in by_cause

    def test_non_pinned_overlap_keeps_innermost(self):
        # without a pinned_wait in play the innermost (shortest) stall
        # still names the segment
        led = self.ledger(
            [
                ("optimizer_io_tail", 10.0, 50.0, "p1.r0"),
                ("bucket_flush_wait", 20.0, 10.0, "bucket0"),
            ]
        )
        by_cause = led.stall_us_by_cause()
        assert by_cause["bucket_flush_wait"] == pytest.approx(10.0)
        assert by_cause["optimizer_io_tail"] == pytest.approx(40.0)

    def test_exact_tie_prefers_pinned_wait(self):
        led = self.ledger(
            [
                ("optimizer_io_tail", 10.0, 20.0, "p1.r0.chunk2"),
                ("pinned_wait", 10.0, 20.0, "pool"),
            ]
        )
        by_cause = led.stall_us_by_cause()
        assert by_cause["pinned_wait"] == pytest.approx(20.0)
        assert "optimizer_io_tail" not in by_cause
