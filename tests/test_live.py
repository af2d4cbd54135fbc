"""Live telemetry plane: samples, seqlock ring, watchdog, flight recorder.

Loop-backend coverage of ISSUE 9 (process-spawning twins live in
``tests/test_live_mp.py``): sample encoding, the shm seqlock slot
protocol, watchdog state transitions and pressure alarms under injected
wall-clocks, end-to-end loop training with the plane installed
(streaming, straggler detection, JSONL shards, abort-path flushes, each
engine's samples carrying only its own counts), the dashboard,
merged-trace clock normalization, and the crash flight recorder's
determinism + postmortem bundle contract.
"""

import json
import os

import pytest

from repro.comm.launcher import TraceShard
from repro.comm.shm import TelemetryRing
from repro.faults import FaultUnrecoverable, use_faults
from repro.obs import merged_chrome_trace
from repro.obs.flightrec import (
    FlightRecorder,
    canonical_json,
    dump_postmortem,
    trace_tail_events,
    use_flightrec,
)
from repro.obs.live import (
    ClusterView,
    HealthWatchdog,
    LiveConfig,
    LivePlane,
    TelemetrySample,
    get_live,
    render_dashboard,
    use_live,
)
from repro.obs.tracer import SpanRecord, Tracer, trace_span, use_tracer
from repro.workloads.calibrate import CalibSpec, run_training


def sample(rank, hb, **kw):
    defaults = dict(step=0, phase="turn", steps_per_s=0.0)
    defaults.update(kw)
    return TelemetrySample(rank=rank, hb=hb, **defaults)


class TestTelemetrySample:
    def test_bytes_roundtrip(self):
        s = sample(
            1,
            7,
            step=3,
            phase="optimizer_step",
            tier_bytes={"cpu": 10, "pinned": 2},
            stall_us={"pinned_wait": 12.5},
            delay_us=5000,
        )
        assert TelemetrySample.from_bytes(s.to_bytes()) == s

    def test_encoding_is_canonical(self):
        # sorted keys + compact separators: the wire format is stable
        raw = sample(0, 1).to_bytes()
        assert raw == canonical_json(json.loads(raw))


class TestTelemetryRing:
    def test_publish_and_read(self):
        ring = TelemetryRing(2, slot_capacity=256)
        try:
            assert ring.read_all() == [None, None]
            ring.put_sample(0, b"alpha")
            ring.put_sample(1, b"beta")
            assert ring.read_sample(0) == b"alpha"
            assert ring.read_all() == [b"alpha", b"beta"]
            ring.put_sample(0, b"alpha2")  # latest wins
            assert ring.read_sample(0) == b"alpha2"
        finally:
            ring.destroy()

    def test_oversized_sample_rejected(self):
        ring = TelemetryRing(1, slot_capacity=8)
        try:
            with pytest.raises(ValueError, match="slot capacity"):
                ring.put_sample(0, b"x" * 9)
        finally:
            ring.destroy()

    def test_mid_write_slot_reads_as_no_news(self):
        ring = TelemetryRing(1, slot_capacity=64)
        try:
            ring.put_sample(0, b"ok")
            ring._header(0)[0] = int(ring._header(0)[0]) | 1  # wedge: odd seq
            assert ring.read_sample(0) is None
        finally:
            ring.destroy()

    def test_destroy_idempotent(self):
        ring = TelemetryRing(1)
        ring.destroy()
        ring.destroy()


class TestHealthWatchdog:
    def test_behind_and_recovered(self):
        wd = HealthWatchdog(3, LiveConfig(skew_heartbeats=3))
        wd.observe([sample(0, 10), sample(1, 10), sample(2, 2)], now_s=0.0)
        assert wd.states[2] == "behind"
        events, _ = wd.observe(
            [sample(0, 11), sample(1, 11), sample(2, 10)], now_s=1.0
        )
        assert wd.states[2] == "ok"
        assert [e.kind for e in events] == ["recovered"]
        # the watchdog keeps every transition it surfaced
        assert [e.kind for e in wd.events] == ["behind", "recovered"]

    def test_straggler_on_delay_excess(self):
        wd = HealthWatchdog(2, LiveConfig(straggler_delay_us=1000))
        wd.observe(
            [sample(0, 5, delay_us=0), sample(1, 5, delay_us=15000)], now_s=0.0
        )
        assert wd.states == {0: "ok", 1: "straggler"}

    def test_stalled_then_dead_on_heartbeat_deadline(self):
        cfg = LiveConfig(deadline_s=5.0, dead_after_s=30.0)
        wd = HealthWatchdog(2, cfg)
        wd.observe([sample(0, 1), sample(1, 1)], now_s=0.0)
        assert wd.states == {0: "ok", 1: "ok"}
        # rank 1's heartbeat freezes; rank 0 keeps beating
        wd.observe([sample(0, 2), sample(1, 1)], now_s=6.0)
        assert wd.states[1] == "stalled"
        wd.observe([sample(0, 3), sample(1, 1)], now_s=31.0)
        assert wd.states[1] == "dead"
        assert wd.states[0] == "ok"

    def test_never_seen_rank_goes_dead(self):
        wd = HealthWatchdog(2, LiveConfig(dead_after_s=30.0))
        wd.observe([sample(0, 1), None], now_s=0.0)
        assert wd.states[1] == "ok"  # grace period
        wd.observe([sample(0, 2), None], now_s=31.0)
        assert wd.states[1] == "dead"

    def test_pinned_pressure_alarm_surfaces_once(self):
        cfg = LiveConfig(pinned_capacity_bytes=100, pinned_alarm_fraction=0.9)
        rec = FlightRecorder()
        wd = HealthWatchdog(1, cfg, recorder=rec)
        s = sample(0, 1, tier_bytes={"pinned": 95})
        _, alarms = wd.observe([s], now_s=0.0)
        assert [a.kind for a in alarms] == ["pinned_pressure"]
        _, alarms = wd.observe([s], now_s=1.0)
        assert [a.kind for a in alarms] == ["pinned_pressure"]  # still active
        # ...but the recorder/trace surface fired exactly once
        assert [e.name for e in rec.events(0)] == ["pinned_pressure"]

    def test_retry_storm_alarm(self):
        wd = HealthWatchdog(1, LiveConfig(retry_storm=8))
        _, alarms = wd.observe(
            [sample(0, 1, step_retries=3, io_retries=5)], now_s=0.0
        )
        assert [a.kind for a in alarms] == ["retry_storm"]

    def test_recorder_gets_volatile_health_events(self):
        rec = FlightRecorder()
        wd = HealthWatchdog(2, LiveConfig(), recorder=rec)
        wd.observe([sample(0, 9), sample(1, 1)], now_s=0.0)
        evs = rec.events(1)
        assert [(e.kind, e.name, e.volatile) for e in evs] == [
            ("health", "behind", True)
        ]


SPEC = CalibSpec(world=2, steps=3)
STRAGGLER = "straggler@rank.begin:rank=1,times=3,delay_us=5000"
#: exhausts one step's aio read retries: the engine replays the step
READ_FAULTS = "io_error@aio.read:times=6"


def nvme_engine():
    """A world-2 stage-3 engine with every state on NVMe (its own spool),
    two step replays allowed, and the two microbatches it trains on."""
    from repro.core import (
        OffloadConfig,
        OffloadDevice,
        ZeroConfig,
        ZeroInfinityEngine,
        ZeroStage,
    )
    from repro.nn import GPTModel, TransformerConfig
    from repro.utils.rng import seeded_rng

    cfg = ZeroConfig(
        world_size=2,
        stage=ZeroStage.PARAMETERS,
        step_retries=2,
        offload=OffloadConfig(
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
        ),
        loss_scale=1.0,
    )
    model_cfg = TransformerConfig(
        num_layers=2, hidden_dim=32, num_heads=4, vocab_size=64, max_seq=16
    )
    rng = seeded_rng(5)
    batches = [
        (rng.integers(0, 64, (2, 8)), rng.integers(0, 64, (2, 8)))
        for _ in range(2)
    ]
    engine = ZeroInfinityEngine(
        cfg,
        model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(7)),
        lr=1e-2,
    )
    return engine, batches


class TestLoopIntegration:
    def test_plane_streams_and_engine_hooks_fire(self):
        rec = FlightRecorder()
        plane = LivePlane(world=2, config=LiveConfig(), recorder=rec)
        with use_flightrec(rec), use_live(plane):
            assert get_live() is plane
            run_training(SPEC)
            view = plane.view()
        assert get_live() is None
        assert plane.samples_published > 0
        assert all(s is not None for s in view.samples)
        assert view.worst_state == "ok"
        for s in view.samples:
            assert s.schema == 1
            assert s.step == SPEC.steps  # final step_end published
            assert s.hb == SPEC.steps  # one heartbeat per local turn
        # canonical flight events: per-rank phases + run-ring comm/step
        tail = rec.canonical_tail(0)
        assert [d["name"] for d in tail[:2]] == ["forward", "backward"]
        assert [d["pos"] for d in tail] == list(range(len(tail)))
        run_tail = [d["name"] for d in rec.canonical_tail(None)]
        assert run_tail.count("step_sync") == SPEC.steps
        assert run_tail.count("step_end") == SPEC.steps

    def test_loop_straggler_detected_within_skew(self):
        plane = LivePlane(world=2, config=LiveConfig(straggler_delay_us=1000))
        with use_live(plane), use_faults(STRAGGLER, seed=3):
            run_training(SPEC)
            view = plane.view()
        assert view.states[1] == "straggler"
        assert view.states[0] == "ok"
        assert view.samples[1].delay_us > view.samples[0].delay_us
        assert "straggler" in [e.kind for e in plane.watchdog.events]

    def test_jsonl_shards_written_and_merged(self, tmp_path):
        path = str(tmp_path / "tel.jsonl")
        plane = LivePlane(world=2, config=LiveConfig(jsonl_path=path))
        with use_live(plane):
            run_training(SPEC)
        shards = [f"{path}.rank{r}" for r in range(2)]
        assert all(os.path.exists(p) for p in shards)
        for rank, shard in enumerate(shards):
            with open(shard) as fh:
                rows = [json.loads(line) for line in fh if line.strip()]
            assert rows and {r["rank"] for r in rows} == {rank}
            stamps = [r["mono_us"] for r in rows]
            assert stamps == sorted(stamps)  # one monotonic clock per shard

    def test_abort_path_flushes_telemetry_shards(self, tmp_path):
        # an exhausted aio read budget forces a step replay, which runs
        # _abort_step_cleanup -> live.flush(); with fewer records than the
        # logger's flush_every the shard is only on disk if that fired
        path = str(tmp_path / "tel.jsonl")
        plane = LivePlane(world=2, config=LiveConfig(jsonl_path=path))
        eng, batches = nvme_engine()
        with eng:
            with use_live(plane):
                # armed only around the steps, like the chaos suite
                with use_faults(READ_FAULTS, seed=0):
                    eng.train_step(batches)
                assert eng.step_retries_used >= 1
                shard = f"{path}.rank0"
                assert os.path.exists(shard)
                with open(shard) as fh:
                    rows = [json.loads(line) for line in fh if line.strip()]
                assert rows and all(r["event"] == "telemetry" for r in rows)

    def test_samples_carry_only_the_publishing_engines_counts(self):
        # engine A replays a step in the same process, then engine B
        # trains a clean step under the plane: B's samples (and so the
        # watchdog's retry_storm sum) must not see A's retries
        eng_a, batches = nvme_engine()
        eng_b, _ = nvme_engine()
        plane = LivePlane(world=2, config=LiveConfig(retry_storm=1))
        with eng_a, eng_b:
            with use_faults(READ_FAULTS, seed=0):
                eng_a.train_step(batches)
            rep_a = eng_a.report()
            assert rep_a.step_retries >= 1 and rep_a.io_read_retries >= 1
            with use_live(plane):
                eng_b.train_step(batches)
                view = plane.view()
            rep_b = eng_b.report()
        assert (rep_b.step_retries, rep_b.io_read_retries) == (0, 0)
        for s in view.samples:
            assert (s.step_retries, s.io_retries) == (0, 0)
            assert s.inflight_aio == 0  # step_end: B's I/O has drained
        assert view.alarms == []

    def test_flush_is_idempotent_and_safe_after_close(self, tmp_path):
        plane = LivePlane(
            world=1, config=LiveConfig(jsonl_path=str(tmp_path / "t.jsonl"))
        )
        plane.emit(step=0, phase="step_end")
        plane.flush()
        plane.flush()
        plane.close()
        plane.flush()  # must not raise on closed sinks
        plane.close()


class TestQuantiles:
    def test_dashboard_rows_and_alarms(self):
        plane = LivePlane(world=2, config=LiveConfig(retry_storm=1))
        plane.emit(step=4, phase="step_end")
        view = plane.view()
        text = render_dashboard(view)
        assert "world 2" in text and "step 4" in text
        assert text.count("step_end") == 2

    def test_dashboard_prints_binary_units(self):
        sample = TelemetrySample(rank=0, hb=1, step=1, phase="fwd", steps_per_s=1.0,
                                 tier_bytes={"gpu": 3 * 2**20, "cpu": 512})
        text = render_dashboard(ClusterView([sample], {}, [], []))
        assert "3.0 MiB" in text and "512 B" in text
        assert "MB" not in text


class TestMergedTraceClocks:
    #: One fixed span for every shard: both ranks start their work at the
    #: same tracer-relative instant, so only the epochs tell them apart.
    SPAN = SpanRecord("work", "compute", 12.5, 3.0, 0, "MainThread")

    def _shard(self, rank, epoch_ns):
        return TraceShard(rank, [self.SPAN], {0: "MainThread"}, 0, epoch_ns)

    def test_epochs_normalized_onto_one_timeline(self):
        doc = merged_chrome_trace(
            [self._shard(0, 10_000_000_000), self._shard(1, 10_000_500_000)]
        )
        assert doc["otherData"]["clock"] == "normalized"

        def start(pid):
            return min(
                e["ts"] for e in doc["traceEvents"]
                if e.get("ph") == "X" and e["pid"] == pid
            )

        # rank 1's epoch is 500us after rank 0's -> its spans shift +500us
        assert start(1) - start(0) == 500.0

    def test_epochless_shards_stay_per_rank(self):
        doc = merged_chrome_trace([self._shard(0, 0), self._shard(1, 0)])
        assert doc["otherData"]["clock"] == "per-rank"


class TestFlightRecorder:
    def test_canonical_volatile_mismatch_rejected(self):
        rec = FlightRecorder()
        with pytest.raises(ValueError, match="volatile"):
            rec.record("fault", "bit_flip", rank=0, volatile=True)
        with pytest.raises(ValueError, match="volatile"):
            rec.record("health", "behind", rank=0)

    def test_capacity_bound_and_renumbering(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("phase", f"p{i}", rank=0, step=i)
        tail = rec.canonical_tail(0)
        assert [d["name"] for d in tail] == ["p6", "p7", "p8", "p9"]
        assert [d["pos"] for d in tail] == [0, 1, 2, 3]

    def test_canonical_docs_exclude_wall_clock(self):
        rec = FlightRecorder()
        rec.record("comm", "step_sync", step=1)
        (doc,) = rec.canonical_tail(None)
        assert set(doc) == {"kind", "name", "vclock_us", "args", "pos"}

    def test_bundle_bytes_deterministic_for_fixed_seed(self):
        def one_run():
            rec = FlightRecorder()
            plane = LivePlane(world=2, config=LiveConfig(), recorder=rec)
            with use_flightrec(rec), use_live(plane):
                with use_faults(STRAGGLER, seed=3):
                    run_training(SPEC)
            return [
                canonical_json(rec.rank_bundle_doc(r)) for r in rec.ranks()
            ]

        first, second = one_run(), one_run()
        assert first == second
        assert b'"kind":"fault"' in first[1]  # rank 1 recorded its faults

    def test_postmortem_bundle_structure(self, tmp_path):
        rec = FlightRecorder()
        rec.record("phase", "forward", rank=0, step=0)
        rec.record("fault", "bit_flip", rank=0, key="aio.read")
        rec.record("retry", "step_replay", volatile=True, attempt=1)
        rec.note_state(0, phase="forward", step=0)
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with trace_span("swap:read", cat="nvme"):
                pass
        written = dump_postmortem(
            str(tmp_path), "FaultUnrecoverable: checksum",
            recorder=rec, world=1, tracer=tracer,
        )
        names = {os.path.basename(p) for p in written}
        assert names == {
            "events.rank0.json", "state.json", "trace_tail.json",
            "manifest.json",
        }
        bundle = json.loads((tmp_path / "events.rank0.json").read_bytes())
        assert bundle["schema"] == 1
        assert [e["kind"] for e in bundle["events"]] == ["phase", "fault"]
        state = json.loads((tmp_path / "state.json").read_text())
        assert state["reason"].startswith("FaultUnrecoverable")
        assert state["last_state"]["0"]["phase"] == "forward"
        assert [e["kind"] for e in state["volatile_events"]] == ["retry"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["ranks"] == [0]

    def test_trace_tail_matches_runtime_tracer_exactly(self, tmp_path):
        # acceptance: the dumped tail must equal what the live tracer says
        rec = FlightRecorder()
        plane = LivePlane(
            world=2,
            config=LiveConfig(postmortem_dir=str(tmp_path), trace_tail=50),
            recorder=rec,
        )
        tracer = Tracer(enabled=True)
        with use_tracer(tracer), use_flightrec(rec), use_live(plane):
            run_training(SPEC)
            plane.on_terminal("TestTerminal: injected")
        dumped = json.loads((tmp_path / "trace_tail.json").read_text())
        assert dumped == json.loads(
            json.dumps(trace_tail_events(tracer, 50), sort_keys=True)
        )
        assert 0 < len(dumped) <= 50 + 2 * len(tracer.lane_names())

    def test_engine_terminal_fault_dumps_bundle(self, tmp_path):
        # loop-mode half of the chaos-cell acceptance: an unrecoverable
        # fault dumps a complete bundle through the engine's own handler
        rec = FlightRecorder()
        plane = LivePlane(
            world=2,
            config=LiveConfig(postmortem_dir=str(tmp_path)),
            recorder=rec,
        )
        spec = CalibSpec(world=2, steps=2, offload="nvme")
        with use_flightrec(rec), use_live(plane):
            with use_faults("bit_flip@aio.read:times=1000", seed=0):
                with pytest.raises(FaultUnrecoverable):
                    run_training(spec)
        assert (tmp_path / "manifest.json").exists()
        bundle = json.loads((tmp_path / "events.rank0.json").read_text())
        # aio fault sites carry no rank, so the killing fault lands in the
        # shared run ring every shard embeds
        assert "fault" in [e["kind"] for e in bundle["run"]]
        assert [e["kind"] for e in bundle["events"]]  # rank tail non-empty
        state = json.loads((tmp_path / "state.json").read_text())
        assert "FaultUnrecoverable" in state["reason"]


class TestLintRule:
    def test_direct_ring_write_flagged_outside_live(self):
        from repro.check.lint import lint_source

        src = "def f(ring, rank, b):\n    ring.put_sample(rank, b)\n"
        assert [
            f.rule for f in lint_source(src, "repro/core/prefetch.py")
        ] == ["telemetry-ring-write"]
        assert lint_source(src, "repro/obs/live.py") == []

    def test_src_baseline_stays_empty(self):
        from repro.check.lint import collect

        found = [
            f for f in collect("src/repro")
            if f.rule == "telemetry-ring-write"
        ]
        assert found == []
