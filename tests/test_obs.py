"""Telemetry subsystem: tracer and exporters.

The centrepiece is the round-trip test: a real NVMe-offloaded train step is
traced end-to-end and the exported Chrome trace must be valid trace-event
JSON — parseable, per-lane monotonic, complete-events-only — with spans
from every instrumented layer (engine, nvme, comm, prefetch, offload).
"""

import json
import threading

import pytest

from repro.core import OffloadConfig, OffloadDevice, ZeroConfig, ZeroInfinityEngine
from repro.nn import GPTModel, TransformerConfig
from repro.obs import (
    Tracer,
    chrome_trace,
    chrome_trace_events,
    get_tracer,
    sim_to_chrome_trace,
    telemetry_summary,
    trace_instant,
    trace_span,
    use_tracer,
    write_chrome_trace,
    write_sim_trace,
)
from repro.utils.rng import seeded_rng, spawn_rngs


class TestTracer:
    def test_disabled_returns_shared_noop(self):
        t = Tracer(enabled=False)
        a = t.span("x")
        b = t.span("y", cat="nvme", bytes=4096)
        assert a is b  # one shared singleton: no allocation on the fast path
        with a:
            pass
        assert len(t) == 0

    def test_global_disabled_by_default(self):
        assert not get_tracer().enabled
        with trace_span("ignored", cat="engine"):
            pass
        trace_instant("also ignored")
        assert len(get_tracer()) == 0 or get_tracer() is not None  # no crash

    def test_span_records_interval(self):
        t = Tracer(enabled=True)
        with t.span("work", cat="engine", step=3):
            pass
        (r,) = t.records()
        assert r.name == "work"
        assert r.cat == "engine"
        assert r.args == {"step": 3}
        assert r.dur_us >= 0.0
        assert not r.instant

    def test_nesting_orders_child_before_parent(self):
        t = Tracer(enabled=True)
        with t.span("outer"):
            with t.span("inner"):
                pass
        names = [r.name for r in t.records()]
        assert names == ["inner", "outer"]  # committed at exit
        inner, outer = t.records()
        assert outer.ts_us <= inner.ts_us
        assert outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us

    def test_instant(self):
        t = Tracer(enabled=True)
        t.instant("marker", cat="prefetch", reason="divergence")
        (r,) = t.records()
        assert r.instant and r.dur_us == 0.0

    def test_thread_lanes_are_dense_and_stable(self):
        t = Tracer(enabled=True)
        with t.span("main-span"):
            pass

        def worker():
            with t.span("worker-span"):
                pass

        th = threading.Thread(target=worker, name="lane-test")
        th.start()
        th.join()
        lanes = {r.name: r.tid for r in t.records()}
        assert lanes["main-span"] == 0
        assert lanes["worker-span"] == 1
        assert t.lane_names() == {0: "MainThread", 1: "lane-test"}

    def test_max_spans_drops_and_counts(self):
        t = Tracer(enabled=True, max_spans=2)
        for i in range(5):
            with t.span(f"s{i}"):
                pass
        assert len(t) == 2
        assert t.dropped == 3
        t.clear()
        assert len(t) == 0 and t.dropped == 0

    def test_max_spans_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_use_tracer_installs_and_restores(self):
        before = get_tracer()
        with use_tracer() as t:
            assert get_tracer() is t
            assert get_tracer().enabled
            with trace_span("global-span", cat="comm"):
                pass
        assert get_tracer() is before
        assert [r.name for r in t.records()] == ["global-span"]

    def test_categories(self):
        t = Tracer(enabled=True)
        with t.span("a", cat="nvme"):
            pass
        t.instant("b", cat="comm")
        assert {r.cat for r in t.records()} == {"nvme", "comm"}


def tiny_batches(world, n_rounds=1, seq=8, vocab=32):
    rngs = spawn_rngs(7, world)
    return [
        [(r.integers(0, vocab, (1, seq)), r.integers(0, vocab, (1, seq))) for r in rngs]
        for _ in range(n_rounds)
    ]


@pytest.fixture(scope="module")
def traced_run():
    """One NVMe-offloaded train step, traced; shared by the export tests."""
    cfg = TransformerConfig(
        num_layers=2, hidden_dim=16, num_heads=2, vocab_size=32, max_seq=8
    )
    zcfg = ZeroConfig(
        world_size=2,
        offload=OffloadConfig(
            param_device=OffloadDevice.NVME,
            grad_device=OffloadDevice.NVME,
            optimizer_device=OffloadDevice.NVME,
        ),
        loss_scale=1.0,
    )
    with use_tracer() as tracer:
        with ZeroInfinityEngine(
            zcfg, model_factory=lambda: GPTModel(cfg, rng=seeded_rng(0)), lr=1e-3
        ) as engine:
            for batch in tiny_batches(2, n_rounds=2):
                engine.train_step(batch)
            report = engine.report()
    return tracer, report


class TestChromeTraceExport:
    def test_roundtrips_as_valid_json(self, traced_run, tmp_path):
        tracer, _ = traced_run
        path = str(tmp_path / "trace.json")
        n = write_chrome_trace(path, tracer)
        assert n > 0
        with open(path) as fh:
            doc = json.load(fh)  # must parse: the whole point
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)
        assert doc["otherData"]["dropped_spans"] == 0

    def test_covers_all_instrumented_layers(self, traced_run):
        tracer, _ = traced_run
        events = chrome_trace_events(tracer.records(), tracer.lane_names())
        cats = {e["cat"] for e in events if e["ph"] == "X"}
        # acceptance bar: spans from >= 4 distinct categories
        assert {"engine", "nvme", "comm", "prefetch"} <= cats

    def test_ts_monotonic_per_lane(self, traced_run):
        tracer, _ = traced_run
        last: dict[int, float] = {}
        for e in chrome_trace_events(tracer.records(), tracer.lane_names()):
            if e["ph"] in ("M", "C"):  # counter tracks are process-scoped
                continue
            assert e["ts"] >= last.get(e["tid"], 0.0)
            last[e["tid"]] = e["ts"]
        assert len(last) >= 2  # main thread plus aio workers

    def test_events_are_complete_and_balanced(self, traced_run):
        tracer, _ = traced_run
        for e in chrome_trace_events(tracer.records(), tracer.lane_names()):
            assert e["ph"] in ("X", "M", "i", "C")  # no unbalanced B/E pairs
            if e["ph"] == "X":
                assert e["dur"] >= 0.0
            if e["ph"] == "i":
                assert e["s"] == "t"

    def test_thread_metadata_names_aio_workers(self, traced_run):
        tracer, _ = traced_run
        names = [
            e["args"]["name"]
            for e in chrome_trace_events(tracer.records(), tracer.lane_names())
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "MainThread" in names
        assert any(n.startswith("repro-aio") for n in names)

    def test_engine_step_phases_present(self, traced_run):
        tracer, _ = traced_run
        names = {r.name for r in tracer.records()}
        for phase in ("engine:step", "engine:forward", "engine:backward",
                      "engine:optimizer", "offload:swap_in", "offload:swap_out",
                      "nvme:submit_write", "comm:allgather"):
            assert phase in names, phase


class TestSimTraceExport:
    def test_sim_timeline_exports(self, tmp_path):
        from repro.core.config import Strategy
        from repro.hardware import dgx2_cluster
        from repro.sim import SimWorkload, StepSimulator, policy_for_strategy

        wl = SimWorkload(
            params=int(8e9), num_layers=4, hidden_dim=8192, attn_heads=16,
            batch_per_gpu=2,
        )
        b = StepSimulator(
            dgx2_cluster(1), wl, policy_for_strategy(Strategy.ZERO_INF_NVME)
        ).simulate()
        doc = sim_to_chrome_trace(b.result)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(b.result.tasks)
        assert doc["otherData"]["makespan_s"] == pytest.approx(b.result.makespan)
        # seconds scale 1:1 into trace microseconds
        assert max(e["ts"] + e["dur"] for e in xs) == pytest.approx(
            b.result.makespan * 1e6
        )
        path = str(tmp_path / "sim.json")
        assert write_sim_trace(path, b.result) == len(xs)
        with open(path) as fh:
            json.load(fh)


class TestTelemetrySummary:
    def test_renders_categories_and_metrics(self, traced_run):
        tracer, _ = traced_run
        out = telemetry_summary(tracer)
        assert "Span time by category" in out
        for cat in ("engine", "nvme", "comm", "prefetch"):
            assert cat in out

    def test_empty_telemetry(self):
        assert telemetry_summary(Tracer(enabled=True)) == "(no telemetry recorded)"


class TestPrefetchCounters:
    def test_summary_reports_hits_and_misses(self):
        cfg = TransformerConfig(
            num_layers=2, hidden_dim=16, num_heads=2, vocab_size=32, max_seq=8
        )
        zcfg = ZeroConfig(
            world_size=2,
            offload=OffloadConfig(
                param_device=OffloadDevice.NVME,
                optimizer_device=OffloadDevice.NVME,
            ),
            loss_scale=1.0,
        )
        with ZeroInfinityEngine(
            zcfg, model_factory=lambda: GPTModel(cfg, rng=seeded_rng(0)), lr=1e-3
        ) as engine:
            for batch in tiny_batches(2, n_rounds=2):
                engine.train_step(batch)
            stats = engine.prefetcher.stats()
            summary = engine.summary()
        assert stats["hits"] > 0  # warm steps hit the lookahead
        # a landed record serves every later read of it in the step, so
        # the reads prefetches served outnumber the reads they started
        assert 0 < stats["issued"] <= stats["hits"]
        assert stats["mispredicts"] == 0  # static model order: no divergence
        assert "prefetch:" in summary
        assert f"{stats['hits']} hits" in summary
        assert f"{stats['mispredicts']} mis-predicts" in summary


class TestCliTrace:
    def test_train_demo_writes_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "run.json")
        rc = main([
            "train-demo", "--world", "2", "--steps", "1", "--hidden", "32",
            "--offload", "nvme", "--trace", path,
        ])
        assert rc == 0
        with open(path) as fh:
            doc = json.load(fh)
        cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"engine", "nvme", "comm", "prefetch"} <= cats
        out = capsys.readouterr().out
        assert "Perfetto" in out and path in out

    def test_throughput_writes_sim_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "sim.json")
        rc = main(["throughput", "--config", "10B-1node", "--trace", path])
        assert rc == 0
        with open(path) as fh:
            doc = json.load(fh)
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert path in capsys.readouterr().out

    def test_train_demo_untreaced_leaves_global_tracer_off(self):
        assert not get_tracer().enabled
