"""Trace exporters.

Two sinks, one source of truth:

* **Chrome trace-event JSON** — :func:`chrome_trace` /
  :func:`write_chrome_trace` emit the ``chrome://tracing`` / Perfetto
  format (complete ``"X"`` events plus thread-name metadata), so a traced
  run opens directly in ``https://ui.perfetto.dev``.  Simulated timelines
  export through :func:`sim_to_chrome_trace` with one lane per stream.
* **ASCII** — :func:`telemetry_summary` renders per-category span totals
  as an aligned table for terminal runs.
"""

from __future__ import annotations

import json

from repro.obs.tracer import Tracer
from repro.utils.tables import Table

TRACE_PID = 0  # single-process system: everything under one pid


def chrome_trace_events(records, lanes: dict[int, str]) -> list[dict]:
    """Span ``records`` as Chrome trace-event dicts, sorted by (lane, start).

    ``lanes`` maps each lane id to its thread name — a Tracer's
    ``records()`` and ``lane_names()``, or one rank's exported shard.

    Spans are committed at *exit* (an enclosing span lands after its
    children), so records are re-sorted here to give each lane
    monotonically non-decreasing ``ts``; ties break longest-first so
    complete events nest correctly.

    Stall spans (``cat == "stall"``, from :mod:`repro.obs.perfscope`) are
    additionally *mirrored* onto one synthetic "stalls" lane below every
    thread lane, so wait time reads as a single dedicated track in
    Perfetto without hunting through the nesting.
    """
    events: list[dict] = []
    stall_lane = (max(lanes) + 1) if lanes else 0
    has_stalls = any(
        r.cat == "stall" and not r.counter and not r.instant for r in records
    )
    if has_stalls:
        lanes = dict(lanes)
        lanes[stall_lane] = "stalls"
    for lane, name in sorted(lanes.items()):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": TRACE_PID,
                "tid": lane,
                "args": {"name": name},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": TRACE_PID,
                "tid": lane,
                "args": {"sort_index": lane},
            }
        )
    spans = sorted(records, key=lambda r: (r.tid, r.ts_us, -r.dur_us))
    mirrors: list[dict] = []
    for r in spans:
        ev = {
            "name": r.name,
            "cat": r.cat,
            "ts": r.ts_us,
            "pid": TRACE_PID,
            "tid": r.tid,
        }
        if r.args:
            ev["args"] = dict(r.args)
        if r.counter:
            # counter tracks are process-scoped: drop the lane id so
            # Perfetto renders one track per name, series from args
            ev.pop("tid", None)
            ev["ph"] = "C"
        elif r.instant:
            ev["ph"] = "i"
            ev["s"] = "t"  # thread-scoped instant
        else:
            ev["ph"] = "X"
            ev["dur"] = r.dur_us
        events.append(ev)
        if r.cat == "stall" and not r.counter and not r.instant:
            mirror = dict(ev)
            mirror["tid"] = stall_lane
            args = dict(mirror.get("args", {}))
            args["lane"] = r.tid  # back-pointer to the originating thread
            mirror["args"] = args
            mirrors.append(mirror)
    events.extend(sorted(mirrors, key=lambda e: (e["ts"], -e["dur"])))
    return events


def chrome_trace(tracer: Tracer) -> dict:
    """Full trace document for one tracer."""
    return {
        "traceEvents": chrome_trace_events(tracer.records(), tracer.lane_names()),
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "dropped_spans": tracer.dropped},
    }


def write_chrome_trace(path: str, tracer: Tracer) -> int:
    """Write the trace JSON to ``path``; returns the number of span events."""
    doc = chrome_trace(tracer)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return sum(1 for e in doc["traceEvents"] if e["ph"] in ("X", "i"))


def merged_chrome_trace(shards) -> dict:
    """Per-rank trace shards merged into one multi-process Chrome trace.

    Each :class:`~repro.comm.launcher.TraceShard` becomes its own trace
    *process* (``pid`` = rank, named ``rank N``), keeping every rank's
    lanes and stall track intact — the view Perfetto gives a real
    multi-process distributed run.

    Each rank's Tracer subtracts its *own* construction-time monotonic
    epoch from every timestamp, so raw shard times each start near zero.
    The shards carry that epoch (``TraceShard.epoch_ns``, exchanged at
    the result-collection rendezvous); here every shard is shifted by its
    offset from the earliest epoch so spans from different pids align on
    one run timeline.  CLOCK_MONOTONIC is system-wide across forked
    processes on Linux, so the offsets are directly comparable.  Shards
    without an epoch (older captures) are left at their own zero.
    """
    events: list[dict] = []
    dropped = 0
    epochs = [int(getattr(s, "epoch_ns", 0) or 0) for s in shards]
    known = [e for e in epochs if e]
    origin = min(known) if known else 0
    for shard in sorted(shards, key=lambda s: s.rank):
        epoch = int(getattr(shard, "epoch_ns", 0) or 0)
        shift_us = (epoch - origin) / 1e3 if epoch else 0.0
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": shard.rank,
                "args": {"name": f"rank {shard.rank}"},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "process_sort_index",
                "pid": shard.rank,
                "args": {"sort_index": shard.rank},
            }
        )
        for ev in chrome_trace_events(shard.records, shard.lanes):
            ev["pid"] = shard.rank
            if shift_us and "ts" in ev:
                ev["ts"] += shift_us
            events.append(ev)
        dropped += shard.dropped
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro.obs",
            "ranks": len(shards),
            "dropped_spans": dropped,
            "clock": "normalized" if known else "per-rank",
        },
    }


def write_merged_chrome_trace(path: str, shards) -> int:
    """Write merged per-rank shards to ``path``; returns span event count."""
    doc = merged_chrome_trace(shards)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return sum(1 for e in doc["traceEvents"] if e.get("ph") in ("X", "i"))


def sim_to_chrome_trace(result) -> dict:
    """A simulated timeline (:class:`~repro.sim.events.SimulationResult`)
    as a Chrome trace: one lane per stream, one complete event per task.

    Simulated seconds map to trace microseconds 1:1 scaled by 1e6, so a
    4.2 s makespan reads as 4.2 s in Perfetto.
    """
    streams = sorted({t.stream for t in result.tasks})
    lane_of = {s: i for i, s in enumerate(streams)}
    events: list[dict] = []
    for stream, lane in lane_of.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": TRACE_PID,
                "tid": lane,
                "args": {"name": f"stream:{stream}"},
            }
        )
    for t in sorted(result.tasks, key=lambda t: (lane_of[t.stream], t.start)):
        events.append(
            {
                "name": t.name,
                "cat": t.stream,
                "ph": "X",
                "ts": t.start * 1e6,
                "dur": (t.finish - t.start) * 1e6,
                "pid": TRACE_PID,
                "tid": lane_of[t.stream],
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.sim", "makespan_s": result.makespan},
    }


def write_sim_trace(path: str, result) -> int:
    """Write a simulated timeline as Chrome trace JSON; returns task count."""
    doc = sim_to_chrome_trace(result)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return sum(1 for e in doc["traceEvents"] if e["ph"] == "X")


def telemetry_summary(tracer: Tracer) -> str:
    """ASCII table of span time by category."""
    by_cat: dict[str, tuple[int, float]] = {}
    for r in tracer.records():
        if r.counter:  # counter samples carry no duration
            continue
        n, total = by_cat.get(r.cat, (0, 0.0))
        by_cat[r.cat] = (n + 1, total + r.dur_us)
    if not by_cat:
        return "(no telemetry recorded)"
    t = Table(
        ["category", "spans", "total ms", "mean us"],
        title="Span time by category",
    )
    for cat in sorted(by_cat):
        n, total = by_cat[cat]
        t.add_row([cat, n, total / 1e3, total / n])
    return t.render()
