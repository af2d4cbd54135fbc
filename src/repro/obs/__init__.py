"""Unified telemetry: span tracing and trace export.

The observability layer for the *real* execution paths (the simulator has
its own timeline in :mod:`repro.sim`).  The pieces:

* :mod:`repro.obs.tracer` — a low-overhead, thread-aware span tracer with
  a no-op fast path, recording into a process-global :class:`Tracer`;
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto) and ASCII
  summary exporters;
* :mod:`repro.obs.memscope` — a live per-tier byte ledger with owner
  attribution, watermark timelines and an ASCII memory gantt;
* :mod:`repro.obs.memreport` — measured-vs-analytic-model drift reports
  (Eqs. 1-5) with tuning recommendations (imported by its path: it loads
  the analytic model);
* :mod:`repro.obs.perfscope` — per-step time ledger (compute/comm/nvme/
  stall/overlap, exact to the wall-clock), stall attribution by cause and
  owner, and critical-path extraction over the span DAG;
* :mod:`repro.obs.perfreport` — measured-vs-model bandwidth drift reports
  (Eqs. 6-11) with stall-driven knob recommendations (imported by its
  path, like ``memreport``);
* :mod:`repro.obs.live` — the live telemetry plane: per-rank sample
  streaming (in-process or over the shm telemetry ring), a health
  watchdog (heartbeat skew, stragglers, pressure alarms), and the
  ``train-demo --live`` ASCII dashboard;
* :mod:`repro.obs.flightrec` — the crash flight recorder: bounded
  per-rank event rings dumped as a deterministic postmortem bundle on
  terminal failures;
* :mod:`repro.obs.overhead` — the overhead contract every compiled-in
  plane is held to, and the one harness that measures it.

Typical use::

    from repro.obs import use_tracer, write_chrome_trace

    with use_tracer() as tracer:
        engine.train_step(batches)
    write_chrome_trace("trace.json", tracer)
    # open trace.json at https://ui.perfetto.dev
"""

from repro.obs.tracer import (
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    trace_counter,
    trace_instant,
    trace_span,
    use_tracer,
)
from repro.obs.memscope import (
    TIERS,
    MemScope,
    WatermarkSample,
    attributed_zeros,
    attribution_for_key,
    get_memscope,
    mem_alloc,
    mem_free,
    mem_sample,
    render_memory_gantt,
    set_memscope,
    use_memscope,
)
from repro.obs.perfscope import (
    PHASES,
    CriticalPath,
    PerfSummary,
    Segment,
    StallTotal,
    StepLedger,
    build_step_ledgers,
    classify_span,
    critical_path_from_trace,
    render_perf_breakdown,
    stall_span,
    summarize_ledgers,
)
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    merged_chrome_trace,
    sim_to_chrome_trace,
    telemetry_summary,
    write_chrome_trace,
    write_merged_chrome_trace,
    write_sim_trace,
)
from repro.obs.live import (
    ClusterView,
    HealthEvent,
    HealthWatchdog,
    LiveConfig,
    LivePlane,
    TelemetrySample,
    get_live,
    install_live,
    render_dashboard,
    use_live,
)
from repro.obs.flightrec import (
    FlightEvent,
    FlightRecorder,
    dump_postmortem,
    get_flightrec,
    install_flightrec,
    use_flightrec,
)

__all__ = [
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "trace_counter",
    "trace_instant",
    "trace_span",
    "use_tracer",
    "TIERS",
    "MemScope",
    "WatermarkSample",
    "attributed_zeros",
    "attribution_for_key",
    "get_memscope",
    "mem_alloc",
    "mem_free",
    "mem_sample",
    "render_memory_gantt",
    "set_memscope",
    "use_memscope",
    "PHASES",
    "CriticalPath",
    "PerfSummary",
    "Segment",
    "StallTotal",
    "StepLedger",
    "build_step_ledgers",
    "classify_span",
    "critical_path_from_trace",
    "render_perf_breakdown",
    "stall_span",
    "summarize_ledgers",
    "chrome_trace",
    "chrome_trace_events",
    "merged_chrome_trace",
    "sim_to_chrome_trace",
    "telemetry_summary",
    "write_chrome_trace",
    "write_merged_chrome_trace",
    "write_sim_trace",
    "ClusterView",
    "HealthEvent",
    "HealthWatchdog",
    "LiveConfig",
    "LivePlane",
    "TelemetrySample",
    "get_live",
    "install_live",
    "render_dashboard",
    "use_live",
    "FlightEvent",
    "FlightRecorder",
    "dump_postmortem",
    "get_flightrec",
    "install_flightrec",
    "use_flightrec",
]
