"""Measured-vs-model bandwidth drift reports (the time-side memreport).

The analytic model (:mod:`repro.analytics.bandwidth_model`, Eqs. 6-11)
predicts what bandwidth each tier must deliver for a target efficiency;
the tracer measures what it actually delivered.  :func:`build_perfreport`
compares the two for a finished traced run: per-tier measured bandwidth
and arithmetic intensity derived from the span timeline, an Eq. (6) drift
table flagging tiers whose measured/required ratio leaves the tolerance
band, and a recommendation block driven by the stall attribution (prefetch
depth, ``reduce_bucket_numel``, pinned budget, tiling, optimizer chunking)
— the knobs Secs. 5-6 of the paper turn.

Exposed as ``repro perfreport`` and ``repro train-demo --perfreport``,
mirroring :mod:`repro.obs.memreport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.obs.memreport import DriftRow, render_drift
from repro.obs.perfscope import (
    COMM,
    NVME_IO,
    CriticalPath,
    PerfSummary,
    StepLedger,
    _union,
    build_step_ledgers,
    classify_span,
    critical_path_from_trace,
    render_perf_breakdown,
    summarize_ledgers,
)
from repro.obs.tracer import SpanRecord, Tracer
from repro.utils import format_bandwidth

#: Default measured/required bandwidth tolerance band.  Measured below
#: ``lo`` x required means the tier cannot sustain the target efficiency
#: (the drift worth flagging); far above ``hi`` means the target (or the
#: modeled AIT) is badly conservative for this run.
DEFAULT_TOLERANCE = (0.5, 1e9)

#: Eq. (6) efficiency the required-bandwidth inversion targets.
DEFAULT_TARGET_EFFICIENCY = 0.5

#: A stall cause consuming more than this fraction of the traced
#: wall-clock triggers its knob recommendation.
STALL_PRESSURE = 0.05


@dataclass
class PerfReport:
    """Everything :func:`build_perfreport` derives from one traced run."""

    ledgers: list[StepLedger]
    summary: PerfSummary
    critical: Optional[CriticalPath]
    #: tier -> {"bytes": moved, "busy_us": union busy time, "bw": bytes/s}
    tier_bandwidth: dict[str, dict[str, float]]
    #: tier -> analytic AIT (FLOP/byte) of the components placed there
    ait: dict[str, float]
    drift: list[DriftRow]
    recommendations: list[str]
    tolerance: tuple[float, float] = DEFAULT_TOLERANCE
    target_efficiency: float = DEFAULT_TARGET_EFFICIENCY
    top_owners: list[tuple[str, float]] = field(default_factory=list)

    # -- queries -----------------------------------------------------

    def flagged(self) -> list[DriftRow]:
        return [r for r in self.drift if r.flagged(self.tolerance)]

    # -- rendering ---------------------------------------------------

    def render(self) -> str:
        from repro.utils.tables import Table

        parts: list[str] = []
        t = Table(
            ["tier", "bytes moved", "busy ms", "bandwidth", "ait (flop/B)"],
            title="Per-tier measured bandwidth (trace-derived)",
        )
        for tier, row in sorted(self.tier_bandwidth.items()):
            t.add_row(
                [
                    tier,
                    f"{int(row['bytes']):,}",
                    f"{row['busy_us'] / 1e3:.3f}",
                    format_bandwidth(row["bw"]),
                    (
                        f"{self.ait[tier]:.1f}"
                        if tier in self.ait
                        else "-"
                    ),
                ]
            )
        parts.append(t.render())

        if self.drift:
            lo, hi = self.tolerance
            parts.append(
                render_drift(
                    self.drift,
                    self.tolerance,
                    title=(
                        f"Eq. (6) bandwidth drift (tolerance {lo:g}..{hi:g},"
                        f" target efficiency {self.target_efficiency:.0%})"
                    ),
                    model="required",
                )
            )

        if self.recommendations:
            parts.append(
                "Recommendations:\n"
                + "\n".join(f"  * {r}" for r in self.recommendations)
            )
        else:
            parts.append(
                "Recommendations: none — no tier outside tolerance, no"
                " stall cause above pressure."
            )
        parts.append(render_perf_breakdown(self.ledgers, self.critical))
        return "\n\n".join(parts)


# --- measurement --------------------------------------------------------------


def _measure_tier_bandwidth(
    records: Sequence[SpanRecord],
    windows: list[tuple[float, float]],
    comm_bytes: int,
) -> dict[str, dict[str, float]]:
    """Bytes moved and busy time per tier, within the step windows.

    ``nvme`` uses the worker-lane ``nvme:pwrite``/``nvme:pread`` spans
    (which carry a ``bytes`` arg); busy time is the union of their
    intervals, so parallel workers measure as aggregate delivered
    bandwidth.  ``comm`` uses the collective spans' union busy time with
    the process group's byte counters (collective spans carry numel, not
    bytes, so the engine supplies the volume).
    """
    nvme_iv: list[tuple[float, float]] = []
    nvme_bytes = 0.0
    comm_iv: list[tuple[float, float]] = []

    def in_window(s: float, e: float) -> bool:
        return any(e > a and s < b for a, b in windows)

    for r in records:
        if r.counter or r.instant or r.dur_us <= 0:
            continue
        s, e = r.ts_us, r.ts_us + r.dur_us
        if windows and not in_window(s, e):
            continue
        if r.name in ("nvme:pwrite", "nvme:pread"):
            nvme_iv.append((s, e))
            nvme_bytes += float(r.args.get("bytes", 0))
        elif classify_span(r.name, r.cat) == COMM:
            comm_iv.append((s, e))

    out: dict[str, dict[str, float]] = {}
    busy = sum(b - a for a, b in _union(nvme_iv))
    if busy > 0:
        out["nvme"] = {
            "bytes": nvme_bytes,
            "busy_us": busy,
            "bw": nvme_bytes / (busy * 1e-6),
        }
    busy = sum(b - a for a, b in _union(comm_iv))
    if busy > 0 and comm_bytes > 0:
        out["comm"] = {
            "bytes": float(comm_bytes),
            "busy_us": busy,
            "bw": comm_bytes / (busy * 1e-6),
        }
    return out


def _nvme_ait(cfg, *, bsz: int, seq: int, hidden_dim: Optional[int], ci: int) -> float:
    """Summed analytic AIT of every component placed on NVMe.

    Components sharing a tier contend for its bandwidth, so the combined
    intensity is flops over *summed* bytes: 1/ait = sum(1/ait_i).
    """
    from repro.analytics.bandwidth_model import (
        ait_activation_checkpoints,
        ait_optimizer_states,
        ait_param_grad,
    )
    from repro.core.config import OffloadDevice

    off = cfg.offload
    inv = 0.0
    if OffloadDevice.NVME in (off.param_device, off.grad_device):
        inv += 1.0 / ait_param_grad(seq=seq, bsz=bsz)
    if off.optimizer_device is OffloadDevice.NVME:
        inv += 1.0 / ait_optimizer_states(seq=seq, bsz=bsz)
    if off.activation_device is OffloadDevice.NVME and hidden_dim:
        inv += 1.0 / ait_activation_checkpoints(hidden_dim=hidden_dim, ci=ci)
    return 1.0 / inv if inv > 0 else 0.0


def build_perfreport(
    engine,
    source: Union[Tracer, Sequence[SpanRecord]],
    *,
    bsz: int = 1,
    seq: Optional[int] = None,
    ci: int = 1,
    target_efficiency: float = DEFAULT_TARGET_EFFICIENCY,
    peak_tp: Optional[float] = None,
    tolerance: tuple[float, float] = DEFAULT_TOLERANCE,
    top_owners: int = 5,
) -> PerfReport:
    """Compare a traced run against the Sec. 4 analytic bandwidth model.

    ``engine`` is the :class:`~repro.core.engine.ZeroInfinityEngine` that
    ran while ``source`` was tracing; ``bsz``/``seq``/``ci`` describe the
    workload for the AIT equations (Eqs. 9-11).  ``peak_tp`` defaults to
    the paper's 70 TFLOPs; pass the measured compute rate of the host to
    evaluate Eq. (6) against what this machine can actually sustain.
    """
    from repro.analytics.bandwidth_model import (
        DEFAULT_PEAK_TP,
        compute_per_iter_flops,
        efficiency,
        required_bandwidth,
    )

    if peak_tp is None:
        peak_tp = DEFAULT_PEAK_TP
    records = (
        source.records() if isinstance(source, Tracer) else list(source)
    )
    ledgers = build_step_ledgers(records)
    if not ledgers:
        raise ValueError(
            "no completed engine:step spans in the trace — run training"
            " under an enabled tracer first"
        )
    summary = summarize_ledgers(ledgers)
    critical = critical_path_from_trace(records, ledgers[-1])

    windows = [(l.start_us, l.start_us + l.wall_us) for l in ledgers]
    comm_bytes = sum(engine.comm.stats.bytes_by_op.values())
    tiers = _measure_tier_bandwidth(records, windows, comm_bytes)

    cfg = engine.config
    dims = getattr(engine.model, "config", None)
    hidden_dim = getattr(dims, "hidden_dim", None)
    n_params = engine.model.num_parameters()

    ait: dict[str, float] = {}
    drift: list[DriftRow] = []
    if seq is not None and "nvme" in tiers:
        a = _nvme_ait(cfg, bsz=bsz, seq=seq, hidden_dim=hidden_dim, ci=ci)
        if a > 0:
            ait["nvme"] = a
            measured_bw = tiers["nvme"]["bw"]
            drift.append(
                DriftRow(
                    "nvme bandwidth (Eq. 6)",
                    measured_bw,
                    required_bandwidth(
                        ait=a,
                        target_efficiency=target_efficiency,
                        peak_tp=peak_tp,
                    ),
                    unit="B/s",
                    note=f"for {target_efficiency:.0%} efficiency",
                )
            )
            # measured AIT: flops the step represents over bytes it moved
            flops = compute_per_iter_flops(bsz=bsz, seq=seq, params=n_params)
            bytes_per_step = tiers["nvme"]["bytes"] / max(1, summary.steps)
            if bytes_per_step > 0:
                drift.append(
                    DriftRow(
                        "nvme ait (Eqs. 9-11)",
                        flops / bytes_per_step,
                        a,
                        unit="flop/B",
                        note="measured flops over measured bytes",
                    )
                )
            # Eq. (6) at the measured bandwidth vs the observed compute
            # fraction — the functional analog of "fraction of peak"
            drift.append(
                DriftRow(
                    "efficiency (Eq. 6 at measured bw)",
                    summary.phase_fractions()["compute"],
                    efficiency(ait=a, bw=measured_bw, peak_tp=peak_tp),
                    unit="",
                    note="measured = compute fraction of wall-clock",
                )
            )

    recommendations = _recommend(engine, summary, drift, tolerance, tiers)

    owners = sorted(
        summary.stall_us_by_owner.items(), key=lambda kv: -kv[1]
    )[:top_owners]
    return PerfReport(
        ledgers=ledgers,
        summary=summary,
        critical=critical,
        tier_bandwidth=tiers,
        ait=ait,
        drift=drift,
        recommendations=recommendations,
        tolerance=tolerance,
        target_efficiency=target_efficiency,
        top_owners=owners,
    )


def _recommend(
    engine,
    summary: PerfSummary,
    drift: list[DriftRow],
    tolerance: tuple[float, float],
    tiers: dict[str, dict[str, float]],
) -> list[str]:
    """Knob suggestions from flagged drift rows and dominant stall causes."""
    recs: list[str] = []
    cfg = engine.config
    wall = summary.wall_us or 1.0

    for row in drift:
        if not row.flagged(tolerance):
            continue
        if row.component.startswith("nvme bandwidth"):
            recs.append(
                f"nvme delivers {format_bandwidth(row.measured)} but Eq. (6) needs"
                f" {format_bandwidth(row.predicted)} {row.note}: add NVMe devices,"
                " spread state across more nodes, or lower the target"
                " efficiency"
            )

    frac = {
        cause: us / wall for cause, us in summary.stall_us_by_cause.items()
    }
    if frac.get("prefetch_miss", 0.0) > STALL_PRESSURE:
        depth = max(1, cfg.prefetch_depth)
        recs.append(
            f"prefetch_miss stalls cost {frac['prefetch_miss']:.0%} of the"
            f" step: raise prefetch_depth ({cfg.prefetch_depth} ->"
            f" {2 * depth}) so demand fetches become lookahead hits"
        )
    if frac.get("bucket_flush_wait", 0.0) > STALL_PRESSURE:
        recs.append(
            f"bucket_flush_wait stalls cost"
            f" {frac['bucket_flush_wait']:.0%} of the step: raise"
            f" reduce_bucket_numel ({cfg.reduce_bucket_numel:,} ->"
            f" {2 * cfg.reduce_bucket_numel:,}) to flush less often inline"
        )
    if frac.get("pinned_wait", 0.0) > STALL_PRESSURE:
        recs.append(
            f"pinned_wait stalls cost {frac['pinned_wait']:.0%} of the"
            " step: raise OffloadConfig.pinned_budget_bytes so staging"
            " stops evicting under pressure"
        )
    if frac.get("optimizer_io_tail", 0.0) > STALL_PRESSURE:
        chunk = cfg.offload.optimizer_chunk_numel
        recs.append(
            f"optimizer_io_tail stalls cost"
            f" {frac['optimizer_io_tail']:.0%} of the step: lower"
            f" optimizer_chunk_numel ({chunk:,} -> {max(1, chunk // 2):,})"
            " so read-ahead hides more of the streaming update"
        )
    comm_frac = summary.phase_fractions().get(COMM, 0.0)
    if comm_frac > 0.25 and cfg.tile_factor <= 1:
        recs.append(
            f"collectives take {comm_frac:.0%} of the step: tile oversized"
            " linears (tile_factor >= 2) to shrink per-gather working sets"
        )
    nvme_frac = summary.phase_fractions().get(NVME_IO, 0.0)
    if nvme_frac > 0.5 and summary.phase_us.get("overlap", 0.0) < 0.05 * wall:
        recs.append(
            f"nvme I/O takes {nvme_frac:.0%} of the step with <5% overlap:"
            f" raise prefetch_depth (now {cfg.prefetch_depth}) so reads hide"
            " behind compute"
        )
    return recs
