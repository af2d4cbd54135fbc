"""Measured-vs-model memory drift reports.

The analytic model (:mod:`repro.analytics.memory_model`, Eqs. 1-5) predicts
where the bytes should be; :class:`~repro.obs.memscope.MemScope` measures
where they actually were.  :func:`build_memreport` compares the two for a
finished run: per-tier peaks with category attribution (whose sums equal the
tier totals by the scope's construction), a drift table flagging components
whose measured/predicted ratio leaves the tolerance band, and a
recommendation block when bucket or gather buffers dominate the GPU peak or
the pinned pool nears its budget (``reduce_bucket_numel``, tiling factor,
pinned budget) — the knobs Sec. 3/5 of the paper turns.  The drift row
and its table (:class:`DriftRow`, :func:`render_drift`) are shared with the
time-side report, :mod:`repro.obs.perfreport`.

Exposed as ``repro memreport`` and ``repro train-demo --memreport``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.memscope import MemScope, render_memory_gantt
from repro.utils import Table, format_bandwidth, format_bytes

#: Default measured/predicted tolerance band.  The analytic model counts
#: ideal bytes (no padding, no staging); a 2x departure in either
#: direction means a component is behaving unlike the model, which is
#: the drift worth flagging.
DEFAULT_TOLERANCE = (0.5, 2.0)

#: A pinned pool whose peak exceeds this fraction of its budget triggers
#: the recommendation block.
CAPACITY_PRESSURE = 0.8


@dataclass(frozen=True)
class DriftRow:
    """One measured-vs-model comparison, as both drift reports print it.

    ``unit`` is ``"B"`` (bytes, the memory report's rows), ``"B/s"``, or a
    unit printed after the value (``""`` for a plain number).
    """

    component: str
    measured: float
    predicted: float
    unit: str = "B"
    note: str = ""

    @property
    def ratio(self) -> float:
        if self.predicted <= 0:
            return math.inf if self.measured > 0 else 1.0
        return self.measured / self.predicted

    def flagged(self, tolerance: tuple[float, float]) -> bool:
        lo, hi = tolerance
        return not (lo <= self.ratio <= hi)

    def fmt(self, value: float) -> str:
        if self.unit == "B":
            return format_bytes(value, binary=True, precision=1)
        if self.unit == "B/s":
            return format_bandwidth(value)
        return f"{value:.3f} {self.unit}".rstrip()


def render_drift(
    rows: list[DriftRow], tolerance: tuple[float, float], *, title: str, model: str
) -> str:
    """The drift table: one line per row, ``DRIFT`` outside ``tolerance``.

    ``model`` heads the model-side column (``predicted``, ``required``).
    """
    t = Table(["component", "measured", model, "ratio", "status"], title=title)
    for r in rows:
        ratio = "inf" if math.isinf(r.ratio) else f"{r.ratio:.3f}"
        status = "DRIFT" if r.flagged(tolerance) else "ok"
        name = r.component + (f" [{r.note}]" if r.note else "")
        t.add_row([name, r.fmt(r.measured), r.fmt(r.predicted), ratio, status])
    return t.render()


@dataclass
class MemReport:
    """Everything :func:`build_memreport` derives from one run."""

    tier_peaks: dict[str, int]
    tier_current: dict[str, int]
    peak_breakdowns: dict[str, dict[str, int]]
    breakdowns: dict[str, dict[str, int]]
    peak_labels: dict[str, str]
    drift: list[DriftRow]
    recommendations: list[str]
    tolerance: tuple[float, float] = DEFAULT_TOLERANCE
    top_owners: dict[str, list[tuple[str, str, int]]] = field(default_factory=dict)
    gantt: str = ""

    # -- queries -----------------------------------------------------

    def flagged(self) -> list[DriftRow]:
        return [r for r in self.drift if r.flagged(self.tolerance)]

    # -- rendering ---------------------------------------------------

    def render(self) -> str:
        parts: list[str] = []
        t = Table(
            ["tier", "peak", "current", "peak at"],
            title="Per-tier memory watermarks",
        )
        for tier, peak in sorted(self.tier_peaks.items()):
            t.add_row(
                [
                    tier,
                    format_bytes(peak, binary=True, precision=1),
                    format_bytes(self.tier_current.get(tier, 0), binary=True, precision=1),
                    self.peak_labels.get(tier, ""),
                ]
            )
        parts.append(t.render())

        t = Table(
            ["tier", "category", "at peak", "now", "% of peak"],
            title="Attribution (category sums equal the tier totals)",
        )
        for tier in sorted(self.tier_peaks):
            peak = self.tier_peaks[tier]
            pb = self.peak_breakdowns.get(tier, {})
            now = self.breakdowns.get(tier, {})
            for cat in sorted(set(pb) | set(now), key=lambda c: -pb.get(c, 0)):
                pct = 100.0 * pb.get(cat, 0) / peak if peak else 0.0
                t.add_row(
                    [
                        tier,
                        cat,
                        format_bytes(pb.get(cat, 0), binary=True, precision=1),
                        format_bytes(now.get(cat, 0), binary=True, precision=1),
                        f"{pct:.1f}",
                    ]
                )
            t.add_row(
                [
                    tier,
                    "= total",
                    format_bytes(sum(pb.values()), binary=True, precision=1),
                    format_bytes(sum(now.values()), binary=True, precision=1),
                    "100.0" if peak else "0.0",
                ]
            )
        parts.append(t.render())

        if self.drift:
            lo, hi = self.tolerance
            parts.append(
                render_drift(
                    self.drift,
                    self.tolerance,
                    title=f"Analytic-model drift (tolerance {lo:g}..{hi:g})",
                    model="predicted",
                )
            )

        if self.top_owners:
            t = Table(
                ["tier", "owner", "category", "bytes"], title="Top owners (current)"
            )
            for tier, rows in sorted(self.top_owners.items()):
                for owner, cat, nbytes in rows:
                    t.add_row([tier, owner, cat, format_bytes(nbytes, binary=True, precision=1)])
            parts.append(t.render())

        if self.recommendations:
            parts.append(
                "Recommendations:\n"
                + "\n".join(f"  * {r}" for r in self.recommendations)
            )
        else:
            parts.append("Recommendations: none — no tier under pressure.")
        if self.gantt:
            parts.append(self.gantt)
        return "\n\n".join(parts)


def _model_dims(model) -> Optional[tuple[int, int, int]]:
    """(num_layers, hidden_dim, num_heads) from a GPT-style model config."""
    cfg = getattr(model, "config", None)
    if cfg is None:
        return None
    try:
        return int(cfg.num_layers), int(cfg.hidden_dim), int(cfg.num_heads)
    except (AttributeError, TypeError, ValueError):
        return None


def build_memreport(
    engine,
    scope: MemScope,
    *,
    bsz: int = 1,
    seq: Optional[int] = None,
    ci: int = 1,
    tolerance: tuple[float, float] = DEFAULT_TOLERANCE,
    top_owners: int = 5,
) -> MemReport:
    """Compare a traced run against the Sec. 3 analytic memory model.

    ``engine`` is the :class:`~repro.core.engine.ZeroInfinityEngine` that
    ran under ``scope``; ``bsz``/``seq``/``ci`` describe the workload for
    the activation-side equations (Eq. 3).  Measured model states use the
    real parameter count (Eq. 2 is exact at 20 bytes/param, less the 4 B
    fp32 master of a parameter whose master is its own record); gather
    working memory compares against Eq. 4's largest-linear bound.
    """
    from repro.analytics.memory_model import (
        activation_checkpoint_bytes,
        model_states_bytes,
        mswm_bytes,
    )

    # owner aliases: g{gid} -> the group's module path, for the owner table
    for group in engine.partitioner.groups:
        scope.alias(f"g{group.gid}", group.name)

    tiers = scope.tiers()
    tier_peaks = {t: scope.peak_bytes(t) for t in tiers}
    tier_current = {t: scope.tier_bytes(t) for t in tiers}
    peak_breakdowns = {t: scope.peak_breakdown(t) for t in tiers}
    breakdowns = {t: scope.breakdown(t) for t in tiers}
    peak_labels = {t: scope.peak_label(t) for t in tiers}

    def total_category(cat: str, *, at_peak: bool = False) -> int:
        src = peak_breakdowns if at_peak else breakdowns
        return sum(bd.get(cat, 0) for bd in src.values())

    drift: list[DriftRow] = []
    n_params = engine.model.num_parameters()
    measured_states = (
        total_category("param_fp16")
        + total_category("grad")
        + total_category("optimizer_state")
    )
    # an fp32 group whose master is its own record keeps no copy
    shared = sum(
        g.numel
        for g in engine.partitioner.groups
        if engine.optimizer.master_is_param(g)
    )
    drift.append(
        DriftRow(
            "model_states (Eq. 2)",
            measured_states,
            model_states_bytes(n_params) - 4 * shared,
            note="fp16 p+g, fp32 Adam: 20 B/param; 16 where the master is p",
        )
    )

    dims = _model_dims(engine.model)
    if dims is not None:
        nl, hd, _heads = dims
        measured_gather = max(
            (bd.get("gather_buffer", 0) for bd in peak_breakdowns.values()),
            default=0,
        )
        if measured_gather:
            drift.append(
                DriftRow(
                    "gather working set (Eq. 4)",
                    measured_gather,
                    mswm_bytes(hd),
                    note="coalesced staging roughly doubles the Eq. 4 bound",
                )
            )
        measured_act = total_category("activation_ckpt", at_peak=True)
        if measured_act and seq is not None:
            drift.append(
                DriftRow(
                    "activation checkpoints (Eq. 3)",
                    measured_act,
                    activation_checkpoint_bytes(
                        bsz=bsz, seq=seq, hidden_dim=hd, num_layers=nl, ci=ci
                    ),
                    note=(
                        "fp32 checkpoints measure 2x the fp16 equation;"
                        " the last block keeps none"
                    ),
                )
            )

    recommendations = _recommend(engine, tier_peaks, peak_breakdowns)

    owners = {
        t: scope.owners(t, top=top_owners) for t in tiers if scope.owners(t)
    }
    return MemReport(
        tier_peaks=tier_peaks,
        tier_current=tier_current,
        peak_breakdowns=peak_breakdowns,
        breakdowns=breakdowns,
        peak_labels=peak_labels,
        drift=drift,
        recommendations=recommendations,
        tolerance=tolerance,
        top_owners=owners,
        gantt=render_memory_gantt(scope),
    )


def _recommend(
    engine,
    tier_peaks: dict[str, int],
    peak_breakdowns: dict[str, dict[str, int]],
) -> list[str]:
    """Knob suggestions when buffers dominate the GPU peak or pinned pool."""
    recs: list[str] = []
    cfg = engine.config
    gpu_peak = tier_peaks.get("gpu", 0)
    if gpu_peak:
        gpu_bd = peak_breakdowns.get("gpu", {})
        bucket = gpu_bd.get("bucket", 0)
        if bucket > 0.25 * gpu_peak:
            recs.append(
                f"bucket buffers hold {format_bytes(bucket, binary=True, precision=1)}"
                f" ({100.0 * bucket / gpu_peak:.0f}% of the gpu peak):"
                f" halve reduce_bucket_numel"
                f" ({cfg.reduce_bucket_numel:,} -> {cfg.reduce_bucket_numel // 2:,})"
            )
        gather = gpu_bd.get("gather_buffer", 0)
        if gather > 0.25 * gpu_peak:
            factor = max(2, 2 * max(1, cfg.tile_factor))
            recs.append(
                f"gather buffers hold {format_bytes(gather, binary=True, precision=1)}"
                f" ({100.0 * gather / gpu_peak:.0f}% of the gpu peak):"
                f" tile oversized linears (tile_factor >= {factor})"
            )

    pinned_budget = cfg.offload.pinned_budget_bytes
    pinned_peak = tier_peaks.get("pinned", 0)
    if pinned_budget and pinned_peak >= CAPACITY_PRESSURE * pinned_budget:
        recs.append(
            f"pinned pool peaked at {format_bytes(pinned_peak, binary=True, precision=1)} of its"
            f" {format_bytes(pinned_budget, binary=True, precision=1)} budget: raise"
            " OffloadConfig.pinned_budget_bytes to keep prefetch staging"
            " off the unpinned fallback path"
        )
    return recs
