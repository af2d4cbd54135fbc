"""Per-step time ledger, stall attribution, and critical-path extraction.

The paper's quantitative spine is Eqs. (6)-(11): efficiency is decided by
how much of the step the device spends computing versus waiting on data
movement.  :mod:`repro.obs.tracer` records *what ran when*; this module
turns those spans into the time-domain twin of
:mod:`repro.obs.memscope`'s byte ledger:

* **time ledger** — every instant of an ``engine:step`` window on the
  stepping thread is classified into exactly one of
  ``{compute, comm, nvme_io, stall, overlap}``.  ``overlap`` is
  compute/comm time during which a background lane was moving bytes (the
  overlap Secs. 5-6 exist to create); the five buckets partition the step
  wall-clock *exactly by construction* (compute is the residual).
* **stall attribution** — the instrumented wait sites wrap themselves in
  :func:`stall_span`, so every stall carries a *cause* (see
  :func:`stall_span`) and an *owner* (the module/pool/bucket/chunk that
  made the step wait).  Stalls win over whatever span they wrap: a
  demand-fetch inside ``stall:prefetch_miss`` is stall time, not I/O.
* **critical path** — a backward walk over the span DAG using the
  happens-before edges the hot paths emit (``req`` tokens from
  ``nvme/aio.py`` submit -> worker block -> wait site, plus per-lane
  serial order).

Everything here is post-processing over committed spans; the only hot-path
entry point is :func:`stall_span`, which costs one attribute check when
tracing is disabled — the same contract as ``trace_span``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.obs import tracer as _trace
from repro.obs.tracer import SpanRecord, Tracer

COMPUTE = "compute"
COMM = "comm"
NVME_IO = "nvme_io"
STALL = "stall"
OVERLAP = "overlap"

PHASES = (COMPUTE, COMM, NVME_IO, STALL, OVERLAP)

_STALL_PREFIX = "stall:"


def stall_span(cause: str, *, owner: str = "", **args):
    """A traced wait: ``with stall_span("pinned_wait", owner="pool"): ...``

    Records a ``stall:{cause}`` span (cat ``"stall"``) on the global
    tracer; returns the shared no-op when tracing is disabled so the
    instrumented wait sites stay free on the fast path.  ``cause`` is one
    of the stall taxonomy, each with the ``owner`` responsible for the wait:

    * ``prefetch_miss`` — the parameter/module fetched on demand;
    * ``pinned_wait`` — the pinned staging pool (eviction / budget);
    * ``bucket_flush_wait`` — the gradient bucket forced to flush inline;
    * ``optimizer_io_tail`` — the optimizer-state chunk (or grad shard)
      whose read/write the step drained;
    * ``checksum_refetch`` and ``retry`` — the fault site that re-issued I/O.
    """
    t = _trace._global_tracer
    if not t._enabled:
        return _trace._NOOP_SPAN
    return t.span(_STALL_PREFIX + cause, cat="stall", owner=owner, **args)


def classify_span(name: str, cat: str) -> str:
    """Ledger category for one span (stall priority is applied later)."""
    if cat == "stall" or name.startswith(_STALL_PREFIX):
        return STALL
    if cat == "comm" or name.startswith(
        ("engine:allgather", "engine:grad_reduce", "bucket:")
    ):
        return COMM
    if cat in ("nvme", "offload") or name.startswith(("offload:", "nvme:")):
        return NVME_IO
    return COMPUTE


# --- time ledger -------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One elementary interval of a step window with a single category."""

    start_us: float
    end_us: float
    category: str
    label: str = ""  # innermost span name; "" = uncovered (pure compute)
    cause: str = ""  # stall cause, for category == "stall"
    owner: str = ""  # stall owner
    args: dict = field(default_factory=dict)

    @property
    def dur_us(self) -> float:
        return self.end_us - self.start_us


@dataclass(frozen=True)
class StallTotal:
    """Aggregate wait time for one (cause, owner) pair within a step."""

    cause: str
    owner: str
    total_us: float
    count: int


@dataclass
class StepLedger:
    """Exact time accounting for one ``engine:step`` span.

    ``compute + comm + nvme_io + stall + overlap == wall`` holds exactly:
    comm/nvme_io/stall/overlap are swept from the span timeline and
    compute is defined as the residual.
    """

    step: int
    tid: int
    start_us: float
    wall_us: float
    compute_us: float
    comm_us: float
    nvme_io_us: float
    stall_us: float
    overlap_us: float
    stalls: list[StallTotal]
    segments: list[Segment]

    def phase_us(self) -> dict[str, float]:
        return {
            COMPUTE: self.compute_us,
            COMM: self.comm_us,
            NVME_IO: self.nvme_io_us,
            STALL: self.stall_us,
            OVERLAP: self.overlap_us,
        }

    def overlap_fraction(self) -> float:
        return self.overlap_us / self.wall_us if self.wall_us > 0 else 0.0

    def stall_fraction(self) -> float:
        return self.stall_us / self.wall_us if self.wall_us > 0 else 0.0

    def stall_us_by_cause(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.stalls:
            out[s.cause] = out.get(s.cause, 0.0) + s.total_us
        return out


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge intervals into a disjoint, sorted union."""
    out: list[tuple[float, float]] = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _overlap_len(a: float, b: float, union: list[tuple[float, float]]) -> float:
    """Length of [a, b) covered by the disjoint ``union``."""
    total = 0.0
    for lo, hi in union:
        if hi <= a:
            continue
        if lo >= b:
            break
        total += min(b, hi) - max(a, lo)
    return total


def _stall_cause(record: SpanRecord) -> str:
    """Cause name of a stall span (``stall:`` prefix stripped)."""
    if record.name.startswith(_STALL_PREFIX):
        return record.name[len(_STALL_PREFIX):]
    return record.name


def _stall_priority(record: SpanRecord) -> tuple[int, float]:
    """Sort key picking which of several overlapping stalls gets billed.

    A ``pinned_wait`` names a resource shortage (the pinned staging pool),
    not an I/O latency: when one shows up nested inside an I/O drain —
    e.g. a pinned acquire inside the chunked optimizer read drain — the
    pool is what the lane is actually waiting on, so it outranks every
    latency-shaped cause regardless of span duration.  Ties and the
    remaining causes fall back to the innermost (shortest) span.
    """
    return (0 if _stall_cause(record) == "pinned_wait" else 1, record.dur_us)


def _build_step_ledger(
    step: SpanRecord, records: list[SpanRecord]
) -> StepLedger:
    w0 = step.ts_us
    w1 = step.ts_us + step.dur_us
    lane = step.tid

    # spans on the stepping lane inside the window (the step span itself
    # and any enclosing callers excluded: only strict sub-intervals count)
    on_lane: list[SpanRecord] = []
    background: list[SpanRecord] = []
    for r in records:
        if r.counter or r.instant or r.dur_us < 0:
            continue
        s, e = r.ts_us, r.ts_us + r.dur_us
        if e <= w0 or s >= w1:
            continue
        if r.tid == lane:
            if r is step or (s <= w0 and e >= w1):
                continue
            on_lane.append(r)
        else:
            background.append(r)

    # background NVMe activity: the overlap source
    bg_nvme = _union(
        [
            (max(r.ts_us, w0), min(r.ts_us + r.dur_us, w1))
            for r in background
            if classify_span(r.name, r.cat) == NVME_IO
        ]
    )

    # elementary boundaries on the stepping lane
    bounds = {w0, w1}
    for r in on_lane:
        bounds.add(min(max(r.ts_us, w0), w1))
        bounds.add(min(max(r.ts_us + r.dur_us, w0), w1))
    edges = sorted(bounds)

    segments: list[Segment] = []
    comm = nvme = stall = overlap = 0.0
    stall_keys: dict[tuple[str, str], list[float]] = {}
    stall_span_ids: dict[tuple[str, str], set[int]] = {}

    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        mid = (a + b) / 2.0
        active = [
            r for r in on_lane if r.ts_us <= mid < r.ts_us + r.dur_us
        ]
        stalls_active = [
            r for r in active if classify_span(r.name, r.cat) == STALL
        ]
        if stalls_active:
            # stalls win over whatever they wrap; the innermost stall names
            # it, except that a pinned-pool acquire nested inside an I/O
            # drain is the *real* bottleneck — without the priority a
            # pinned_wait inside the chunked-read drain would be billed to
            # optimizer_io_tail whenever the outer span happens to be
            # shorter-lived at this segment
            inner = min(stalls_active, key=_stall_priority)
            cause = _stall_cause(inner)
            owner = str(inner.args.get("owner", ""))
            segments.append(
                Segment(a, b, STALL, inner.name, cause, owner, dict(inner.args))
            )
            stall += b - a
            key = (cause, owner)
            stall_keys.setdefault(key, []).append(b - a)
            stall_span_ids.setdefault(key, set()).add(id(inner))
            continue
        if active:
            inner = min(active, key=lambda r: r.dur_us)
            cat = classify_span(inner.name, inner.cat)
            label = inner.name
            args = dict(inner.args)
        else:
            cat, label, args = COMPUTE, "", {}
        if cat in (COMPUTE, COMM):
            # carve out the part hidden behind background I/O
            hidden = _overlap_len(a, b, bg_nvme)
            if hidden > 0.0:
                overlap += hidden
            visible = (b - a) - hidden
            if cat == COMM:
                comm += visible
            segments.append(Segment(a, b, cat, label, args=args))
        elif cat == NVME_IO:
            nvme += b - a
            segments.append(Segment(a, b, NVME_IO, label, args=args))
        else:  # pragma: no cover - classify_span returns one of the above
            segments.append(Segment(a, b, COMPUTE, label, args=args))

    wall = w1 - w0
    # compute is the residual, so the five buckets sum to the wall-clock
    # exactly
    compute = wall - (comm + nvme + stall + overlap)

    stalls_out = sorted(
        (
            StallTotal(
                cause,
                owner,
                sum(parts),
                len(stall_span_ids[(cause, owner)]),
            )
            for (cause, owner), parts in stall_keys.items()
        ),
        key=lambda s: -s.total_us,
    )
    return StepLedger(
        step=int(step.args.get("step", -1)),
        tid=lane,
        start_us=w0,
        wall_us=wall,
        compute_us=compute,
        comm_us=comm,
        nvme_io_us=nvme,
        stall_us=stall,
        overlap_us=overlap,
        stalls=stalls_out,
        segments=segments,
    )


def build_step_ledgers(
    source: Union[Tracer, Sequence[SpanRecord]],
) -> list[StepLedger]:
    """One :class:`StepLedger` per completed ``engine:step`` span."""
    records = (
        source.records() if isinstance(source, Tracer) else list(source)
    )
    steps = sorted(
        (
            r
            for r in records
            if r.name == "engine:step" and not r.instant and not r.counter
        ),
        key=lambda r: r.ts_us,
    )
    return [_build_step_ledger(s, records) for s in steps]


@dataclass
class PerfSummary:
    """Across-step aggregation of the ledgers (what ``EngineReport`` holds)."""

    steps: int
    wall_us: float
    phase_us: dict[str, float]
    stall_us_by_cause: dict[str, float]
    stall_us_by_owner: dict[str, float]
    force_closed_spans: int = 0

    def overlap_fraction(self) -> float:
        return (
            self.phase_us.get(OVERLAP, 0.0) / self.wall_us
            if self.wall_us > 0
            else 0.0
        )

    def stall_fraction(self) -> float:
        return (
            self.phase_us.get(STALL, 0.0) / self.wall_us
            if self.wall_us > 0
            else 0.0
        )

    def phase_fractions(self) -> dict[str, float]:
        if self.wall_us <= 0:
            return {p: 0.0 for p in PHASES}
        return {p: self.phase_us.get(p, 0.0) / self.wall_us for p in PHASES}


def summarize_ledgers(
    ledgers: Sequence[StepLedger], *, force_closed: int = 0
) -> PerfSummary:
    phase = {p: 0.0 for p in PHASES}
    by_cause: dict[str, float] = {}
    by_owner: dict[str, float] = {}
    wall = 0.0
    for led in ledgers:
        wall += led.wall_us
        for p, v in led.phase_us().items():
            phase[p] += v
        for s in led.stalls:
            by_cause[s.cause] = by_cause.get(s.cause, 0.0) + s.total_us
            if s.owner:
                by_owner[s.owner] = by_owner.get(s.owner, 0.0) + s.total_us
    return PerfSummary(
        steps=len(ledgers),
        wall_us=wall,
        phase_us=phase,
        stall_us_by_cause=by_cause,
        stall_us_by_owner=by_owner,
        force_closed_spans=force_closed,
    )


# --- critical path -----------------------------------------------------------


@dataclass(frozen=True)
class PathNode:
    """One interval on the critical path."""

    name: str
    lane: str
    start_us: float
    finish_us: float
    category: str = ""

    @property
    def dur_us(self) -> float:
        return self.finish_us - self.start_us


@dataclass
class CriticalPath:
    """Backward-walk result: the gating chain ending at the latest finish.

    ``nodes`` are chronological.
    """

    nodes: list[PathNode]
    makespan_us: float

    def names(self) -> list[str]:
        return [n.name for n in self.nodes]

    def top_segments(self, k: int = 5) -> list[PathNode]:
        return sorted(self.nodes, key=lambda n: -n.dur_us)[:k]

    def path_us(self) -> float:
        return sum(n.dur_us for n in self.nodes)

    def coverage(self) -> float:
        """Fraction of the makespan the path's own intervals explain."""
        if self.makespan_us <= 0:
            return 0.0
        return min(1.0, self.path_us() / self.makespan_us)


def _walk_back(nodes: list[PathNode], preds: list[list[int]]) -> list[int]:
    """Generic gating walk: from the latest finisher, repeatedly step to
    the predecessor with the latest finish (the one that gated us)."""
    if not nodes:
        return []
    cur = max(range(len(nodes)), key=lambda i: nodes[i].finish_us)
    order = [cur]
    seen = {cur}
    while preds[cur]:
        candidates = [p for p in preds[cur] if p not in seen]
        if not candidates:
            break
        nxt = max(candidates, key=lambda p: nodes[p].finish_us)
        order.append(nxt)
        seen.add(nxt)
        cur = nxt
    order.reverse()
    return order


def critical_path_from_trace(
    source: Union[Tracer, Sequence[SpanRecord]],
    ledger: Optional[StepLedger] = None,
) -> CriticalPath:
    """Critical path of one traced step.

    Nodes are the stepping lane's ledger segments plus the *leaf* spans of
    every background lane inside the step window.  Edges:

    * per-lane serial order (a thread runs one thing at a time);
    * ``req``-token happens-before: an ``nvme:submit_*`` segment precedes
      the worker blocks carrying the same ``req``, and those blocks
      precede the stall segment that waited on the request — so a walk
      through ``stall:optimizer_io_tail`` detours through the I/O lane
      that actually gated it.
    """
    records = (
        source.records() if isinstance(source, Tracer) else list(source)
    )
    if ledger is None:
        ledgers = build_step_ledgers(records)
        if not ledgers:
            return CriticalPath([], 0.0)
        ledger = ledgers[-1]
    w0, w1 = ledger.start_us, ledger.start_us + ledger.wall_us

    nodes: list[PathNode] = []
    preds: list[list[int]] = []
    # token bookkeeping: req -> node indices
    submit_of: dict[object, int] = {}
    blocks_of: dict[object, list[int]] = {}
    waiters_of: dict[object, list[int]] = {}

    main_chain: list[int] = []
    for seg in ledger.segments:
        if seg.dur_us <= 0:
            continue
        idx = len(nodes)
        nodes.append(
            PathNode(
                seg.label or "compute",
                f"lane{ledger.tid}",
                seg.start_us,
                seg.end_us,
                seg.category,
            )
        )
        preds.append([main_chain[-1]] if main_chain else [])
        main_chain.append(idx)
        req = seg.args.get("req")
        if req is not None:
            if seg.label.startswith("nvme:submit"):
                submit_of[req] = idx
            elif seg.category == STALL:
                waiters_of.setdefault(req, []).append(idx)

    # background leaf spans, per lane in time order
    by_lane: dict[int, list[SpanRecord]] = {}
    for r in records:
        if r.counter or r.instant or r.tid == ledger.tid:
            continue
        s, e = r.ts_us, r.ts_us + r.dur_us
        if e <= w0 or s >= w1:
            continue
        by_lane.setdefault(r.tid, []).append(r)
    for lane, spans in sorted(by_lane.items()):
        spans.sort(key=lambda r: (r.ts_us, -r.dur_us))
        # keep leaves only: a span strictly containing another is a parent
        leaves: list[SpanRecord] = []
        for r in spans:
            end = r.ts_us + r.dur_us
            has_child = any(
                o is not r
                and o.ts_us >= r.ts_us
                and o.ts_us + o.dur_us <= end
                and (o.ts_us > r.ts_us or o.ts_us + o.dur_us < end)
                for o in spans
            )
            if not has_child:
                leaves.append(r)
        prev = None
        for r in leaves:
            idx = len(nodes)
            nodes.append(
                PathNode(
                    r.name,
                    f"lane{lane}",
                    r.ts_us,
                    r.ts_us + r.dur_us,
                    classify_span(r.name, r.cat),
                )
            )
            preds.append([prev] if prev is not None else [])
            prev = idx
            req = r.args.get("req")
            if req is not None:
                blocks_of.setdefault(req, []).append(idx)

    for req, block_idxs in blocks_of.items():
        sub = submit_of.get(req)
        if sub is not None:
            for b in block_idxs:
                preds[b].append(sub)
        for w in waiters_of.get(req, []):
            preds[w].extend(block_idxs)

    order = _walk_back(nodes, preds)
    return CriticalPath([nodes[i] for i in order], ledger.wall_us)


# --- rendering ---------------------------------------------------------------


def _ms(us: float) -> str:
    return f"{us / 1e3:.3f}"


def render_perf_breakdown(
    ledgers: Sequence[StepLedger],
    critical: Optional[CriticalPath] = None,
) -> str:
    """ASCII phase/stall breakdown (the time-side memory gantt); the
    critical-path table lists its five longest segments."""
    from repro.utils.tables import Table

    parts: list[str] = []
    t = Table(
        ["step", "wall ms", "compute", "comm", "nvme_io", "stall", "overlap"],
        title="Step time ledger (fractions of wall-clock; buckets sum to 1)",
    )
    for led in ledgers:
        w = led.wall_us or 1.0
        t.add_row(
            [
                led.step,
                _ms(led.wall_us),
                f"{led.compute_us / w:.2f}",
                f"{led.comm_us / w:.2f}",
                f"{led.nvme_io_us / w:.2f}",
                f"{led.stall_us / w:.2f}",
                f"{led.overlap_us / w:.2f}",
            ]
        )
    parts.append(t.render())

    rows: dict[tuple[str, str], tuple[float, int]] = {}
    for led in ledgers:
        for s in led.stalls:
            total, count = rows.get((s.cause, s.owner), (0.0, 0))
            rows[(s.cause, s.owner)] = (total + s.total_us, count + s.count)
    if rows:
        t = Table(
            ["cause", "owner", "total ms", "waits"],
            title="Stall attribution",
        )
        for (cause, owner), (total, count) in sorted(
            rows.items(), key=lambda kv: -kv[1][0]
        ):
            t.add_row([cause, owner or "-", _ms(total), count])
        parts.append(t.render())

    if critical is not None and critical.nodes:
        t = Table(
            ["segment", "lane", "category", "ms", "% of step"],
            title=(
                f"Critical path: {len(critical.nodes)} segments,"
                f" covers {100.0 * critical.coverage():.0f}% of the step"
            ),
        )
        for n in critical.top_segments(5):
            pct = (
                100.0 * n.dur_us / critical.makespan_us
                if critical.makespan_us
                else 0.0
            )
            t.add_row([n.name, n.lane, n.category, _ms(n.dur_us), f"{pct:.1f}"])
        parts.append(t.render())
    return "\n\n".join(parts) if parts else "(no steps traced)"
