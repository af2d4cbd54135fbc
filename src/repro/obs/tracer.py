"""Low-overhead span tracer for the real execution paths.

The paper's claims are all about *overlap* — compute hidden behind NVMe
swaps, allgathers, and offloaded optimizer steps (Secs. 5-6, Fig. 6d) — and
a timeline trace is the only way to see whether the functional layer
actually achieves it.  :class:`Tracer` records nestable, thread-aware spans:

    with trace_span("offload:swap_in", cat="nvme", bytes=n):
        ...

Each span lands on the lane of the thread that executed it, so
``AsyncIOEngine`` worker I/O shows up on its own rows next to the main
thread's compute — exactly the per-stream view Perfetto renders from the
Chrome trace export (:mod:`repro.obs.export`).

Design constraints:

* **disabled is (almost) free** — ``trace_span`` on a disabled tracer
  returns a shared no-op context manager without touching the clock or any
  lock, so always-on instrumentation in hot paths costs one attribute check
  per call site (the ``tracer`` row of :mod:`repro.obs.overhead`);
* **recording is cheap** — one ``perf_counter_ns`` pair per span and a
  single short lock hold on exit; no string formatting on the hot path;
* **bounded** — the record buffer caps at ``max_spans``; overflow drops
  spans (counted) instead of growing without bound.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass(slots=True)
class SpanRecord:
    """One completed span: a named interval on a thread lane."""

    name: str
    cat: str
    ts_us: float  # start, microseconds since the tracer epoch
    dur_us: float  # duration in microseconds; 0.0 for instant events
    tid: int  # dense per-tracer lane id (0 = first thread seen)
    thread: str  # thread name at record time
    args: dict = field(default_factory=dict)
    instant: bool = False
    counter: bool = False  # Chrome counter-track sample ("C" event)


class _NoopSpan:
    """Shared do-nothing context manager: the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """Context manager that commits a :class:`SpanRecord` on exit.

    Open spans register in the tracer's ``_open`` table so an aborted step
    can force-close whatever a worker thread left dangling
    (:meth:`Tracer.force_close_open`).  ``dict.pop`` on the table is the
    commit token: whoever pops the key commits the record, so a racing
    normal exit and force-close cannot double-record.
    """

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_t0", "_ident")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        self._ident = threading.get_ident()
        self._t0 = time.perf_counter_ns()
        # plain dict store: atomic under the GIL, no lock on the hot path
        self._tracer._open[id(self)] = self
        return self

    def __exit__(self, *exc) -> bool:
        if self._tracer._open.pop(id(self), None) is None:
            return False  # already force-closed by an abort unwind
        self._tracer._commit(
            self._name, self._cat, self._args, self._t0, time.perf_counter_ns()
        )
        return False


class Tracer:
    """Collects spans; one instance per traced run.

    Thread lanes are assigned densely in the order threads first record, so
    the main thread is almost always lane 0 and each AsyncIOEngine worker
    gets its own stable lane.
    """

    def __init__(self, *, enabled: bool = False, max_spans: int = 1_000_000) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.max_spans = max_spans
        self._enabled = enabled
        self._epoch_ns = time.perf_counter_ns()
        # raw tuples on the hot path (~4x cheaper to build than the
        # dataclass); materialised as SpanRecords only in records()
        self._records: list[tuple] = []
        self._lanes: dict[int, int] = {}  # thread ident -> dense lane id
        self._tls = threading.local()  # caches (lane, name) per thread
        self._lock = threading.Lock()
        self._open: dict[int, "_Span"] = {}  # id(span) -> span, while entered
        self.dropped = 0
        self.force_closed = 0

    # --- state -----------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.dropped = 0

    def records(self) -> list[SpanRecord]:
        """Snapshot of all committed spans (copy; safe to iterate)."""
        with self._lock:
            raw = list(self._records)
        return [SpanRecord(*r) for r in raw]

    @property
    def epoch_ns(self) -> int:
        """Monotonic-clock origin all record timestamps are relative to.

        Carried on trace shards so the merged multi-rank exporter can
        normalize per-process clock origins onto one timeline.
        """
        return self._epoch_ns

    def raw_since(self, index: int) -> tuple[int, list[tuple]]:
        """``(new_index, raw records[index:])`` — incremental cheap reads.

        Used by the live telemetry plane to fold the stall spans committed
        since the previous sample without materialising SpanRecords.
        """
        with self._lock:
            return len(self._records), self._records[index:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # --- recording --------------------------------------------------------------
    def span(self, name: str, *, cat: str = "misc", **args):
        """Context manager timing one interval; no-op when disabled."""
        if not self._enabled:
            return _NOOP_SPAN
        return _Span(self, name, cat, args)

    def instant(self, name: str, *, cat: str = "misc", **args) -> None:
        """Record a zero-duration marker event; no-op when disabled."""
        if not self._enabled:
            return
        now = time.perf_counter_ns()
        self._append(name, cat, args, now, now, instant=True)

    def counter(self, name: str, *, cat: str = "counter", **values) -> None:
        """Record one sample on a Chrome counter track; no-op when disabled.

        ``values`` are the track's series (e.g. ``gpu=…, cpu=…``); each
        distinct ``name`` renders as its own counter track in Perfetto,
        aligned with the span lanes.
        """
        if not self._enabled:
            return
        now = time.perf_counter_ns()
        self._append(name, cat, values, now, now, counter=True)

    def _commit(self, name: str, cat: str, args: dict, t0: int, t1: int) -> None:
        if not self._enabled:  # disabled mid-span: drop silently
            return
        self._append(name, cat, args, t0, t1)

    def _append(
        self,
        name: str,
        cat: str,
        args: dict,
        t0: int,
        t1: int,
        *,
        instant: bool = False,
        counter: bool = False,
        lane: Optional[int] = None,
        thread_name: Optional[str] = None,
    ) -> None:
        if lane is None:
            tls = self._tls
            try:
                lane = tls.lane
                thread_name = tls.name
            except AttributeError:  # first span from this thread
                ident = threading.get_ident()
                thread_name = threading.current_thread().name
                with self._lock:
                    lane = self._lanes.get(ident)
                    if lane is None:
                        lane = self._lanes[ident] = len(self._lanes)
                tls.lane = lane
                tls.name = thread_name
        rec = (
            name,
            cat,
            (t0 - self._epoch_ns) / 1e3,
            (t1 - t0) / 1e3,
            lane,
            thread_name,
            args,
            instant,
            counter,
        )
        with self._lock:
            if len(self._records) >= self.max_spans:
                self.dropped += 1
                return
            self._records.append(rec)

    # --- abort handling ---------------------------------------------------------
    def force_close_open(self, **extra_args) -> int:
        """Commit every dangling open span now, marked ``aborted=True``.

        Called from the step-abort unwind paths so Chrome traces from
        faulted/replayed steps stay well-formed instead of silently losing
        whatever a worker thread had open when its request was abandoned.

        Spans belonging to the calling thread are skipped: an exception
        unwinding through ``with`` blocks exits those normally, and the
        enclosing ``engine:step`` span must stay open for the retry.
        Returns the number of spans closed; each closed span's record
        carries ``aborted=True`` plus ``extra_args``.
        """
        if not self._enabled:
            return 0
        me = threading.get_ident()
        now = time.perf_counter_ns()
        closed = 0
        for key, span in list(self._open.items()):
            if span._ident == me:
                continue
            if self._open.pop(key, None) is None:
                continue  # the owning thread exited it while we looked
            with self._lock:
                lane = self._lanes.get(span._ident)
                if lane is None:
                    lane = self._lanes[span._ident] = len(self._lanes)
            args = dict(span._args)
            args["aborted"] = True
            args.update(extra_args)
            self._append(
                span._name,
                span._cat,
                args,
                span._t0,
                now,
                lane=lane,
                thread_name=f"lane{lane}",
            )
            closed += 1
        self.force_closed += closed
        return closed

    def lane_names(self) -> dict[int, str]:
        """lane id -> representative thread name (first span wins)."""
        names: dict[int, str] = {}
        for r in self.records():
            names.setdefault(r.tid, r.thread)
        return names


# --- module-global tracer ----------------------------------------------------
#
# Cross-cutting instrumentation (collectives, the async I/O engine, the
# pinned pool) cannot thread a tracer object through every call, so the hot
# paths consult one process-global tracer — the nvtx/torch.profiler pattern.
# It starts disabled; ``use_tracer`` scopes an enabled tracer to a block.

_global_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer the instrumented hot paths record into."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` globally; returns the previous one."""
    global _global_tracer
    previous = _global_tracer
    _global_tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Scope an (enabled) tracer to a with-block, restoring the old one.

    >>> with use_tracer() as t:
    ...     engine.train_step(batches)
    >>> write_chrome_trace("out.json", t)
    """
    t = tracer if tracer is not None else Tracer(enabled=True)
    previous = set_tracer(t)
    try:
        yield t
    finally:
        set_tracer(previous)


def trace_span(name: str, *, cat: str = "misc", **args):
    """Span on the global tracer — the one-liner hot paths call."""
    t = _global_tracer
    if not t._enabled:
        return _NOOP_SPAN
    return _Span(t, name, cat, args)


def trace_instant(name: str, *, cat: str = "misc", **args) -> None:
    """Instant marker on the global tracer."""
    t = _global_tracer
    if t._enabled:
        t.instant(name, cat=cat, **args)


def trace_counter(name: str, *, cat: str = "counter", **values) -> None:
    """Counter-track sample on the global tracer — the hot-path one-liner."""
    t = _global_tracer
    if t._enabled:
        t.counter(name, cat=cat, **values)
