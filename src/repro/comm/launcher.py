"""Launch-and-rendezvous for the multiprocessing backend.

:func:`run_multiproc` is the single entry point: it creates the shared
segment and rendezvous barrier (:class:`MpSession`), forks one process
per rank, runs ``fn(backend)`` in each with a rank-local
:class:`~repro.comm.mp_backend.MultiprocBackend`, and collects one result
per rank — plus per-rank tracer shards when ``trace=True``, ready for
:func:`repro.obs.export.write_merged_chrome_trace`.

``fork`` is used deliberately (Linux-only repo): children inherit the
shared-memory mapping, the barrier, and the worker closure directly, so
nothing needs pickling on the way in (results ride back over a pipe and
must be picklable).  The parent should be thread-quiet at launch time —
close any engine (and its aio worker threads) before calling.

With ``live=`` set, the session also creates a
:class:`~repro.comm.shm.TelemetryRing` beside the data ring: every
worker installs a per-rank :class:`~repro.obs.live.LivePlane` (heartbeats
and samples go through the ring) plus a crash flight recorder, and the
parent's monitor loop doubles as the aggregator — polling the ring into
a :class:`~repro.obs.live.ClusterView`, running the health watchdog, and
invoking the optional ``on_view`` callback (the ``--live`` dashboard).
A worker that dies on an unhandled exception dumps its flight-recorder
shard into ``live.postmortem_dir`` before reporting, and the parent
completes the bundle with a manifest when the run is torn down.

Cleanup guarantees (the chaos-run contract):

* the segment is unlinked by a ``with``/``finally`` in
  :func:`run_multiproc` on every path, including worker crashes;
* :class:`MpSession` registers an ``atexit`` backstop in the parent (it
  no-ops in forked children, which share the hook but not ownership);
* a rank killed mid-step (SIGKILL, OOM) is detected by the parent's
  monitor loop, the remaining ranks are terminated, and the segment is
  unlinked before :class:`MpWorkerFailed` propagates — so crashed runs
  never leak ``/dev/shm`` segments (pinned by a regression test).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.comm.mp_backend import MultiprocBackend
from repro.comm.shm import DEFAULT_SLOT_CAPACITY, SharedRing, TelemetryRing


class MpWorkerFailed(RuntimeError):
    """A rank process died or reported an error; the run was torn down."""

    def __init__(self, rank: int, detail: str) -> None:
        super().__init__(f"rank {rank}: {detail}")
        self.rank = rank
        self.detail = detail


class MpSession:
    """Owns the shared segment + barrier for one multiprocess launch."""

    def __init__(
        self,
        world_size: int,
        *,
        slot_capacity: int = DEFAULT_SLOT_CAPACITY,
        timeout: float = 120.0,
        telemetry_capacity: int = 0,
    ) -> None:
        self.world_size = world_size
        self.timeout = timeout
        self.ctx = multiprocessing.get_context("fork")
        self.ring = SharedRing(world_size, slot_capacity=slot_capacity)
        self.telemetry: Optional[TelemetryRing] = (
            TelemetryRing(world_size, slot_capacity=telemetry_capacity)
            if telemetry_capacity
            else None
        )
        self.barrier = self.ctx.Barrier(world_size)
        self._owner_pid = os.getpid()
        self._closed = False
        atexit.register(self.cleanup)

    def cleanup(self) -> None:
        """Unlink the segments (idempotent; owner process only).

        Forked children inherit the parent's atexit hook; the pid guard
        keeps a child's exit from unlinking the segment under its
        siblings.
        """
        if self._closed or os.getpid() != self._owner_pid:
            return
        self._closed = True
        atexit.unregister(self.cleanup)
        self.ring.destroy()
        if self.telemetry is not None:
            self.telemetry.destroy()

    def __enter__(self) -> "MpSession":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()


@dataclass
class TraceShard:
    """One rank's tracer output, mergeable into a single Chrome trace.

    ``epoch_ns`` is the rank tracer's monotonic-clock origin, exchanged
    at the result-collection rendezvous so the merged exporter can align
    per-process timelines.
    """

    rank: int
    records: list
    lanes: dict[int, str]
    dropped: int
    epoch_ns: int = 0


@dataclass
class MpRunResult:
    """Per-rank worker return values (and trace shards when requested)."""

    results: list[Any]
    shards: Optional[list[TraceShard]] = None


def _worker(
    session: MpSession, rank: int, fn, conn, trace: bool, live_cfg
) -> None:
    backend = MultiprocBackend(session, rank)
    plane = None
    tracer = None
    if live_cfg is not None and session.telemetry is not None:
        from repro.obs.flightrec import FlightRecorder, install_flightrec
        from repro.obs.live import LivePlane, ShmTransport, install_live

        recorder = FlightRecorder(capacity=live_cfg.flight_capacity)
        plane = LivePlane(
            world=session.world_size,
            rank=rank,
            config=live_cfg,
            transport=ShmTransport(session.telemetry),
            recorder=recorder,
        )
        install_live(plane)
        install_flightrec(recorder)
    try:
        if trace:
            from repro.obs import use_tracer

            with use_tracer() as tracer:
                if plane is not None:
                    plane.tracer = tracer
                value = fn(backend)
            shard = TraceShard(
                rank,
                tracer.records(),
                tracer.lane_names(),
                tracer.dropped,
                tracer.epoch_ns,
            )
        else:
            value = fn(backend)
            shard = None
        if plane is not None:
            plane.close()
        conn.send(("ok", value, shard))
    except BaseException as err:  # noqa: BLE001 - forwarded to the parent
        # break peers out of any rendezvous before reporting: a sibling
        # stuck in a barrier would otherwise wait out the full timeout
        backend.signal_abort(terminal=True)
        if plane is not None:
            try:
                plane.on_terminal(f"{type(err).__name__}: {err}")
                plane.close()
            except Exception:
                pass  # the postmortem must never mask the real failure
        try:
            conn.send(
                ("err", f"{type(err).__name__}: {err}", traceback.format_exc())
            )
        except (OSError, ValueError):
            pass  # parent already gone or result unpicklable; exit code tells
    finally:
        conn.close()


def run_multiproc(
    world_size: int,
    fn: Callable[[MultiprocBackend], Any],
    *,
    trace: bool = False,
    timeout: float = 120.0,
    slot_capacity: int = DEFAULT_SLOT_CAPACITY,
    live=None,
    on_view: Optional[Callable[[Any], None]] = None,
    view_interval: float = 0.5,
) -> MpRunResult:
    """Run ``fn(backend)`` in one forked process per rank; gather results.

    ``fn`` receives the rank-local backend and its return value (which
    must be picklable) is collected per rank.  Any rank error or death
    tears the launch down (terminate + unlink) and raises
    :class:`MpWorkerFailed`.

    ``live`` enables the telemetry plane: pass ``True`` for defaults or a
    :class:`~repro.obs.live.LiveConfig`.  ``on_view`` is then called with
    a fresh :class:`~repro.obs.live.ClusterView` roughly every
    ``view_interval`` seconds from the parent's monitor loop.
    """
    live_cfg = None
    if live:
        from repro.obs.live import LiveConfig

        live_cfg = live if isinstance(live, LiveConfig) else LiveConfig()
    with MpSession(
        world_size,
        slot_capacity=slot_capacity,
        timeout=timeout,
        telemetry_capacity=live_cfg.slot_capacity if live_cfg else 0,
    ) as session:
        aggregator = None
        if live_cfg is not None:
            from repro.obs.live import LivePlane, ShmTransport

            aggregator = LivePlane(
                world=world_size,
                config=live_cfg,
                transport=ShmTransport(session.telemetry),
            )
        procs = []
        conns = []
        for rank in range(world_size):
            parent_conn, child_conn = session.ctx.Pipe(duplex=False)
            proc = session.ctx.Process(
                target=_worker,
                args=(session, rank, fn, child_conn, trace, live_cfg),
                daemon=True,
                name=f"repro-mp-rank{rank}",
            )
            procs.append(proc)
            conns.append(parent_conn)
        last_view = 0.0
        final_view = None
        try:
            for proc in procs:
                proc.start()
            replies: list[Any] = [None] * world_size
            pending = set(range(world_size))
            while pending:
                if aggregator is not None:
                    now = time.monotonic()
                    if now - last_view >= view_interval:
                        last_view = now
                        final_view = aggregator.view(now)
                        if on_view is not None:
                            on_view(final_view)
                for rank in sorted(pending):
                    if conns[rank].poll(0.05):
                        replies[rank] = conns[rank].recv()
                        pending.discard(rank)
                for rank in sorted(pending):
                    if not procs[rank].is_alive():
                        # exited without reporting — drain any message that
                        # raced the exit before declaring the rank dead
                        if conns[rank].poll(0.5):
                            replies[rank] = conns[rank].recv()
                            pending.discard(rank)
                            continue
                        _finish_postmortem(
                            live_cfg,
                            world_size,
                            f"rank {rank} died without reporting",
                        )
                        raise MpWorkerFailed(
                            rank,
                            f"process died without reporting"
                            f" (exitcode {procs[rank].exitcode})",
                        )
            if aggregator is not None:
                # one guaranteed final poll: short runs can finish inside
                # the first view_interval, and the last published samples
                # (step_end state of every rank) are still in the ring
                final_view = aggregator.view(time.monotonic())
                if on_view is not None:
                    on_view(final_view)
            for rank, reply in enumerate(replies):
                if reply[0] == "err":
                    _finish_postmortem(live_cfg, world_size, reply[1])
                    raise MpWorkerFailed(
                        rank, f"{reply[1]}\n--- worker traceback ---\n{reply[2]}"
                    )
            for proc in procs:
                proc.join(timeout=10.0)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
            for conn in conns:
                conn.close()
    results = [reply[1] for reply in replies]
    shards = [reply[2] for reply in replies] if trace else None
    return MpRunResult(results=results, shards=shards)


def _finish_postmortem(live_cfg, world_size: int, reason: str) -> None:
    """Parent-side bundle completion: write the manifest over worker shards."""
    if live_cfg is None or not live_cfg.postmortem_dir:
        return
    from repro.obs.flightrec import write_postmortem_manifest

    try:
        write_postmortem_manifest(
            live_cfg.postmortem_dir, reason, world=world_size
        )
    except OSError:
        pass  # never mask the original failure with bundle I/O errors
