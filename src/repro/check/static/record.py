"""Schedule recording: the hook side of the symbolic dry-run.

This module is intentionally import-light (stdlib + the IR only) because
the hot-path modules that own a critical section — ``repro.nvme.buffers``,
``repro.core.bucket`` — import it at module load.  (Collectives and
rendezvous reach the recorder through the extractor's recording
backends instead.)  The pattern mirrors
the runtime checker plumbing in :mod:`repro.check.runtime`: a single
module-level recorder slot, a ``get_static_recorder()`` accessor whose
``None`` fast path costs one global read, and a context manager for
scoped installation.

Recording is single-threaded by design: events fired from worker
threads (e.g. the aio completion thread releasing a pinned buffer) are
dropped rather than interleaved into the issuing rank's program order —
cross-thread lock spans are a documented incompleteness of the verifier,
not schedule events.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.check.static.ir import RankSchedule, ScheduleEvent, ScheduleIR


class ScheduleRecorder:
    """Accumulates :class:`ScheduleEvent` streams during a dry run.

    Two shapes of use:

    * ``rank=None`` (loop mode): one in-process run executes every rank
      turn; each facade-level event is appended to *all* rank streams,
      exactly as the loop backend makes every rank observe it.
    * ``rank=r`` (mp mode): one symbolic per-rank run; every event is
      rank ``r``'s own, and the caller assembles the cross-rank IR from
      ``world`` separate recorders.
    """

    def __init__(self, world: int, *, rank: Optional[int] = None):
        if world < 1:
            raise ValueError("world must be >= 1")
        if rank is not None and not 0 <= rank < world:
            raise ValueError(f"rank {rank} out of range for world {world}")
        self.world = world
        self.rank = rank
        self._events: list[list[ScheduleEvent]] = [[] for _ in range(world)]
        self._thread = threading.get_ident()

    # -- internals ----------------------------------------------------
    def _append(self, event: ScheduleEvent) -> None:
        if threading.get_ident() != self._thread:
            return  # worker-thread events are out of rank program order
        if self.rank is None:
            for stream in self._events:
                stream.append(event)
        else:
            self._events[self.rank].append(event)

    # -- hook surface (called from instrumented hot paths) ------------
    def on_collective(
        self, op: str, dtypes: list[str], numels: list[int]
    ) -> None:
        payload = tuple(zip([str(d) for d in dtypes], [int(n) for n in numels]))
        self._append(ScheduleEvent("collective", op=op, payload=payload))

    def on_barrier(self) -> None:
        self._append(ScheduleEvent("barrier"))

    def on_chunk(self, seq: int, nbytes: int) -> None:
        self._append(ScheduleEvent("chunk", seq=int(seq), nbytes=int(nbytes)))

    def on_lock_acquire(self, name: str) -> None:
        self._append(ScheduleEvent("lock_acquire", lock=name))

    def on_lock_release(self, name: str) -> None:
        self._append(ScheduleEvent("lock_release", lock=name))

    def on_abort(self, *, terminal: bool) -> None:
        self._append(ScheduleEvent("abort", terminal=bool(terminal)))

    def on_recover(self) -> None:
        self._append(ScheduleEvent("recover"))

    # -- results ------------------------------------------------------
    def rank_schedule(self, rank: int) -> RankSchedule:
        return RankSchedule(rank=rank, events=tuple(self._events[rank]))

    def build_ir(self, *, mode: str, label: str = "") -> ScheduleIR:
        return ScheduleIR(
            world=self.world,
            ranks=tuple(self.rank_schedule(r) for r in range(self.world)),
            mode=mode,
            label=label,
        )


_recorder: Optional[ScheduleRecorder] = None


def get_static_recorder() -> Optional[ScheduleRecorder]:
    """The installed recorder, or None (the hot-path fast answer)."""
    return _recorder


def install_static_recorder(
    rec: Optional[ScheduleRecorder],
) -> Optional[ScheduleRecorder]:
    """Install ``rec`` globally; returns the previous recorder."""
    global _recorder
    prev = _recorder
    _recorder = rec
    return prev


class use_static_recorder:
    """Scoped installation: ``with use_static_recorder(rec): ...``."""

    def __init__(self, rec: ScheduleRecorder):
        self._rec = rec
        self._prev: Optional[ScheduleRecorder] = None

    def __enter__(self) -> ScheduleRecorder:
        self._prev = install_static_recorder(self._rec)
        return self._rec

    def __exit__(self, *exc) -> None:
        install_static_recorder(self._prev)
