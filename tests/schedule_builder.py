"""Hand-built schedule IRs for the static verifier's tests and corpus.

:class:`ScheduleBuilder` constructs a :class:`~repro.check.static.ScheduleIR`
event by event: the deliberate-bug corpus under ``tests/check_corpus/static/``
and the unit tests use it for schedules the real engine would never emit.
"""

from __future__ import annotations

from repro.check.static import RankSchedule, ScheduleEvent, ScheduleIR


class ScheduleBuilder:
    """Hand-construct a :class:`ScheduleIR` event by event.

    ``rank=None`` appends the event to every rank — the common case for
    symmetric schedules; pass a concrete rank to model divergence.
    """

    def __init__(self, world: int, *, mode: str = "mp", label: str = ""):
        if world < 1:
            raise ValueError("world must be >= 1")
        self.world = world
        self.mode = mode
        self.label = label
        self._events: list[list[ScheduleEvent]] = [[] for _ in range(world)]

    def _append(self, rank: int | None, event: ScheduleEvent) -> "ScheduleBuilder":
        targets = range(self.world) if rank is None else (rank,)
        for r in targets:
            self._events[r].append(event)
        return self

    def collective(
        self,
        rank: int | None,
        op: str,
        dtype: str = "float32",
        numel: int = 0,
    ) -> "ScheduleBuilder":
        return self._append(
            rank,
            ScheduleEvent("collective", op=op, payload=((dtype, numel),)),
        )

    def call(self, op: str, payloads: list[tuple[str, int]]) -> "ScheduleBuilder":
        """One facade call carrying per-rank payloads, seen by all ranks."""
        return self._append(
            None, ScheduleEvent("collective", op=op, payload=tuple(payloads))
        )

    def barrier(self, rank: int | None = None) -> "ScheduleBuilder":
        return self._append(rank, ScheduleEvent("barrier"))

    def chunk(
        self, rank: int | None, seq: int, nbytes: int = 0
    ) -> "ScheduleBuilder":
        return self._append(rank, ScheduleEvent("chunk", seq=seq, nbytes=nbytes))

    def lock_acquire(self, rank: int | None, name: str) -> "ScheduleBuilder":
        return self._append(rank, ScheduleEvent("lock_acquire", lock=name))

    def lock_release(self, rank: int | None, name: str) -> "ScheduleBuilder":
        return self._append(rank, ScheduleEvent("lock_release", lock=name))

    def abort(
        self, rank: int | None, *, terminal: bool = False
    ) -> "ScheduleBuilder":
        return self._append(rank, ScheduleEvent("abort", terminal=terminal))

    def recover(self, rank: int | None = None) -> "ScheduleBuilder":
        return self._append(rank, ScheduleEvent("recover"))

    def build(self) -> ScheduleIR:
        return ScheduleIR(
            world=self.world,
            ranks=tuple(
                RankSchedule(rank=r, events=tuple(evts))
                for r, evts in enumerate(self._events)
            ),
            mode=self.mode,
            label=self.label,
        )
