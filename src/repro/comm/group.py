"""Process-group facade with data-movement accounting.

:class:`ProcessGroup` wraps a pluggable :class:`~repro.comm.backend.CommBackend`
and records, per collective type, how many bytes crossed device boundaries.
Volume accounting follows the standard ring-algorithm convention used by the
paper's Sec. 6.1 argument (broadcast and allgather move the same volume): for
a payload of ``n`` bytes over ``p`` ranks,

* broadcast / allgather / reduce-scatter move ``(p-1)/p * n`` per rank,
* allreduce moves ``2(p-1)/p * n`` per rank (reduce-scatter + allgather).

This facade also *signs* each collective — (op, per-rank dtypes, per-rank
element counts), at most once per call — for a backend that
:attr:`~repro.comm.backend.CommBackend.folds_signatures`: an mp rank
endpoint folds it into the CRC digest its rendezvous headers carry for
**cross-process** divergence detection, the static extractor's backends
record it; the loop backend is handed nothing.  When ``zerosan`` is on,
the zero-copy ``*_into`` variants register their shared output buffer so
writes through an outstanding view are caught.

Turn capture/echo (process-parallel mode): in the loop backend the engine
runs every rank's forward/backward turn, so gather-path collectives are
issued ``world`` times per module; a rank process runs only its own turn.
The engine therefore captures the local turn's gather-path accounting
(:meth:`begin_turn_capture` / :meth:`end_turn_capture`) — the signature
each call was already signed with, and its byte volume — and *echoes* it
once per non-local turn (:meth:`echo_turns`): CRC digest and
``CommStats`` stay bit-identical to the loop oracle by construction,
because the replicated model issues the identical per-turn sequence in
every process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.check.runtime import CheckContext
from repro.comm.backend import CommBackend, LoopBackend
from repro.obs import planes

#: A collective's signature: per-rank dtype names, per-rank element counts.
Signature = tuple[list[str], list[int]]

#: One captured gather-path collective: (op, dtypes, numels, stat_bytes).
TurnJournal = list[tuple[str, list[str], list[int], int]]


#: ``str(dtype)`` by dtype: numpy builds the name afresh on every call
#: (~4 us), and a rank process signs every collective it issues.
_DTYPE_NAMES: dict[np.dtype, str] = {}


def _signature(payloads: Sequence) -> Signature:
    """Per-rank (dtype, element count) of a collective's payloads."""
    dtypes, numels = [], []
    for p in payloads:
        a = np.asarray(p)
        name = _DTYPE_NAMES.get(a.dtype)
        if name is None:
            name = _DTYPE_NAMES[a.dtype] = str(a.dtype)
        dtypes.append(name)
        numels.append(int(a.size))
    return dtypes, numels


@dataclass
class CommStats:
    """Byte and call counters per collective, across the whole group: the
    one count of each collective, which ``EngineReport`` and the e2e
    ledger read."""

    bytes_by_op: dict[str, int] = field(default_factory=dict)
    calls_by_op: dict[str, int] = field(default_factory=dict)

    def record(self, op: str, nbytes: int) -> None:
        self.bytes_by_op[op] = self.bytes_by_op.get(op, 0) + int(nbytes)
        self.calls_by_op[op] = self.calls_by_op.get(op, 0) + 1

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_op.values())

    def reset(self) -> None:
        self.bytes_by_op.clear()
        self.calls_by_op.clear()


class ProcessGroup:
    """A simulated communicator over ``world_size`` ranks.

    ``backend`` selects the execution model: the default
    :class:`~repro.comm.backend.LoopBackend` keeps every rank in-process
    (the original behaviour); a
    :class:`~repro.comm.mp_backend.MultiprocBackend` makes this group the
    rank-local endpoint of a process-parallel launch.  Call sites are
    backend-agnostic — the facade's API and accounting are identical.
    """

    def __init__(
        self,
        world_size: int,
        *,
        check: Optional[CheckContext] = None,
        backend: Optional[CommBackend] = None,
    ) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        self.world_size = world_size
        self.backend = backend if backend is not None else LoopBackend(world_size)
        if self.backend.world_size != world_size:
            raise ValueError(
                f"backend world {self.backend.world_size} !="
                f" group world {world_size}"
            )
        self.stats = CommStats()
        self._check = check if check is not None else planes.checker
        self._turn_journal: Optional[TurnJournal] = None

    def _per_rank_ring_volume(self, payload_bytes: int) -> int:
        p = self.world_size
        return int(payload_bytes * (p - 1) / p)

    # --- locality / cross-process passthrough -----------------------------------
    @property
    def all_local(self) -> bool:
        """True when every simulated rank runs in this process."""
        return self.backend.all_local

    @property
    def local_rank(self) -> Optional[int]:
        """The one simulated rank this process computes for, or ``None``
        when every rank runs here."""
        return None if self.backend.all_local else self.backend.rank

    def exchange(
        self,
        payload: np.ndarray | None = None,
        *,
        out: Sequence[np.ndarray] | None = None,
        **what,
    ) -> list[np.ndarray]:
        """All-gather a rank-local payload across rank *processes*.

        ``exchange(out=arrays)`` gathers in place: ``arrays[rank]`` is the
        payload and the peers' land in the other entries (see
        :meth:`~repro.comm.backend.CommBackend.exchange`).

        Transport, not a simulated collective: deliberately **not**
        recorded in :class:`CommStats` (the backend keeps private
        counters), so the stats stay bit-identical to the loop oracle.
        """
        return self.backend.exchange(payload, out=out, **what)

    # --- signing / checker hooks ------------------------------------------------
    @property
    def check(self) -> Optional[CheckContext]:
        """The checker context this group reports to (``None``: unchecked)."""
        return self._check

    def _fingerprint(
        self, op: str, payloads: Sequence[np.ndarray]
    ) -> Optional[Signature]:
        """Sign one collective and hand the signature to the backend (before
        executing, as a real collective is committed once issued); ``None``
        when the backend does not fold signatures."""
        if not self.backend.folds_signatures:
            return None
        dtypes, numels = signature = _signature(payloads)
        self.backend.note_fingerprint(op, dtypes, numels)
        return signature

    def _journal(
        self, op: str, signature: Optional[Signature], nbytes: int
    ) -> None:
        """Capture a gather-path collective for later turn echoes."""
        if self._turn_journal is not None:
            self._turn_journal.append((op, *signature, int(nbytes)))

    def _share(self, views: Sequence[np.ndarray]) -> None:
        """A zero-copy collective returned ``views`` of caller-owned memory."""
        ck = self._check
        if ck is None or ck.zerosan is None:
            return
        ck.zerosan.on_shared_views(views)

    # --- turn capture / echo -----------------------------------------------------
    def begin_turn_capture(self) -> None:
        """Start journaling gather-path collectives of the local rank turn
        (a rank endpoint's, whose backend folds the signatures journaled)."""
        self._turn_journal = []

    def end_turn_capture(self) -> TurnJournal:
        journal, self._turn_journal = self._turn_journal or [], None
        return journal

    def echo_turns(self, journal: TurnJournal, count: int) -> None:
        """Replay a turn's gather-path accounting for ``count`` peer turns.

        No data moves — peers executed these collectives in their own
        processes; this replays the *observable* side (CRC digest,
        ``CommStats``) from the journaled signatures, so every process's
        accounting matches the loop oracle's serialized rank loop.
        """
        note = self.backend.note_fingerprint
        for _ in range(max(count, 0)):
            for op, dtypes, numels, nbytes in journal:
                note(op, dtypes, numels)
                self.stats.record(op, nbytes)

    # --- collectives -----------------------------------------------------------
    def broadcast(
        self, buffers: Sequence[np.ndarray | None], root: int = 0
    ) -> list[np.ndarray]:
        signature = None
        if buffers[root] is not None:
            signature = self._fingerprint(
                "broadcast", [buffers[root]] * self.world_size
            )
        out = self.backend.broadcast(buffers, root)
        vol = self._per_rank_ring_volume(out[0].nbytes) * self.world_size
        self.stats.record("broadcast", vol)
        self._journal("broadcast", signature, vol)
        return out

    def allgather(self, shards: Sequence[np.ndarray]) -> list[np.ndarray]:
        signature = self._fingerprint("allgather", shards)
        out = self.backend.allgather(shards)
        vol = self._per_rank_ring_volume(out[0].nbytes) * self.world_size
        self.stats.record("allgather", vol)
        self._journal("allgather", signature, vol)
        return out

    def allgather_into(
        self, shards: Sequence[np.ndarray], out: np.ndarray
    ) -> list[np.ndarray]:
        """Allgather into a caller-owned reusable buffer (read-only views)."""
        signature = self._fingerprint("allgather", shards)
        views = self.backend.allgather_into(shards, out)
        if self._check is not None:
            self._share(views[:1])
        vol = self._per_rank_ring_volume(views[0].nbytes) * self.world_size
        self.stats.record("allgather", vol)
        self._journal("allgather", signature, vol)
        return views

    def reduce_scatter(
        self, buffers: Sequence[np.ndarray], *, op: str = "sum"
    ) -> list[np.ndarray]:
        self._fingerprint("reduce_scatter", buffers)
        out = self.backend.reduce_scatter(buffers, op=op)
        self.stats.record(
            "reduce_scatter",
            self._per_rank_ring_volume(buffers[0].nbytes) * self.world_size,
        )
        return out

    def reduce_scatter_into(
        self,
        buffers: Sequence[np.ndarray],
        out: np.ndarray | Sequence[np.ndarray],
        *,
        op: str = "sum",
    ) -> list[np.ndarray]:
        """Reduce-scatter into caller-owned memory (read-only views).

        Segment form: ``out`` is a list of destination arrays tiling the
        reduced buffer in order — one collective, accounted and
        signed from ``buffers`` exactly as the flat call.
        """
        self._fingerprint("reduce_scatter", buffers)
        views = self.backend.reduce_scatter_into(buffers, out, op=op)
        if self._check is not None:
            self._share(views)
        self.stats.record(
            "reduce_scatter",
            self._per_rank_ring_volume(buffers[0].nbytes) * self.world_size,
        )
        return views

    def allreduce(
        self, buffers: Sequence[np.ndarray], *, op: str = "sum"
    ) -> list[np.ndarray]:
        self._fingerprint("allreduce", buffers)
        out = self.backend.allreduce(buffers, op=op)
        self.stats.record(
            "allreduce",
            2 * self._per_rank_ring_volume(buffers[0].nbytes) * self.world_size,
        )
        return out

    def gather(
        self, shards: Sequence[np.ndarray], root: int = 0
    ) -> list[np.ndarray | None]:
        self._fingerprint("gather", shards)
        out = self.backend.gather(shards, root)
        payload = sum(int(np.asarray(s).nbytes) for s in shards)
        self.stats.record("gather", payload)
        return out

    def scatter(self, full: np.ndarray, root: int = 0) -> list[np.ndarray]:
        self._fingerprint("scatter", [full] * self.world_size)
        out = self.backend.scatter(full, self.world_size, root)
        self.stats.record("scatter", int(np.asarray(full).nbytes))
        return out

    def barrier(self) -> None:
        """Synchronization point: the backend's
        :meth:`~repro.comm.backend.CommBackend.step_sync` — a no-op in the
        loop backend, a digest-carrying rendezvous under the mp backend."""
        self.backend.step_sync()
        self.stats.record("barrier", 0)
