"""Pluggable collective backends behind :class:`~repro.comm.group.ProcessGroup`.

The process group is a *facade*: it signs, accounts, and then asks a
:class:`CommBackend` to actually move the bytes.  Two implementations ship:

* :class:`LoopBackend` — the original single-process execution model.  All
  ranks live in one interpreter, collectives are the pure functions of
  :mod:`repro.comm.collectives` over per-rank buffer lists, and the engine
  runs rank turns sequentially.  This backend is the **bit-exact oracle**
  every other backend is tested against.
* :class:`~repro.comm.mp_backend.MultiprocBackend` — one OS process per
  rank, payloads exchanged through ``multiprocessing.shared_memory`` with a
  double-buffered ring and fingerprint-carrying barriers (see
  ``docs/parallelism.md``).  Launched via
  :func:`repro.comm.launcher.run_multiproc`.

Backend-level failures map onto the engine's recovery tiers deliberately:

* :class:`CommPeerAbort` subclasses :class:`OSError`, so a peer aborting a
  step for replay lands in the engine's step-replay handler like any other
  recoverable device fault;
* :class:`CommTimeout` / :class:`CommDivergence` subclass
  :class:`RuntimeError` — a missing peer or a diverged collective sequence
  is not replayable, so they propagate as terminal.
"""

from __future__ import annotations

import abc
import zlib
from typing import Sequence

import numpy as np

from repro.comm import collectives as C



class CommError(RuntimeError):
    """Terminal communication failure (not replayable)."""


class CommDivergence(CommError):
    """Cross-process fingerprint mismatch: ranks issued different collectives."""


class CommTimeout(CommError):
    """A rendezvous barrier broke with no abort flag: peer missing/deadlocked."""


class CommPeerAbort(OSError):
    """A peer aborted the current step for replay (recoverable, retried)."""


class CommBackend(abc.ABC):
    """Executes collectives for a :class:`~repro.comm.group.ProcessGroup`.

    The *list collectives* (``broadcast`` … ``scatter``) keep the
    functional contract of :mod:`repro.comm.collectives`: one buffer per
    rank in, one result per rank out.  Backends whose ranks are separate
    processes additionally implement the cross-process primitives
    (:meth:`exchange`, :meth:`step_sync`, abort/recover) and report which
    simulated rank is local via :meth:`is_local` / :attr:`all_local`.

    A backend that :attr:`folds_signatures` is handed each collective's
    signature by the process group and maintains a running CRC32
    *fingerprint digest* over the collective sequence; process-parallel
    backends carry the digest in their rendezvous headers and raise
    :class:`CommDivergence` when ranks disagree.
    """

    name: str = "abstract"
    #: Does the process group sign each collective for this backend
    #: (:meth:`note_fingerprint`)?  Only where a consumer reads the digest.
    folds_signatures: bool = False

    def __init__(self, world_size: int) -> None:
        if world_size <= 0:
            raise ValueError("world_size must be positive")
        self.world_size = world_size
        self._digest = 0

    # --- locality ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        """The simulated rank this backend instance computes for."""
        return 0

    @property
    def all_local(self) -> bool:
        """True when every simulated rank runs in this process."""
        return True

    def is_local(self, rank: int) -> bool:
        """Does this process run ``rank``'s forward/backward?"""
        return True

    # --- fingerprint digest ------------------------------------------------------
    def note_fingerprint(
        self, op: str, dtypes: Sequence[str], numels: Sequence[int]
    ) -> None:
        """Fold one collective's (op, dtypes, numels) into the running CRC."""
        blob = ";".join([op, *dtypes, *map(str, numels)]).encode()
        self._digest = zlib.crc32(blob, self._digest)

    @property
    def fingerprint_digest(self) -> int:
        return self._digest

    # --- cross-process primitives (no-ops for in-process backends) ---------------
    def exchange(
        self,
        payload: np.ndarray | None = None,
        *,
        out: Sequence[np.ndarray] | None = None,
        **what,
    ) -> list[np.ndarray]:
        """All-gather one rank-local payload across rank *processes*.

        Returns one array per rank, each reshaped like ``payload`` — or,
        given ``out`` (one array per rank, ``out[rank]`` holding the
        payload), fills the peers' entries in place and returns ``out``.
        ``what`` labels the payload for traces and divergence reports.
        Only meaningful when ``not all_local``; the loop backend never
        needs it because every rank's data is already in-process.
        """
        raise NotImplementedError(f"{self.name} backend has no exchange")

    def step_sync(
        self, payload: np.ndarray | None = None
    ) -> list[np.ndarray] | None:
        """Per-step rendezvous barrier carrying the fingerprint digest —
        and ``payload``, all-gathered like :meth:`exchange`, if given.
        A no-op for in-process backends."""

    def signal_abort(self, terminal: bool = False) -> None:
        """Tell peers this rank is abandoning the in-flight step."""

    def recover_after_abort(self) -> None:
        """Rendezvous with peers after an aborted step, before the replay."""

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def transport_stats(self) -> dict[str, float]:
        """Counters of what really crossed process boundaries (none here)."""
        return {}

    # --- list collectives ---------------------------------------------------------
    @abc.abstractmethod
    def broadcast(
        self, buffers: Sequence[np.ndarray | None], root: int = 0
    ) -> list[np.ndarray]: ...

    @abc.abstractmethod
    def allgather(self, shards: Sequence[np.ndarray]) -> list[np.ndarray]: ...

    @abc.abstractmethod
    def allgather_into(
        self, shards: Sequence[np.ndarray], out: np.ndarray
    ) -> list[np.ndarray]: ...

    @abc.abstractmethod
    def reduce_scatter(
        self, buffers: Sequence[np.ndarray], *, op: str = "sum"
    ) -> list[np.ndarray]: ...

    @abc.abstractmethod
    def reduce_scatter_into(
        self,
        buffers: Sequence[np.ndarray],
        out: np.ndarray | Sequence[np.ndarray],
        *,
        op: str = "sum",
    ) -> list[np.ndarray]: ...

    @abc.abstractmethod
    def allreduce(
        self, buffers: Sequence[np.ndarray], *, op: str = "sum"
    ) -> list[np.ndarray]: ...

    @abc.abstractmethod
    def gather(
        self, shards: Sequence[np.ndarray], root: int = 0
    ) -> list[np.ndarray | None]: ...

    @abc.abstractmethod
    def scatter(
        self, full: np.ndarray, world: int, root: int = 0
    ) -> list[np.ndarray]: ...


class LoopBackend(CommBackend):
    """The original in-process execution model: verbatim functional collectives.

    Delegates every list collective to :mod:`repro.comm.collectives`
    unchanged — this backend *is* the pre-refactor behaviour and serves as
    the bit-exact oracle for the equivalence tests.
    """

    name = "loop"

    def broadcast(
        self, buffers: Sequence[np.ndarray | None], root: int = 0
    ) -> list[np.ndarray]:
        return C.broadcast(buffers, root)

    def allgather(self, shards: Sequence[np.ndarray]) -> list[np.ndarray]:
        return C.allgather(shards)

    def allgather_into(
        self, shards: Sequence[np.ndarray], out: np.ndarray
    ) -> list[np.ndarray]:
        return C.allgather_into(shards, out)

    def reduce_scatter(
        self, buffers: Sequence[np.ndarray], *, op: str = "sum"
    ) -> list[np.ndarray]:
        return C.reduce_scatter(buffers, op=op)

    def reduce_scatter_into(
        self,
        buffers: Sequence[np.ndarray],
        out: np.ndarray | Sequence[np.ndarray],
        *,
        op: str = "sum",
    ) -> list[np.ndarray]:
        return C.reduce_scatter_into(buffers, out, op=op)

    def allreduce(
        self, buffers: Sequence[np.ndarray], *, op: str = "sum"
    ) -> list[np.ndarray]:
        return C.allreduce(buffers, op=op)

    def gather(
        self, shards: Sequence[np.ndarray], root: int = 0
    ) -> list[np.ndarray | None]:
        return C.gather(shards, root)

    def scatter(
        self, full: np.ndarray, world: int, root: int = 0
    ) -> list[np.ndarray]:
        return C.scatter(full, world, root)
