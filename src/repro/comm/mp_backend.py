"""One-process-per-rank backend over shared memory.

Execution model — **replicated-state SPMD**: every rank process holds the
*full* simulation state (all ranks' parameter shards, optimizer state,
RNG streams), deterministically identical across processes, and computes
only its own rank's forward/backward.  The only data that crosses process
boundaries is

* each rank's filled part of the gradient bucket, once per bucket flush
  (an oversized gradient is a flush of its own) — :meth:`exchange`, and
* the per-step losses, riding the step-boundary rendezvous
  (:meth:`step_sync`).

After a flush's exchange every process holds the same per-rank bucket
inputs the loop backend would have banked in-process, so reductions and
optimizer updates run *replicated and deterministic* — which is what makes
the backend bit-identical to the loop oracle while the expensive
forward/backward runs in parallel.

The list collectives are inherited from :class:`LoopBackend` verbatim:
their inputs are replicated (or completed by a prior exchange), so
executing them locally in every process is both correct and exactly what
keeps ``CommStats`` identical between backends.  Exchange/rendezvous
traffic is deliberately kept in backend-private counters, **not**
``CommStats`` — it is transport, not a collective the simulated algorithm
issued.

Failure protocol (see ``docs/parallelism.md``): an aborting rank sets its
abort flag in the ring control block and breaks the barrier; peers waiting
in a rendezvous observe the broken barrier, classify via the flags
(replay → :class:`CommPeerAbort`, terminal → :class:`CommError`, no flag →
:class:`CommTimeout`), and the engine's step-replay tier drives everyone
through :meth:`recover_after_abort` — an epoch-bump rendezvous that resets
the barrier and the exchange sequence before the bit-identical replay.
"""

from __future__ import annotations

import time
from threading import BrokenBarrierError
from typing import Sequence

import numpy as np

from repro.comm.backend import (
    CommDivergence,
    CommError,
    CommPeerAbort,
    CommTimeout,
    LoopBackend,
)
from repro.comm.shm import ABORT_REPLAY, ABORT_TERMINAL, SharedRing
from repro.obs.perfscope import stall_span
from repro.obs.tracer import trace_span

_POLL_S = 0.001


class MultiprocBackend(LoopBackend):
    """Rank-``rank`` endpoint of a :class:`~repro.comm.launcher.MpSession`."""

    name = "mp"
    folds_signatures = True

    def __init__(self, session, rank: int) -> None:
        super().__init__(session.world_size)
        if not 0 <= rank < session.world_size:
            raise ValueError(f"rank {rank} out of range")
        self.session = session
        self._rank = rank
        self._seq = 0  # exchange chunk counter, reset on recovery
        self._epoch = 0
        # transport-private accounting (NOT CommStats — see module docstring)
        self.exchanges = 0
        self.exchange_bytes = 0  # payload bytes this rank published
        self.step_syncs = 0
        self.barrier_waits = 0
        self.wait_s = 0.0  # time blocked in rendezvous barriers
        self.peer_aborts_seen = 0

    # --- locality ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def all_local(self) -> bool:
        return False

    def is_local(self, rank: int) -> bool:
        return rank == self._rank

    # --- rendezvous --------------------------------------------------------------
    def _barrier_wait(self, what: dict) -> None:
        t0 = time.perf_counter()
        try:
            with stall_span("exchange_wait", owner=f"rank{self._rank}", **what):
                self.session.barrier.wait(timeout=self.session.timeout)
        except BrokenBarrierError:
            self._raise_broken()
        finally:
            self.wait_s += time.perf_counter() - t0
            self.barrier_waits += 1

    def _raise_broken(self) -> None:
        kinds = self.session.ring.abort_kinds()
        self.peer_aborts_seen += 1
        if ABORT_TERMINAL in kinds:
            raise CommError(
                f"peer rank(s) {[r for r, k in enumerate(kinds) if k]} "
                f"terminated mid-step; aborting rank {self._rank}"
            )
        if ABORT_REPLAY in kinds:
            raise CommPeerAbort(
                f"peer rank(s) {[r for r, k in enumerate(kinds) if k]} "
                f"aborted the step for replay"
            )
        raise CommTimeout(
            f"rank {self._rank}: rendezvous barrier broke with no abort flag"
            f" after {self.session.timeout}s — a peer is missing or the"
            f" collective sequences deadlocked"
        )

    # --- exchange ----------------------------------------------------------------
    def exchange(
        self,
        payload: np.ndarray | None = None,
        *,
        out: Sequence[np.ndarray] | None = None,
        **what,
    ) -> list[np.ndarray]:
        """All-gather one array per rank across rank processes through the ring.

        ``exchange(payload)`` returns one array per rank, each shaped like
        ``payload``; this rank's entry is the payload itself, its peers' are
        fresh.  ``exchange(out=arrays)`` is the form that allocates nothing:
        ``arrays`` holds one equally sized contiguous array per rank,
        ``arrays[rank]`` *is* the payload, and each peer's bytes are read
        from its slot straight into ``arrays[peer]`` (the list is returned).
        Either way a payload byte is copied twice — into this rank's slot,
        out of it by each peer — and a rank never reads its own slot.

        The payload is split into slot-capacity chunks; chunk ``k`` is
        published to ring buffer ``k % 2`` and one barrier wait separates
        publish from read (double-buffering makes the reuse safe — see
        :mod:`repro.comm.shm`).  Every chunk header carries the exchange
        sequence number, the running fingerprint digest and the size of the
        whole payload; all peers' headers are checked before any of the
        chunk's bytes are used, and a peer whose header disagrees has issued
        a different collective sequence: the exchange raises
        :class:`CommDivergence` instead of silently corrupting gradients.

        ``what`` names the payload (a bucket flush's ``entries`` / ``fill``,
        an oversized gradient's ``param``) on the ``mp:exchange`` span, the
        ``exchange_wait`` stalls inside it and a divergence report.
        """
        rank, world = self._rank, self.world_size
        if out is None:
            mine = np.ascontiguousarray(payload)
            out = [mine if r == rank else np.empty_like(mine) for r in range(world)]
        elif len(out) != world:
            raise ValueError(f"need {world} per-rank arrays, got {len(out)}")
        mine = out[rank]
        nbytes = int(mine.nbytes)
        for o in out:
            if o.nbytes != nbytes or o.dtype != mine.dtype or not o.flags.c_contiguous:
                raise ValueError(
                    "exchange arrays must be contiguous and match the"
                    f" payload ({mine.size} x {mine.dtype})"
                )
        ring = self.session.ring
        self.note_fingerprint("exchange", [str(mine.dtype)], [int(mine.size)])
        raw = [o.reshape(-1).view(np.uint8) for o in out]
        peers = [r for r in range(world) if r != rank]
        with trace_span(
            "mp:exchange", cat="comm", bytes=nbytes, world=world,
            seq=self._seq, **what,
        ):
            sent = 0
            while True:
                n = min(ring.slot_capacity, nbytes - sent)
                buf = self._seq % 2
                ring.publish(
                    buf,
                    rank,
                    seq=self._seq,
                    crc=self._digest,
                    total=nbytes,
                    data=raw[rank][sent : sent + n] if n else None,
                )
                self._barrier_wait(what)
                for r in peers:
                    self._check_header(buf, r, n, nbytes, mine.itemsize, what)
                if n:
                    for r in peers:
                        ring.read_data(buf, r, raw[r][sent : sent + n])
                self._seq += 1
                sent += n
                if sent >= nbytes:
                    break
        self.exchanges += 1
        self.exchange_bytes += nbytes
        return list(out)

    def _check_header(
        self, buf: int, peer: int, n: int, nbytes: int, itemsize: int, what: dict
    ) -> None:
        """Refuse a peer's chunk unless it is this chunk of this exchange."""
        seq, crc, got, total = self.session.ring.read_header(buf, peer)
        if total == nbytes and seq == self._seq and got == n and crc == self._digest:
            return
        named = "".join(f" {k}={v}" for k, v in what.items())
        if total != nbytes:
            raise CommDivergence(
                f"exchange{named} at seq {self._seq}: rank {peer} published"
                f" {total // itemsize} elements ({total}B) where rank"
                f" {self._rank} published {nbytes // itemsize} elements"
                f" ({nbytes}B)"
                f" — the ranks' payloads diverged; nothing was delivered"
            )
        if seq != self._seq or got != n:
            raise CommDivergence(
                f"rank {peer} published chunk (seq={seq}, {got}B)"
                f" while rank {self._rank} expected"
                f" (seq={self._seq}, {n}B): exchange streams"
                f" diverged"
            )
        raise CommDivergence(
            f"collective fingerprint mismatch at exchange{named}"
            f" seq {self._seq}: rank {peer} digest {crc:#x} !="
            f" rank {self._rank} digest {self._digest:#x}"
            f" — ranks issued different collective sequences"
        )

    _EMPTY = np.empty(0, dtype=np.uint8)

    def step_sync(
        self, payload: np.ndarray | None = None
    ) -> list[np.ndarray] | None:
        """Step-boundary rendezvous: one digest-carrying round, which also
        all-gathers ``payload`` (the step's losses) when there is one."""
        self.note_fingerprint("step_sync", [], [])
        gathered = self.exchange(self._EMPTY if payload is None else payload)
        self.step_syncs += 1
        return None if payload is None else gathered

    # --- abort / recovery ----------------------------------------------------------
    def signal_abort(self, terminal: bool = False) -> None:
        """Flag the abort in shared memory and break peers out of waits."""
        from repro.obs.flightrec import get_flightrec  # lazy: import cycle

        fr = get_flightrec()
        if fr is not None:
            fr.record(
                "abort",
                "signal_abort",
                rank=self._rank,
                volatile=True,
                terminal=terminal,
                seq=self._seq,
                digest=self._digest,
            )
        self.session.ring.set_abort(
            self._rank, ABORT_TERMINAL if terminal else ABORT_REPLAY
        )
        self.session.barrier.abort()

    def recover_after_abort(self) -> None:
        """Rendezvous after an aborted step: epoch bump + barrier reset.

        Every rank acknowledges the target epoch; rank 0 waits for all
        acks, resets the broken barrier, clears the abort flags, then
        publishes the new epoch, which the other ranks poll for.  The
        exchange sequence restarts from 0 so the replay's chunk stream
        lines up across processes.

        The fingerprint digest also resets: ranks abort at *different*
        points of the failed step (the faulting rank mid-compute, its
        peers mid-rendezvous), so their partial-attempt digests have
        legitimately diverged — carrying them into the replay would
        flag the bit-identical replay as divergence.
        """
        ring = self.session.ring
        target = self._epoch + 1
        deadline = time.perf_counter() + self.session.timeout
        ring.ack_recovery(self._rank, target)
        if self._rank == 0:
            with stall_span("recovery_wait", owner="rank0"):
                while not ring.all_recovered(target):
                    if time.perf_counter() > deadline:
                        raise CommTimeout(
                            f"recovery rendezvous for epoch {target} timed"
                            f" out: acks {ring.abort_kinds()}"
                        )
                    time.sleep(_POLL_S)
            self.session.barrier.reset()
            ring.clear_aborts()
            ring.set_epoch(target)
        else:
            with stall_span("recovery_wait", owner=f"rank{self._rank}"):
                while ring.epoch < target:
                    if time.perf_counter() > deadline:
                        raise CommTimeout(
                            f"rank {self._rank} timed out waiting for epoch"
                            f" {target} (rank 0 never completed recovery)"
                        )
                    time.sleep(_POLL_S)
        self._epoch = target
        self._seq = 0
        self._digest = 0
        from repro.obs.flightrec import get_flightrec  # lazy: import cycle

        fr = get_flightrec()
        if fr is not None:
            fr.record(
                "retry", "recovered", rank=self._rank, volatile=True, epoch=target
            )

    def transport_stats(self) -> dict[str, float]:
        """Backend-private transport counters (for benches and reports).

        The per-step figures divide by the step-boundary rendezvous seen so
        far: exchanges, and the barrier rounds they cost (one per chunk).
        """
        steps = max(self.step_syncs, 1)
        return {
            "exchanges": self.exchanges,
            "exchange_bytes": self.exchange_bytes,
            "step_syncs": self.step_syncs,
            "barrier_waits": self.barrier_waits,
            "wait_s": self.wait_s,
            "peer_aborts_seen": self.peer_aborts_seen,
            "exchanges_per_step": self.exchanges / steps,
            "rendezvous_per_step": self.barrier_waits / steps,
        }
