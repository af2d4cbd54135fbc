"""Schedule extraction: a symbolic dry-run of one training step per rank.

The extractor runs the *real* engine — coordinator, partitioner, bucket
store, offload path — against a :class:`SymbolicBackend` that moves no
bytes between processes.  The backend presents itself as a non-local
(``all_local=False``) single-rank endpoint, so the engine takes its
genuine distributed code path: one local rank turn, accounting echoes
for the peers, one gradient exchange per bucket flush, and the
loss-carrying step-boundary rendezvous.  Instead of touching a shared
ring, the backend

* records every fingerprint fold (``note_fingerprint``) as a
  ``collective`` schedule event — the exact stream the runtime CRC
  digest hashes, including the ``exchange``/``step_sync`` transport ops;
* models the shm ring chunking arithmetic of
  :meth:`repro.comm.mp_backend.MultiprocBackend.exchange` — one
  ``chunk`` rendezvous event per slot-capacity chunk, a zero-byte
  payload costing exactly one chunk — without publishing anything;
* synthesizes peer payloads as copies of the local one (written into the
  peers' arrays for the ``out=`` form).  With
  ``loss_scale=1.0`` the engine's control flow is a function of shapes
  and ordering only, so the synthetic values cannot perturb the
  schedule (the loop↔mp parity check in the driver guards this
  assumption).

Loop-mode extraction needs no special backend at all: the recorder
hooks in :class:`~repro.comm.group.ProcessGroup` capture the facade
stream of an ordinary in-process run.

Heavy imports (engine, workloads) stay function-local so importing
``repro.check`` never drags the full stack in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.comm.backend import LoopBackend
from repro.check.static.ir import ScheduleIR
from repro.check.static.record import ScheduleRecorder, use_static_recorder

#: Default shm ring slot capacity mirrored by the symbolic chunk model
#: (must match ``repro.comm.launcher``'s ring construction).
DEFAULT_SLOT_CAPACITY = 1 << 20


@dataclass(frozen=True)
class ScheduleSpec:
    """One extraction configuration (a miniature train-demo workload)."""

    world: int = 2
    stage: int = 3
    backend: str = "mp"  # "loop" | "mp"
    offload: str = "nvme"  # train-demo default
    hidden: int = 16
    layers: int = 1
    seq: int = 4
    bsz_per_rank: int = 1
    vocab: int = 32

    def label(self) -> str:
        return f"stage{self.stage}-w{self.world}-{self.backend}"


class SymbolicBackend(LoopBackend):
    """A shape-only stand-in for one mp rank endpoint.

    List collectives stay the loop backend's pure functions (the engine
    holds replicated state, exactly like a real mp rank process); the
    cross-process primitives record schedule events instead of touching
    shared memory.
    """

    name = "symbolic"

    def __init__(
        self,
        world_size: int,
        rank: int,
        recorder: ScheduleRecorder,
        *,
        slot_capacity: int = DEFAULT_SLOT_CAPACITY,
    ) -> None:
        super().__init__(world_size)
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world {world_size}")
        self._rank = rank
        self._recorder = recorder
        self.slot_capacity = int(slot_capacity)
        self._seq = 0

    # --- locality: present as one non-local rank endpoint -----------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def all_local(self) -> bool:
        return False

    def is_local(self, rank: int) -> bool:
        return rank == self._rank

    # --- recording seams --------------------------------------------------
    def note_fingerprint(self, op, dtypes, numels) -> None:
        super().note_fingerprint(op, dtypes, numels)
        self._recorder.on_collective(op, list(dtypes), list(numels))

    def exchange(self, payload=None, *, out=None, **what) -> list[np.ndarray]:
        if out is None:
            arr = np.ascontiguousarray(payload)
            out = [
                arr if r == self._rank else arr.copy()
                for r in range(self.world_size)
            ]
        else:
            for r, o in enumerate(out):
                if r != self._rank:
                    o[...] = out[self._rank]
        flat = out[self._rank].reshape(-1)
        nbytes = int(flat.nbytes)
        self.note_fingerprint("exchange", [str(flat.dtype)], [int(flat.size)])
        sent = 0
        while True:  # same loop shape as MultiprocBackend.exchange:
            n = min(self.slot_capacity, nbytes - sent)  # zero bytes = 1 chunk
            self._recorder.on_chunk(seq=self._seq, nbytes=n)
            self._seq += 1
            sent += n
            if sent >= nbytes:
                break
        return list(out)

    _EMPTY = np.empty(0, dtype=np.uint8)

    def step_sync(self, payload=None):
        self.note_fingerprint("step_sync", [], [])
        gathered = self.exchange(self._EMPTY if payload is None else payload)
        return None if payload is None else gathered

    def signal_abort(self, terminal: bool = False) -> None:
        self._recorder.on_abort(terminal=terminal)

    def recover_after_abort(self) -> None:
        # mirrors the real recovery: seq and digest restart for the replay
        self._recorder.on_recover()
        self._seq = 0
        self._digest = 0


MutateHook = Callable[[LoopBackend, int], None]


def _run_one_step(spec: ScheduleSpec, backend, rec: ScheduleRecorder) -> None:
    from repro.workloads import MarkovCorpus, per_rank_batches
    from repro.workloads.calibrate import CalibSpec, build_engine

    cspec = CalibSpec(
        world=spec.world,
        steps=1,
        stage=spec.stage,
        offload=spec.offload,
        hidden=spec.hidden,
        layers=spec.layers,
        seq=spec.seq,
        bsz_per_rank=spec.bsz_per_rank,
        vocab=spec.vocab,
    )
    with use_static_recorder(rec):
        with build_engine(cspec, comm_backend=backend) as engine:
            data = per_rank_batches(
                MarkovCorpus(spec.vocab, seed=1),
                world_size=spec.world,
                bsz_per_rank=spec.bsz_per_rank,
                seq=spec.seq,
                seed=2,
            )
            engine.train_step(next(data))


def extract_schedule(
    spec: ScheduleSpec, *, mutate: Optional[MutateHook] = None
) -> ScheduleIR:
    """Dry-run ``spec`` and return the per-rank schedule IR.

    ``mutate(backend, rank)`` runs once per rank before its step — the
    fault-injection seam the cross-validation tests use to reproduce the
    runtime failure-protocol defects statically (e.g. an extra
    ``note_fingerprint`` on one rank, mirroring the divergent worker in
    ``tests/test_backend_equivalence.py``).
    """
    if spec.backend == "loop":
        rec = ScheduleRecorder(spec.world, rank=None)
        backend = LoopBackend(spec.world)
        if mutate is not None:
            mutate(backend, 0)
        _run_one_step(spec, backend, rec)
        return rec.build_ir(mode="loop", label=spec.label())
    if spec.backend != "mp":
        raise ValueError(f"unknown schedule backend {spec.backend!r}")

    schedules = []
    for rank in range(spec.world):
        rec = ScheduleRecorder(spec.world, rank=rank)
        backend = SymbolicBackend(spec.world, rank, rec)
        if mutate is not None:
            mutate(backend, rank)
        _run_one_step(spec, backend, rec)
        schedules.append(rec.rank_schedule(rank))
    return ScheduleIR(
        world=spec.world,
        ranks=tuple(schedules),
        mode="mp",
        label=spec.label(),
    )


def extract_pair(spec: ScheduleSpec) -> tuple[ScheduleIR, ScheduleIR]:
    """(loop, mp) IRs for the same workload — the parity-check input."""
    return (
        extract_schedule(replace(spec, backend="loop")),
        extract_schedule(replace(spec, backend="mp")),
    )
