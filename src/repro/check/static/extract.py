"""Schedule extraction: a symbolic dry-run of one training step per rank.

The extractor runs the *real* engine — coordinator, partitioner, bucket
store, offload path — over backends that record instead of moving bytes
between processes.

mp mode drives a :class:`SymbolicBackend`: the real
:class:`~repro.comm.mp_backend.MultiprocBackend` (its exchange chunk
loop, ``step_sync``, abort and recovery) over a recording stand-in for
the session's shm ring and barrier.  The endpoint presents itself as a
non-local single-rank endpoint, so the engine takes its genuine
distributed code path: one local rank turn, accounting echoes for the
peers, one gradient exchange per bucket flush, and the loss-carrying
step-boundary rendezvous.  Then

* every signature the endpoint folds into its digest is a
  ``collective`` schedule event — the exact stream the runtime CRC
  digest hashes, including the ``exchange``/``step_sync`` transport ops;
* every chunk the exchange loop publishes is a ``chunk`` rendezvous
  event, numbered as the ring header would number it;
* a peer's slot reads back this rank's own chunk, so every header check
  passes and the peers' payloads are copies of the local one.  With
  ``loss_scale=1.0`` the engine's control flow is a function of shapes
  and ordering only, so the synthetic values cannot perturb the
  schedule (the loop↔mp parity check in the driver guards this
  assumption);
* an abort flag and a recovery acknowledgement are the ``abort`` and
  ``recover`` edges of the failure protocol.

Loop mode drives a :class:`RecordingLoopBackend`, which records the
signatures and barriers the process group hands it.  In both modes the
bucket and pinned-pool critical sections come from the recorder installed
as the ``schedule`` plane
(:func:`~repro.check.static.record.use_static_recorder`).

Heavy imports (engine, workloads) stay function-local so importing
``repro.check`` never drags the full stack in.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

from repro.comm.backend import CommBackend, LoopBackend
from repro.comm.mp_backend import MultiprocBackend
from repro.comm.shm import ABORT_TERMINAL, DEFAULT_SLOT_CAPACITY
from repro.check.static.ir import ScheduleIR
from repro.check.static.record import ScheduleRecorder, use_static_recorder


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


class RecordingLoopBackend(LoopBackend):
    """The loop backend, recording the signatures and barriers it is handed."""

    name = "loop-recording"
    folds_signatures = True

    def __init__(self, world_size: int, recorder: ScheduleRecorder) -> None:
        super().__init__(world_size)
        self._recorder = recorder

    def note_fingerprint(self, op, dtypes, numels) -> None:
        super().note_fingerprint(op, dtypes, numels)
        self._recorder.on_collective(op, list(dtypes), list(numels))

    def step_sync(self, payload=None):
        self._recorder.on_barrier()


class _RecordingRing:
    """Stands in for a session's shm ring *and* its barrier.

    One rank's view, with no peer behind it: a publish records a
    ``chunk`` event and every slot reads back that chunk, the barrier
    never waits, and abort flags / recovery acks record the failure
    protocol's edges.
    """

    def __init__(self, recorder: ScheduleRecorder, slot_capacity: int) -> None:
        self.slot_capacity = int(slot_capacity)
        self.epoch = 0
        self._recorder = recorder
        self._chunks: list = [None, None]  # per ring buffer: (header, data)

    # --- ring -------------------------------------------------------------
    def publish(self, buf, rank, *, seq, crc, total, data) -> None:
        n = 0 if data is None else int(data.nbytes)
        self._recorder.on_chunk(seq=seq, nbytes=n)
        self._chunks[buf] = ((seq, crc, n, total), data)

    def read_header(self, buf, rank):
        return self._chunks[buf][0]

    def read_data(self, buf, rank, out) -> None:
        out[:] = self._chunks[buf][1]

    def set_abort(self, rank, kind) -> None:
        self._recorder.on_abort(terminal=kind == ABORT_TERMINAL)

    def ack_recovery(self, rank, target_epoch) -> None:
        self._recorder.on_recover()
        self.epoch = target_epoch

    def all_recovered(self, target_epoch) -> bool:
        return True

    def set_epoch(self, epoch) -> None:
        self.epoch = epoch

    def _no_peer(self, *args, **kwargs) -> None:
        """A flag reset or barrier call: nothing to tell, nobody to wait for."""

    clear_aborts = wait = abort = reset = _no_peer


class SymbolicBackend(MultiprocBackend):
    """The real mp rank endpoint over a recording stand-in ring and barrier.

    See the module docs.  List collectives stay the loop backend's pure
    functions (the engine holds replicated state, exactly like a real mp
    rank process).
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
        ring = _RecordingRing(recorder, slot_capacity)
        session = SimpleNamespace(
            world_size=world_size, ring=ring, barrier=ring, timeout=0.0
        )
        super().__init__(session, rank)
        self._recorder = recorder

    def note_fingerprint(self, op, dtypes, numels) -> None:
        super().note_fingerprint(op, dtypes, numels)
        self._recorder.on_collective(op, list(dtypes), list(numels))


MutateHook = Callable[[CommBackend, int], None]


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
        backend = RecordingLoopBackend(spec.world, rec)
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
