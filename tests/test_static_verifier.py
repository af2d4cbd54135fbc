"""The static SPMD schedule verifier: IR, model checking, extraction.

Five layers of coverage:

* IR and builder invariants (kind validation, per-rank append rules);
* the model-checking passes over hand-built schedules — one test per
  verdict shape (clean, divergence-at-index, length mismatch, mixed
  rendezvous, chunk seq skew, REPLAY/TERMINAL abort edges, lock spans);
* symbolic extraction of the real engine — mp schedules verify clean,
  loop↔mp collective accounting agrees, nvme runs record chunk + lock
  events;
* cross-validation against the runtime failure protocol: the same
  mutation that makes ``tests/test_backend_equivalence.py``'s divergent
  worker raise ``CommDivergence`` at runtime must be flagged by the
  static verifier, and the clean matrix must be silent;
* import hygiene: the check and comm packages import in either order,
  and a production import loads none of the tooling.
"""

import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.check.static import STATIC_FINDING_KINDS, ScheduleEvent, StaticFinding
from repro.check.static.driver import run_static_check
from repro.check.static.extract import ScheduleSpec, extract_schedule
from repro.check.static.record import ScheduleRecorder, use_static_recorder
from repro.check.static.verify import (
    check_collective_matching,
    check_deadlock_freedom,
    check_lock_discipline,
    verify_schedule,
)
from repro.obs import planes
from tests.schedule_builder import ScheduleBuilder


def kinds_of(findings):
    return {f.kind for f in findings}


# --- IR and builder ----------------------------------------------------------
class TestIR:
    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule event kind"):
            ScheduleEvent("teleport")

    def test_unknown_finding_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown static finding kind"):
            StaticFinding("static-nonsense", "msg")

    def test_builder_none_rank_broadcasts(self):
        ir = ScheduleBuilder(3).collective(None, "allgather").build()
        assert ir.world == 3
        assert all(len(r.events) == 1 for r in ir.ranks)

    def test_builder_single_rank_targets_one_stream(self):
        ir = ScheduleBuilder(2).barrier(rank=1).build()
        assert [len(r.events) for r in ir.ranks] == [0, 1]

    def test_op_counts_exclude_transport_ops(self):
        b = ScheduleBuilder(1)
        b.collective(None, "allgather")
        b.collective(None, "exchange")
        b.collective(None, "step_sync")
        assert b.build().op_counts() == {"allgather": 1}

    def test_world_rank_count_must_agree(self):
        from repro.check.static.ir import ScheduleIR

        with pytest.raises(ValueError, match="rank schedules supplied"):
            ScheduleIR(world=2, ranks=())


# --- model checking ----------------------------------------------------------
class TestCollectiveMatching:
    def test_symmetric_schedule_is_clean(self):
        b = ScheduleBuilder(4)
        b.collective(None, "allgather", "float32", 64)
        b.collective(None, "reduce_scatter", "float32", 8)
        b.barrier()
        assert verify_schedule(b.build()) == []

    def test_divergence_reports_rank_and_index(self):
        b = ScheduleBuilder(2)
        b.collective(None, "allgather", "float32", 64)
        b.collective(0, "allgather", "float32", 64)
        b.collective(1, "broadcast", "float32", 64)
        (f,) = check_collective_matching(b.build())
        assert f.kind == "static-collective-divergence"
        assert (f.rank, f.index) == (1, 1)
        assert "rank 1 diverges from rank 0 at collective #1" in f.message

    def test_length_mismatch_names_the_waiting_rank(self):
        b = ScheduleBuilder(2)
        b.collective(None, "allgather", "float32", 4)
        b.collective(0, "allgather", "float32", 4)
        (f,) = check_collective_matching(b.build())
        assert f.kind == "static-collective-divergence"
        assert "waits forever" in f.message

    def test_ragged_payload_is_shape_mismatch(self):
        b = ScheduleBuilder(2)
        b.call("allgather", [("float32", 8), ("float32", 12)])
        (f,) = check_collective_matching(b.build())
        assert f.kind == "static-collective-shape-mismatch"
        assert f.index == 0


class TestDeadlockFreedom:
    def test_matched_rendezvous_are_clean(self):
        b = ScheduleBuilder(2)
        b.chunk(None, seq=0, nbytes=64)
        b.barrier()
        b.chunk(None, seq=1, nbytes=0)
        assert check_deadlock_freedom(b.build()) == []

    def test_conditional_barrier_deadlocks(self):
        b = ScheduleBuilder(2)
        b.barrier()
        b.barrier(rank=0)
        (f,) = check_deadlock_freedom(b.build())
        assert f.kind == "static-deadlock"
        assert "no matching rendezvous" in f.message

    def test_mixed_rendezvous_kinds_deadlock(self):
        b = ScheduleBuilder(2)
        b.barrier(rank=0)
        b.chunk(1, seq=0)
        (f,) = check_deadlock_freedom(b.build())
        assert f.kind == "static-deadlock"
        assert "incompatible rendezvous" in f.message

    def test_chunk_seq_skew_deadlocks(self):
        b = ScheduleBuilder(2)
        b.chunk(0, seq=0)
        b.chunk(1, seq=5)
        (f,) = check_deadlock_freedom(b.build())
        assert f.kind == "static-deadlock"
        assert "sequence numbers" in f.message

    def test_replay_abort_with_full_recovery_is_clean(self):
        b = ScheduleBuilder(2)
        b.chunk(None, seq=0)
        b.abort(0)  # REPLAY: rank 0 trips a recoverable fault
        b.chunk(1, seq=1)  # rank 1's in-flight wait is broken by the abort
        b.recover()  # ...and both ranks meet at the epoch bump
        assert check_deadlock_freedom(b.build()) == []

    def test_replay_abort_without_peer_recovery_deadlocks(self):
        b = ScheduleBuilder(2)
        b.abort(0)
        b.recover(0)  # rank 1 never acknowledges the recovery epoch
        (f,) = check_deadlock_freedom(b.build())
        assert f.kind == "static-deadlock"
        assert "never call" in f.message and "recover_after_abort" in f.message

    def test_terminal_abort_fails_fast_without_deadlock(self):
        b = ScheduleBuilder(2)
        b.chunk(None, seq=0)
        b.abort(0, terminal=True)
        b.chunk(1, seq=1)  # rank 1 would wait here, but the run tears down
        assert check_deadlock_freedom(b.build()) == []


class TestLockDiscipline:
    def test_release_before_rendezvous_is_clean(self):
        b = ScheduleBuilder(2)
        b.lock_acquire(None, "pinned-pool")
        b.collective(None, "allgather", "float32", 4)  # local: not blocking
        b.lock_release(None, "pinned-pool")
        b.barrier()
        assert check_lock_discipline(b.build()) == []

    def test_rendezvous_under_lock_is_flagged(self):
        b = ScheduleBuilder(2)
        b.lock_acquire(0, "bucket")
        b.chunk(None, seq=0)
        b.lock_release(0, "bucket")
        (f,) = check_lock_discipline(b.build())
        assert f.kind == "static-lock-rendezvous"
        assert f.rank == 0 and "bucket" in f.message


# --- the recorder seam -------------------------------------------------------
class TestRecorder:
    def test_install_and_context_manager_restore(self):
        assert planes.schedule is None
        rec = ScheduleRecorder(1)
        with use_static_recorder(rec):
            assert planes.schedule is rec
            inner = ScheduleRecorder(1)
            with use_static_recorder(inner):
                assert planes.schedule is inner
            assert planes.schedule is rec
        assert planes.schedule is None

    def test_rank_none_broadcasts_to_all_streams(self):
        rec = ScheduleRecorder(3, rank=None)
        rec.on_collective("allgather", ["float32"], [4])
        ir = rec.build_ir(mode="loop")
        assert all(len(r.events) == 1 for r in ir.ranks)

    def test_single_rank_recorder_owns_one_stream(self):
        rec = ScheduleRecorder(2, rank=1)
        rec.on_barrier()
        assert len(rec.rank_schedule(1).events) == 1
        assert len(rec.rank_schedule(0).events) == 0

    def test_events_from_worker_threads_are_dropped(self):
        # the aio engine's worker threads touch the pool; their lock spans
        # are a documented incompleteness, not part of the rank schedule
        rec = ScheduleRecorder(1)
        t = threading.Thread(target=rec.on_barrier)
        t.start()
        t.join()
        assert len(rec.rank_schedule(0).events) == 0
        rec.on_barrier()
        assert len(rec.rank_schedule(0).events) == 1


# --- symbolic extraction of the real engine ----------------------------------
class TestExtraction:
    def test_mp_schedule_verifies_clean(self):
        ir = extract_schedule(ScheduleSpec(world=2, stage=3))
        assert ir.mode == "mp" and ir.world == 2
        assert verify_schedule(ir) == []
        assert ir.ranks[0].collectives(), "extraction produced no collectives"

    def test_mp_schedule_records_chunk_and_lock_events(self):
        """One step's rendezvous, derived: a bucket flush is one exchange of
        ``ceil(fill bytes / slot capacity)`` chunks (the miniature model's
        whole bucket fits one slot, so one chunk per flush), an oversized
        gradient is an exchange of its own (none here), and the
        loss-carrying step-boundary rendezvous is one more chunk — so
        ``flush chunks + oversized + 1``, where it used to be one per
        parameter plus two.  Every chunk of a flush's exchange precedes
        that flush's ``bucket`` critical section."""
        ir = extract_schedule(ScheduleSpec(world=2, stage=3, offload="nvme"))
        events = ir.ranks[0].events
        kinds = [e.kind for e in events]
        assert "lock_acquire" in kinds, "pinned-pool span not recorded"
        flushes = [
            i for i, e in enumerate(events)
            if e.kind == "lock_acquire" and e.lock == "bucket"
        ]
        exchanges = [
            e for e in ir.ranks[0].collectives() if e.op == "exchange"
        ]
        flush_chunks = len(flushes)  # one slot-sized chunk each
        assert len(ir.ranks[0].rendezvous()) == flush_chunks + 0 + 1
        assert len(exchanges) == len(flushes) + 1
        # the flush's exchange sits right before its critical section...
        for i in flushes:
            before = [e for e in events[:i] if e.kind in ("chunk", "lock_release")]
            assert before and before[-1].kind == "chunk"
        # ...and no rendezvous at all happens inside one
        held = False
        for e in events:
            if e.lock == "bucket":
                held = e.kind == "lock_acquire"
            assert not (held and e.kind == "chunk")

    @pytest.mark.mp
    def test_chunk_events_match_real_barrier_waits(self):
        """Extraction runs the real exchange loop, so its chunk events are
        the barrier waits of a real launch.  One pass of
        ``MultiprocBackend.exchange``'s loop publishes a chunk, waits at the
        barrier once and reads the peers' chunks; an exchange of ``b``
        bytes through ``c``-byte slots takes ``max(1, ceil(b / c))`` passes
        (a zero-byte payload still takes one — the digest must travel).
        One step of the miniature stage-3 world-2 model exchanges its one
        bucket flush (3 888 float32 = 15 552 B: 4 chunks at ``c`` = 4 096)
        and the losses on the step rendezvous (one float64: 1 chunk), so
        each rank records 5 chunk events and a real ``run_multiproc`` step
        at the same capacity waits at the barrier 5 times per rank."""
        from repro.comm import run_multiproc
        from repro.check.static.extract import SymbolicBackend, _run_one_step

        spec, cap = ScheduleSpec(world=2, stage=3), 4096
        recs = [ScheduleRecorder(2, rank=r) for r in range(2)]
        for rank, rec in enumerate(recs):
            _run_one_step(spec, SymbolicBackend(2, rank, rec, slot_capacity=cap), rec)
        for rank, rec in enumerate(recs):
            sched = rec.rank_schedule(rank)
            sizes = [
                int(e.payload[0][1]) * np.dtype(e.payload[0][0]).itemsize
                for e in sched.collectives()
                if e.op == "exchange"
            ]
            assert sizes[0] > cap, "the flush must take more than one chunk"
            chunks = [e for e in sched.events if e.kind == "chunk"]
            assert len(chunks) == sum(max(1, -(-b // cap)) for b in sizes) == 5
            assert [e.seq for e in chunks] == list(range(5))

        def one_step(backend):
            rec = ScheduleRecorder(2, rank=backend.rank)
            _run_one_step(spec, backend, rec)
            return backend.transport_stats()["barrier_waits"]

        out = run_multiproc(2, one_step, slot_capacity=cap, timeout=60.0)
        assert out.results == [5, 5]

    def test_each_collective_is_signed_once(self, monkeypatch):
        """A rank process signs each collective it issues once: the digest
        and the turn journal share that signature, and echoing a peer's
        turn folds journaled signatures without signing again.  So over one
        symbolic step per rank, signatures computed plus journal entries
        echoed are exactly the facade collectives the endpoints recorded."""
        from repro.comm import group as group_mod

        signed, echoed = [0], [0]
        sign, echo = group_mod._signature, group_mod.ProcessGroup.echo_turns

        def counting_sign(payloads):
            signed[0] += 1
            return sign(payloads)

        def counting_echo(self, journal, count):
            echoed[0] += len(journal) * count
            return echo(self, journal, count)

        monkeypatch.setattr(group_mod, "_signature", counting_sign)
        monkeypatch.setattr(group_mod.ProcessGroup, "echo_turns", counting_echo)
        ir = extract_schedule(ScheduleSpec(world=2, stage=3))
        recorded = sum(sum(ir.op_counts(r).values()) for r in range(ir.world))
        assert echoed[0] > 0, "stage 3 echoes the peer's gathers"
        assert signed[0] + echoed[0] == recorded

    def test_loop_and_mp_collective_accounting_agree(self):
        loop_ir, mp_ir = (
            extract_schedule(ScheduleSpec(world=2, stage=3, backend=backend))
            for backend in ("loop", "mp")
        )
        assert loop_ir.op_counts() == mp_ir.op_counts()

    @pytest.mark.parametrize("stage", [2, 3])
    def test_single_rank_world_verifies_clean(self, stage):
        ir = extract_schedule(ScheduleSpec(world=1, stage=stage))
        assert verify_schedule(ir) == []

    def test_extraction_leaves_no_recorder_installed(self):
        extract_schedule(ScheduleSpec(world=1, stage=3))
        assert planes.schedule is None


# --- cross-validation with the runtime failure protocol ----------------------
class TestCrossValidation:
    def test_divergent_worker_mutation_is_flagged_statically(self):
        # the exact mutation tests/test_backend_equivalence.py injects to
        # make the runtime transport raise CommDivergence: rank 1 folds an
        # extra allgather fingerprint before the step
        def mutate(backend, rank):
            if rank == 1:
                backend.note_fingerprint("allgather", ["float32"], [16])

        ir = extract_schedule(ScheduleSpec(world=2, stage=3), mutate=mutate)
        findings = verify_schedule(ir)
        assert "static-collective-divergence" in kinds_of(findings)
        diverge = next(
            f for f in findings if f.kind == "static-collective-divergence"
        )
        assert diverge.rank == 1 and diverge.index == 0

    def test_world4_divergent_rank_is_attributed(self):
        def mutate(backend, rank):
            if rank == 3:
                backend.note_fingerprint("broadcast", ["float32"], [8])

        ir = extract_schedule(ScheduleSpec(world=4, stage=2), mutate=mutate)
        findings = verify_schedule(ir)
        assert any(
            f.kind == "static-collective-divergence" and f.rank == 3
            for f in findings
        )

    @pytest.mark.parametrize("stage", [2, 3])
    @pytest.mark.parametrize("world", [2, 4])
    def test_clean_matrix_is_silent(self, stage, world):
        ir = extract_schedule(ScheduleSpec(world=world, stage=stage))
        assert verify_schedule(ir) == []


# --- the driver --------------------------------------------------------------
class TestDriver:
    def test_small_matrix_report_proves_and_renders(self):
        matrix = [
            ScheduleSpec(world=2, stage=3, backend="loop"),
            ScheduleSpec(world=2, stage=3, backend="mp"),
        ]
        report = run_static_check(matrix, lint=False)
        assert report.ok
        assert len(report.verdicts) == 2
        rendered = report.render()
        assert "Static SPMD schedule verification" in rendered
        assert "proved" in rendered
        assert report.wall_s > 0

    def test_finding_kinds_stay_in_the_static_namespace(self):
        b = ScheduleBuilder(2)
        b.collective(0, "allgather", "float32", 4)
        b.collective(1, "broadcast", "float32", 4)
        b.barrier(rank=0)
        for f in verify_schedule(b.build()):
            assert f.kind in STATIC_FINDING_KINDS


# --- import hygiene ----------------------------------------------------------
@pytest.mark.parametrize(
    "order",
    ["import repro.check; import repro.comm", "import repro.comm; import repro.check"],
    ids=["check-first", "comm-first"],
)
def test_import_order_has_no_cycle(order):
    proc = subprocess.run(
        [sys.executable, "-c", order],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


#: Tools, analyses and reports no training step uses: a production import
#: (``import repro.core``) must load none of them.
OFF_THE_STEP = (
    "repro.analytics",
    "repro.check.lint",
    "repro.check.static.extract",
    "repro.check.static.driver",
    "repro.check.static.verify",
    "repro.obs.memreport",
    "repro.obs.perfreport",
    "repro.sim",
    "repro.baselines",
    "repro.cli",
)


def test_production_import_loads_no_tooling():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.core; print('\\n'.join(sorted(sys.modules)))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = [
        name
        for name in proc.stdout.split()
        if any(name == m or name.startswith(m + ".") for m in OFF_THE_STEP)
    ]
    assert loaded == []
