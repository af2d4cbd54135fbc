"""Cross-rank model checking over the schedule IR.

Three passes, mirroring the guarantees the runtime transport enforces
dynamically — but decided before a rank process ever launches:

* :func:`check_collective_matching` — every rank must issue the same
  collective stream (op, dtypes, element counts, order): the stream the
  mp transport's digest hashes, whose mismatch it reports as
  ``CommDivergence`` at the next rendezvous.  A rank whose stream
  differs from rank 0's is reported with the divergence *index*; a
  single call whose per-rank payloads disagree is a shape mismatch (the
  call the functional collectives refuse at runtime).
* :func:`check_deadlock_freedom` — a lockstep traversal of the
  happens-before graph induced by program order plus the rendezvous
  cliques (barriers, shm ring chunk turns, recovery epoch bumps).  An
  ``abort`` event is the release edge of the failure protocol: a
  TERMINAL abort tears the whole run down (peers fail fast instead of
  blocking), a REPLAY abort unwinds every rank to its next ``recover``
  rendezvous.  A rank left waiting at a rendezvous no peer will ever
  reach is a deadlock.
* :func:`check_lock_discipline` — no blocking rendezvous may occur
  while a rank holds the pinned-pool or gradient-bucket lock; a peer
  stalled on that rank's lock would never reach the rendezvous, turning
  a local lock into a global hang.

All passes are pure functions of the IR — no engine, no processes.
"""

from __future__ import annotations

from repro.check.static.ir import (
    RENDEZVOUS_KINDS,
    ScheduleEvent,
    ScheduleIR,
    StaticFinding,
)


def verify_schedule(ir: ScheduleIR) -> list[StaticFinding]:
    """Run every static pass; returns the combined findings."""
    findings = check_collective_matching(ir)
    findings += check_deadlock_freedom(ir)
    findings += check_lock_discipline(ir)
    return findings


# --- collective matching -----------------------------------------------------
def _payload_mismatch(event: ScheduleEvent) -> bool:
    """One call whose per-rank payloads disagree (ragged collective)."""
    return len(set(event.payload)) > 1


def check_collective_matching(ir: ScheduleIR) -> list[StaticFinding]:
    findings: list[StaticFinding] = []
    streams = [sched.collectives() for sched in ir.ranks]

    # within-call payload agreement (the functional collectives' ValueError)
    seen: set[tuple[int, tuple]] = set()
    for rank, stream in enumerate(streams):
        for i, event in enumerate(stream):
            if not _payload_mismatch(event):
                continue
            key = (i, event.payload)
            if key in seen:
                continue  # loop mode replicates the event to every rank
            seen.add(key)
            findings.append(
                StaticFinding(
                    "static-collective-shape-mismatch",
                    f"collective #{i} ({event.op}) carries mismatched"
                    f" per-rank payloads: {event.describe()}",
                    rank=rank,
                    index=i,
                    details={"op": event.op, "payload": event.payload},
                )
            )

    reference = streams[0]
    for rank in range(1, ir.world):
        stream = streams[rank]
        for i, (want, got) in enumerate(zip(reference, stream)):
            if want == got:
                continue
            findings.append(
                StaticFinding(
                    "static-collective-divergence",
                    f"rank {rank} diverges from rank 0 at collective #{i}:"
                    f" rank 0 issues {want.describe()}, rank {rank} issues"
                    f" {got.describe()} — the transport digests disagree"
                    " and the next exchange refuses delivery",
                    rank=rank,
                    index=i,
                    details={"expected": want.describe(), "got": got.describe()},
                )
            )
            break
        else:
            if len(stream) != len(reference):
                short, long_ = sorted(
                    (0, rank), key=lambda r: len(streams[r])
                )
                findings.append(
                    StaticFinding(
                        "static-collective-divergence",
                        f"rank 0 issues {len(reference)} collectives but"
                        f" rank {rank} issues {len(stream)}; rank {long_}"
                        f" waits forever at collective"
                        f" #{len(streams[short])}",
                        rank=rank,
                        index=min(len(reference), len(stream)),
                        details={
                            "rank0_count": len(reference),
                            "rank_count": len(stream),
                        },
                    )
                )
    return findings


# --- deadlock freedom --------------------------------------------------------
def _sync_stream(sched) -> list[ScheduleEvent]:
    return [
        e
        for e in sched.events
        if e.kind in RENDEZVOUS_KINDS or e.kind == "abort"
    ]


def check_deadlock_freedom(ir: ScheduleIR) -> list[StaticFinding]:
    """Lockstep traversal of the rendezvous happens-before graph.

    Each iteration either completes one rendezvous clique (all ranks at
    compatible events), follows an abort release edge, or proves that
    some rank is blocked forever.  Every step advances at least one
    pointer, so the traversal terminates.
    """
    findings: list[StaticFinding] = []
    streams = [_sync_stream(sched) for sched in ir.ranks]
    pos = [0] * ir.world

    def head(r: int) -> ScheduleEvent | None:
        return streams[r][pos[r]] if pos[r] < len(streams[r]) else None

    while True:
        heads = [head(r) for r in range(ir.world)]
        if all(h is None for h in heads):
            return findings

        aborters = [
            r for r, h in enumerate(heads) if h is not None and h.kind == "abort"
        ]
        if aborters:
            terminal = any(heads[r].terminal for r in aborters)
            for r in aborters:
                pos[r] += 1
            if terminal:
                # TERMINAL: peers observe the flag and fail fast — no
                # rendezvous after this point blocks, so nothing later
                # can deadlock.  (The launcher surfaces MpWorkerFailed.)
                return findings
            # REPLAY: the abort breaks every in-flight wait; each rank
            # unwinds (raising through its pending rendezvous) until it
            # reaches the recovery epoch-bump.
            for r in range(ir.world):
                while pos[r] < len(streams[r]) and streams[r][pos[r]].kind not in (
                    "recover",
                    "abort",
                ):
                    pos[r] += 1
            waiting = [
                r
                for r in range(ir.world)
                if pos[r] < len(streams[r])
                and streams[r][pos[r]].kind == "recover"
            ]
            missing = [
                r for r in range(ir.world) if pos[r] >= len(streams[r])
            ]
            if waiting and missing:
                findings.append(
                    StaticFinding(
                        "static-deadlock",
                        f"after a REPLAY abort, rank(s) {waiting} rendezvous"
                        f" for recovery but rank(s) {missing} never call"
                        " recover_after_abort — the epoch bump never"
                        " completes",
                        rank=waiting[0],
                        index=pos[waiting[0]],
                    )
                )
                return findings
            for r in waiting:
                pos[r] += 1
            continue

        if all(h is not None for h in heads):
            kinds = {h.kind for h in heads}
            if len(kinds) > 1:
                desc = ", ".join(
                    f"rank {r} at {h.describe()}" for r, h in enumerate(heads)
                )
                findings.append(
                    StaticFinding(
                        "static-deadlock",
                        f"ranks wait at incompatible rendezvous: {desc}",
                        index=pos[0],
                    )
                )
                return findings
            if kinds == {"chunk"}:
                seqs = {h.seq for h in heads}
                if len(seqs) > 1:
                    findings.append(
                        StaticFinding(
                            "static-deadlock",
                            "ranks rendezvous on different shm ring chunk"
                            f" sequence numbers: {sorted(seqs)} — the slot"
                            " headers disagree and every rank times out",
                            index=pos[0],
                        )
                    )
                    return findings
            for r in range(ir.world):
                pos[r] += 1
            continue

        # some ranks exhausted their schedule while others still wait
        blocked = [r for r, h in enumerate(heads) if h is not None]
        done = [r for r, h in enumerate(heads) if h is None]
        r = blocked[0]
        findings.append(
            StaticFinding(
                "static-deadlock",
                f"rank {r} blocks at rendezvous #{pos[r]}"
                f" ({heads[r].describe()}) but rank(s) {done} issue no"
                " matching rendezvous — the wait never completes",
                rank=r,
                index=pos[r],
            )
        )
        return findings


# --- lock discipline ---------------------------------------------------------
def check_lock_discipline(ir: ScheduleIR) -> list[StaticFinding]:
    findings: list[StaticFinding] = []
    for sched in ir.ranks:
        held: list[str] = []
        for i, event in enumerate(sched.events):
            if event.kind == "lock_acquire":
                held.append(event.lock)
            elif event.kind == "lock_release":
                if event.lock in held:
                    held.remove(event.lock)
            elif event.kind in RENDEZVOUS_KINDS and held:
                findings.append(
                    StaticFinding(
                        "static-lock-rendezvous",
                        f"rank {sched.rank} blocks at {event.describe()}"
                        f" while holding lock(s) {held}: a peer stalled on"
                        " that lock can never reach the rendezvous",
                        rank=sched.rank,
                        index=i,
                        details={"locks": list(held)},
                    )
                )
    return findings
