"""Typed per-rank schedule IR for the static SPMD verifier.

A :class:`ScheduleIR` is what the symbolic dry-run interpreter
(:mod:`repro.check.static.extract`) emits and what the model checker
(:mod:`repro.check.static.verify`) consumes: for every rank, the ordered
list of *schedule events* its one training step would issue —
collectives, shm ring chunk rendezvous, barriers, lock spans, and the
abort/recover edges of the failure protocol.

The IR is deliberately tiny and value-free: an event records *what* a
rank communicates (op, dtypes, element counts, chunk sequence numbers),
never the data itself.  Two ranks with equal event streams are
guaranteed to agree on every fingerprint the runtime transport would
hash, so static matching over the IR predicts the runtime
``CommDivergence`` verdicts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Every kind a ScheduleEvent may carry.
EVENT_KINDS = (
    "collective",  # facade/backend fingerprint: op + per-rank (dtype, numel)
    "barrier",  # explicit synchronization point (loop mode, corpus)
    "chunk",  # one shm ring slot rendezvous (seq, nbytes)
    "lock_acquire",  # enter a named critical section
    "lock_release",  # leave it
    "abort",  # signal_abort: REPLAY (terminal=False) or TERMINAL
    "recover",  # recover_after_abort: the epoch-bump rendezvous
)

#: Event kinds on which a rank *blocks* until every peer arrives.
RENDEZVOUS_KINDS = ("barrier", "chunk", "recover")

#: Finding kinds the static verifier can report (disjoint from the
#: runtime ``VIOLATION_KINDS`` namespace on purpose: a static finding is
#: a prediction about execution, not an observation of one).
STATIC_FINDING_KINDS = (
    "static-collective-divergence",
    "static-collective-shape-mismatch",
    "static-deadlock",
    "static-lock-rendezvous",
)


@dataclass(frozen=True)
class ScheduleEvent:
    """One schedule action a rank performs, in program order."""

    kind: str
    op: str = ""  # collective op name ("allgather", "exchange", ...)
    payload: tuple = ()  # ((dtype, numel), ...) as the call saw it
    seq: int = -1  # chunk sequence number (kind "chunk")
    nbytes: int = 0  # chunk payload bytes (kind "chunk")
    lock: str = ""  # lock name (lock_acquire / lock_release)
    terminal: bool = False  # abort tier (kind "abort")

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown schedule event kind {self.kind!r};"
                f" expected one of {EVENT_KINDS}"
            )

    def describe(self) -> str:
        """Human-readable one-liner, mirroring the runtime fingerprints."""
        if self.kind == "collective":
            body = ", ".join(f"{d} x{n}" for d, n in self.payload) or "-"
            return f"{self.op}[{body}]"
        if self.kind == "chunk":
            return f"chunk[seq={self.seq}, {self.nbytes}B]"
        if self.kind == "barrier":
            return "barrier"
        if self.kind in ("lock_acquire", "lock_release"):
            verb = "acquire" if self.kind == "lock_acquire" else "release"
            return f"{verb}({self.lock})"
        if self.kind == "abort":
            return f"abort[{'TERMINAL' if self.terminal else 'REPLAY'}]"
        return "recover"


@dataclass(frozen=True)
class RankSchedule:
    """The ordered event stream one rank would execute."""

    rank: int
    events: tuple[ScheduleEvent, ...]

    def collectives(self) -> list[ScheduleEvent]:
        return [e for e in self.events if e.kind == "collective"]

    def rendezvous(self) -> list[ScheduleEvent]:
        return [e for e in self.events if e.kind in RENDEZVOUS_KINDS]


@dataclass(frozen=True)
class ScheduleIR:
    """Per-rank schedules for one configuration, ready to verify."""

    world: int
    ranks: tuple[RankSchedule, ...]
    mode: str = "mp"  # "loop" | "mp"
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.ranks) != self.world:
            raise ValueError(
                f"ScheduleIR world={self.world} but {len(self.ranks)}"
                " rank schedules supplied"
            )

    def op_counts(self, rank: int = 0) -> dict[str, int]:
        """Facade-collective call counts (transport ops excluded)."""
        counts: dict[str, int] = {}
        for e in self.ranks[rank].collectives():
            if e.op in ("exchange", "step_sync"):
                continue
            counts[e.op] = counts.get(e.op, 0) + 1
        return counts


@dataclass
class StaticFinding:
    """One defect the static verifier predicts, pre-execution."""

    kind: str
    message: str
    rank: int | None = None
    index: int | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in STATIC_FINDING_KINDS:
            raise ValueError(
                f"unknown static finding kind {self.kind!r};"
                f" expected one of {STATIC_FINDING_KINDS}"
            )

    def format(self) -> str:
        where = "" if self.rank is None else f" [rank {self.rank}]"
        return f"{self.kind}{where}: {self.message}"
