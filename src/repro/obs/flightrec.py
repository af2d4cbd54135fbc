"""Crash flight recorder: bounded per-rank event rings + postmortem bundles.

The recorder keeps the last ``capacity`` events per key (one ring per rank
plus one run-level ring) in memory.  Events come in two flavours:

* **canonical** — deterministic facts of the schedule: fault injections
  (``kind="fault"``), phase boundaries (``kind="phase"``) and comm
  fingerprints (``kind="comm"``).  They are stamped with the *virtual*
  clock only, so for a fixed fault seed the canonical tail of rank *r* is
  byte-identical whether the run executed on the in-process loop backend
  or on ``MultiprocBackend`` worker processes.
* **volatile** — everything wall-clock or load dependent: health
  transitions, telemetry samples, step retries, abort notes.  These are
  dumped into ``state.json`` and never participate in byte comparisons.

``dump_postmortem`` writes a self-contained bundle directory::

    manifest.json            reason, world size, ranks present, schema
    events.rank{r}.json      canonical per-rank tail + run-level tail
    state.json               volatile events + last-known per-rank state
    trace_tail.json          Chrome-trace events of the last N spans
    trace_tail.rank{r}.json  (per-rank form, used by mp workers)

The installed recorder is the ``flightrec`` plane of
:mod:`repro.obs.planes`: ``None`` unless a recorder was installed, so the
disabled fast path is one attribute load + ``is None`` check.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import ContextManager, Optional

from repro.faults.clock import virtual_clock
from repro.obs import planes

FLIGHTREC_SCHEMA_VERSION = 1

#: Event kinds whose per-rank tails are deterministic across backends.
CANONICAL_KINDS = ("fault", "phase", "comm")

#: Key used for events that belong to the run rather than a single rank.
RUN_KEY = "run"

@dataclass
class FlightEvent:
    """One recorded event.  ``vclock_us`` is deterministic; ``wall_us`` is not."""

    kind: str
    name: str
    rank: Optional[int]
    vclock_us: int
    args: dict = field(default_factory=dict)
    wall_us: float = 0.0
    volatile: bool = False

    def canonical_doc(self) -> dict:
        doc = {
            "kind": self.kind,
            "name": self.name,
            "vclock_us": self.vclock_us,
        }
        if self.args:
            doc["args"] = {k: self.args[k] for k in sorted(self.args)}
        return doc

    def volatile_doc(self) -> dict:
        doc = self.canonical_doc()
        doc["rank"] = self.rank
        doc["wall_us"] = round(self.wall_us, 1)
        return doc


def canonical_json(obj) -> bytes:
    """Stable byte encoding used for every byte-compared artifact."""

    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("ascii")


class FlightRecorder:
    """Bounded per-key event rings (one per rank, one for the run)."""

    def __init__(self, *, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._rings: dict[object, deque[FlightEvent]] = {}
        self._last_state: dict[int, dict] = {}
        self.op_count = 0  # record() invocations (overhead modeling)
        # Stamps are relative to the recorder's birth: the process-global
        # virtual clock accumulates across fault planes, but a bundle must
        # be byte-identical for the same schedule regardless of what ran
        # earlier in the process (and mp workers are always born at 0).
        self._vclock_origin = virtual_clock().now_us()

    # ------------------------------------------------------------------ record

    def record(
        self,
        kind: str,
        name: str,
        *,
        rank: Optional[int] = None,
        volatile: bool = False,
        **args,
    ) -> None:
        """Append an event to the ring of ``rank`` (or the run ring).

        Canonical kinds (``fault``/``phase``/``comm``) must not be marked
        volatile and vice versa — mixing them would break the determinism
        contract of :meth:`canonical_tail`.
        """

        self.op_count += 1
        if (kind in CANONICAL_KINDS) == volatile:
            raise ValueError(
                f"kind {kind!r} is {'canonical' if not volatile else 'volatile'};"
                " volatile flag mismatch"
            )
        ev = FlightEvent(
            kind=kind,
            name=name,
            rank=rank,
            vclock_us=virtual_clock().now_us() - self._vclock_origin,
            args=args,
            wall_us=time.perf_counter_ns() / 1e3,
            volatile=volatile,
        )
        key: object = RUN_KEY if rank is None else int(rank)
        ring = self._rings.get(key)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[key] = ring
        ring.append(ev)
        if rank is not None and kind == "phase":
            st = self._last_state.setdefault(int(rank), {})
            st["phase"] = name
            st.update({k: v for k, v in args.items() if k in ("step", "round")})

    def note_state(self, rank: int, **fields) -> None:
        """Merge volatile last-known-state fields for ``rank``."""

        self._last_state.setdefault(int(rank), {}).update(fields)

    # ------------------------------------------------------------------- views

    def events(self, key: object = RUN_KEY) -> list[FlightEvent]:
        return list(self._rings.get(key, ()))

    def ranks(self) -> list[int]:
        return sorted(k for k in self._rings if isinstance(k, int))

    def canonical_tail(self, rank: Optional[int]) -> list[dict]:
        """Deterministic tail for ``rank`` (or the run ring when ``None``).

        Positions are renumbered from 0 at dump time because absolute
        sequence numbers differ between the loop backend (one process
        records every rank) and mp workers (each process records its own
        rank only).
        """

        key: object = RUN_KEY if rank is None else int(rank)
        tail = [ev for ev in self._rings.get(key, ()) if not ev.volatile]
        docs = []
        for pos, ev in enumerate(tail):
            doc = ev.canonical_doc()
            doc["pos"] = pos
            docs.append(doc)
        return docs

    def rank_bundle_doc(self, rank: int) -> dict:
        """The byte-compared per-rank document (``events.rank{r}.json``)."""

        return {
            "schema": FLIGHTREC_SCHEMA_VERSION,
            "rank": int(rank),
            "events": self.canonical_tail(rank),
            "run": self.canonical_tail(None),
        }

    def state_doc(self, reason: str, *, world: int) -> dict:
        """Volatile postmortem state (``state.json``) — not byte-compared."""

        volatile: list[dict] = []
        for key in sorted(self._rings, key=str):
            for ev in self._rings[key]:
                if ev.volatile:
                    volatile.append(ev.volatile_doc())
        volatile.sort(key=lambda d: d["wall_us"])
        return {
            "schema": FLIGHTREC_SCHEMA_VERSION,
            "reason": reason,
            "world": world,
            "pid": os.getpid(),
            "last_state": {str(r): self._last_state[r] for r in sorted(self._last_state)},
            "volatile_events": volatile,
        }


# ------------------------------------------------------------------ installing


def use_flightrec(
    rec: Optional[FlightRecorder] = None,
) -> ContextManager[FlightRecorder]:
    """Install a recorder (a fresh one by default) for a with-block."""
    return planes.installed(
        "flightrec", rec if rec is not None else FlightRecorder()
    )


# ------------------------------------------------------------------ postmortem


def trace_tail_events(tracer, n: int) -> list[dict]:
    """Chrome-trace events for the last ``n`` span records of ``tracer``."""

    from repro.obs.export import chrome_trace_events

    records = tracer.records()
    return chrome_trace_events(records[-n:] if n else records, tracer.lane_names())


def dump_postmortem(
    dirpath: str,
    reason: str,
    *,
    recorder: FlightRecorder,
    world: int,
    rank: Optional[int] = None,
    tracer=None,
    trace_tail: int = 200,
) -> list[str]:
    """Write a postmortem bundle into ``dirpath`` and return the paths written.

    ``rank=None`` (loop backend) dumps every rank the recorder has seen
    plus a merged ``trace_tail.json``; an mp worker passes its own rank and
    writes only its shard (``events.rank{r}.json`` + ``trace_tail.rank{r}.json``
    + ``state.rank{r}.json``), leaving the manifest to the parent.
    """

    os.makedirs(dirpath, exist_ok=True)
    written: list[str] = []

    def _emit(name: str, payload: bytes) -> None:
        path = os.path.join(dirpath, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
        written.append(path)

    ranks = recorder.ranks() if rank is None else [int(rank)]
    for r in ranks:
        _emit(f"events.rank{r}.json", canonical_json(recorder.rank_bundle_doc(r)))

    state = recorder.state_doc(reason, world=world)
    state_name = "state.json" if rank is None else f"state.rank{rank}.json"
    _emit(state_name, json.dumps(state, sort_keys=True, indent=1).encode("ascii"))

    if tracer is not None:
        events = trace_tail_events(tracer, trace_tail)
        trace_name = "trace_tail.json" if rank is None else f"trace_tail.rank{rank}.json"
        _emit(trace_name, json.dumps(events, sort_keys=True).encode("ascii"))

    if rank is None:
        manifest = {
            "schema": FLIGHTREC_SCHEMA_VERSION,
            "reason": reason,
            "world": world,
            "ranks": ranks,
        }
        _emit("manifest.json", json.dumps(manifest, sort_keys=True, indent=1).encode("ascii"))
    return written


def write_postmortem_manifest(
    dirpath: str, reason: str, *, world: int
) -> str:
    """Parent-side manifest for an mp run: lists the per-rank shards present."""

    os.makedirs(dirpath, exist_ok=True)
    ranks = sorted(
        int(name[len("events.rank"):-len(".json")])
        for name in os.listdir(dirpath)
        if name.startswith("events.rank") and name.endswith(".json")
    )
    manifest = {
        "schema": FLIGHTREC_SCHEMA_VERSION,
        "reason": reason,
        "world": world,
        "ranks": ranks,
    }
    path = os.path.join(dirpath, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)
    return path
