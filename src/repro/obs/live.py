"""Live telemetry plane: streaming samples, health watchdog, dashboard.

Three cooperating pieces (ISSUE 9):

* **Streaming** — every rank publishes a compact :class:`TelemetrySample`
  (step, phase, steps/s, per-tier bytes from the memscope ledger, stall
  split folded from the perfscope span stream, and the in-flight aio
  requests and retries the publishing engine counts itself, fault
  counters, injected virtual delay) through a transport: an in-process
  slot table on the loop backend, or the lock-free
  :class:`~repro.comm.shm.TelemetryRing` seqlock segment beside the PR 7
  data ring under ``MultiprocBackend``.  The aggregator (loop driver or
  the mp launcher parent) polls the transport into a
  :class:`ClusterView`.
* **Health watchdog** — heartbeat skew (a rank > *k* heartbeats behind
  the median), injected-straggler delay excess over the median,
  wall-clock heartbeat deadlines, pinned-pool pressure and retry storms.
  Transitions surface as trace instants, volatile flight-recorder
  events, the watchdog's ``events`` history and rows on the
  ``train-demo --live`` ASCII dashboard.
* **Postmortem hook** — :meth:`LivePlane.on_terminal` flushes exporters
  and dumps the crash flight recorder
  (:mod:`repro.obs.flightrec`) as a bundle directory.

Disabled fast path: every hook site reads one module global and checks
``is None`` — the same contract as the tracer/memscope/faults planes,
held to <2% of a step by the ``live`` row of :mod:`repro.obs.overhead`.

Only this module may write the telemetry ring (``put_sample``); the
``telemetry-ring-write`` lint rule bans other call sites.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.obs.memscope import TIERS, get_memscope
from repro.obs.tracer import get_tracer, trace_instant
from repro.utils import format_bytes

LIVE_SCHEMA_VERSION = 1

_STALL_PREFIX = "stall:"

#: Watchdog per-rank states, ordered by increasing severity.
HEALTH_STATES = ("ok", "behind", "straggler", "stalled", "dead")


@dataclass
class LiveConfig:
    """Thresholds and sinks for the live plane (defaults match docs)."""

    skew_heartbeats: int = 3  # k: flag a rank this far behind the median
    deadline_s: float = 5.0  # wall-clock heartbeat deadline -> "stalled"
    dead_after_s: float = 30.0  # no sample at all for this long -> "dead"
    straggler_delay_us: int = 1000  # injected-delay excess over the median
    pinned_capacity_bytes: Optional[int] = None  # enables the pinned alarm
    pinned_alarm_fraction: float = 0.9
    retry_storm: int = 8  # total retries observed at one rank
    flight_capacity: int = 64  # canonical events kept per rank
    trace_tail: int = 200  # spans in the postmortem trace tail
    postmortem_dir: Optional[str] = None
    jsonl_path: Optional[str] = None  # per-rank shard: "<path>.rank{r}"
    slot_capacity: int = 4096  # telemetry ring payload bytes per rank
    dashboard: bool = False
    refresh_steps: int = 1


@dataclass
class TelemetrySample:
    """One rank's periodic published state (compact, JSON-encodable)."""

    rank: int
    hb: int  # heartbeat counter (one per local rank turn)
    step: int
    phase: str
    steps_per_s: float
    tier_bytes: dict = field(default_factory=dict)
    stall_us: dict = field(default_factory=dict)
    inflight_aio: int = 0
    faults_injected: int = 0
    step_retries: int = 0
    io_retries: int = 0
    delay_us: int = 0  # cumulative injected virtual delay for this rank
    vclock_us: int = 0
    mono_us: float = 0.0
    schema: int = LIVE_SCHEMA_VERSION

    def to_bytes(self) -> bytes:
        return json.dumps(self.__dict__, sort_keys=True, separators=(",", ":")).encode(
            "ascii"
        )

    @staticmethod
    def from_bytes(payload: bytes) -> "TelemetrySample":
        return TelemetrySample(**json.loads(payload))


@dataclass
class HealthEvent:
    """One watchdog transition or alarm (volatile — wall-clock stamped)."""

    kind: str  # behind | straggler | stalled | dead | recovered | alarm kind
    rank: int
    detail: dict = field(default_factory=dict)
    wall_s: float = 0.0


@dataclass
class ClusterView:
    """Aggregated run-wide view from one watchdog poll."""

    samples: list[Optional[TelemetrySample]]
    states: dict[int, str]
    events: list[HealthEvent]  # transitions raised by *this* poll
    alarms: list[HealthEvent]  # pressure alarms active this poll

    @property
    def worst_state(self) -> str:
        worst = "ok"
        for state in self.states.values():
            if HEALTH_STATES.index(state) > HEALTH_STATES.index(worst):
                worst = state
        return worst


# ------------------------------------------------------------------ transports


class LocalTransport:
    """In-process latest-sample slots (loop backend)."""

    def __init__(self, world: int) -> None:
        self._slots: list[Optional[bytes]] = [None] * world

    def publish(self, rank: int, payload: bytes) -> None:
        self._slots[rank] = payload

    def poll(self) -> list[Optional[bytes]]:
        return list(self._slots)


class ShmTransport:
    """Publishes through a :class:`repro.comm.shm.TelemetryRing`."""

    def __init__(self, ring) -> None:
        self._ring = ring

    def publish(self, rank: int, payload: bytes) -> None:
        self._ring.put_sample(rank, payload)

    def poll(self) -> list[Optional[bytes]]:
        return self._ring.read_all()


# -------------------------------------------------------------------- watchdog


class HealthWatchdog:
    """Classifies per-rank health from polled samples; emits transitions."""

    def __init__(
        self, world: int, config: LiveConfig, *, recorder=None
    ) -> None:
        self.world = world
        self.config = config
        self.recorder = recorder
        self.states: dict[int, str] = {r: "ok" for r in range(world)}
        self._last_hb: dict[int, int] = {}
        self._last_change_s: dict[int, float] = {}
        self._started_s: Optional[float] = None
        self._alarmed: set[tuple[str, int]] = set()
        self.events: list[HealthEvent] = []  # full transition history

    def _classify(
        self, rank: int, sample: Optional[TelemetrySample], now_s: float, med_hb: float, med_delay: float
    ) -> str:
        cfg = self.config
        if sample is None:
            started = self._started_s if self._started_s is not None else now_s
            return "dead" if now_s - started > cfg.dead_after_s else "ok"
        last_change = self._last_change_s.get(rank, now_s)
        if now_s - last_change > cfg.dead_after_s:
            return "dead"
        if now_s - last_change > cfg.deadline_s:
            return "stalled"
        if sample.delay_us - med_delay >= cfg.straggler_delay_us:
            return "straggler"
        if med_hb - sample.hb > cfg.skew_heartbeats:
            return "behind"
        return "ok"

    def observe(
        self, samples: list[Optional[TelemetrySample]], now_s: Optional[float] = None
    ) -> tuple[list[HealthEvent], list[HealthEvent]]:
        """Fold one poll; returns ``(new transitions, active alarms)``."""
        if now_s is None:
            now_s = time.monotonic()
        if self._started_s is None:
            self._started_s = now_s
        cfg = self.config
        for rank, sample in enumerate(samples):
            if sample is None:
                continue
            if self._last_hb.get(rank) != sample.hb:
                self._last_hb[rank] = sample.hb
                self._last_change_s[rank] = now_s
        live = [s for s in samples if s is not None]
        med_hb = statistics.median([s.hb for s in live]) if live else 0.0
        med_delay = statistics.median([s.delay_us for s in live]) if live else 0.0

        transitions: list[HealthEvent] = []
        for rank in range(self.world):
            sample = samples[rank] if rank < len(samples) else None
            state = self._classify(rank, sample, now_s, med_hb, med_delay)
            prev = self.states[rank]
            if state == prev:
                continue
            self.states[rank] = state
            kind = state if state != "ok" else "recovered"
            detail = {"from": prev, "to": state}
            if sample is not None:
                detail.update(hb=sample.hb, step=sample.step, delay_us=sample.delay_us)
            transitions.append(HealthEvent(kind, rank, detail, now_s))

        alarms: list[HealthEvent] = []
        for sample in live:
            pinned = sample.tier_bytes.get("pinned", 0)
            cap = cfg.pinned_capacity_bytes
            if cap and pinned >= cfg.pinned_alarm_fraction * cap:
                alarms.append(
                    HealthEvent(
                        "pinned_pressure",
                        sample.rank,
                        {"pinned_bytes": pinned, "capacity": cap},
                        now_s,
                    )
                )
            retries = sample.step_retries + sample.io_retries
            if retries >= cfg.retry_storm:
                alarms.append(
                    HealthEvent("retry_storm", sample.rank, {"retries": retries}, now_s)
                )

        for ev in transitions:
            self._surface(ev)
        for ev in alarms:
            key = (ev.kind, ev.rank)
            if key not in self._alarmed:  # surface each alarm kind once per rank
                self._alarmed.add(key)
                self._surface(ev)
        self.events.extend(transitions)
        return transitions, alarms

    def _surface(self, ev: HealthEvent) -> None:
        trace_instant(f"health:{ev.kind}", cat="health", rank=ev.rank, **ev.detail)
        if self.recorder is not None:
            self.recorder.record(
                "health", ev.kind, rank=ev.rank, volatile=True, **ev.detail
            )


# ------------------------------------------------------------------- the plane


class LivePlane:
    """Per-process half of the live telemetry plane.

    ``rank=None`` is the loop-backend (or mp-parent aggregator) form: it
    publishes samples for every rank and owns the watchdog/dashboard.
    An mp worker installs one with its own ``rank`` and only publishes.
    """

    def __init__(
        self,
        *,
        world: int,
        rank: Optional[int] = None,
        config: Optional[LiveConfig] = None,
        transport=None,
        recorder=None,
    ) -> None:
        self.world = world
        self.rank = rank
        self.config = config or LiveConfig()
        self.transport = transport or LocalTransport(world)
        self.recorder = recorder
        self.watchdog = HealthWatchdog(world, self.config, recorder=recorder)
        self.tracer = None  # set explicitly by mp workers; else the global
        self._hb = [0] * world
        self._last_step_end_us: Optional[float] = None
        self._steps_per_s = 0.0
        self._rec_idx = 0  # tracer raw-record cursor for the stall fold
        self._stall_us: dict[str, float] = {}
        self._loggers: dict[int, object] = {}
        self._closed = False
        self._terminal_done = False
        self.op_count = 0  # hook invocations (overhead modeling)
        self.samples_published = 0

    # ------------------------------------------------------------- hot hooks

    def heartbeat(
        self, rank: int, step: int, counts: Optional[dict] = None
    ) -> None:
        """One local rank turn started; bump and publish its heartbeat.

        ``counts`` are the publishing engine's own ``step_retries``,
        ``io_retries`` and ``inflight_aio`` (zero when absent).
        """
        self.op_count += 1
        self._hb[rank] += 1
        self._publish(rank, step, "turn", counts)

    def emit(
        self, *, step: int, phase: str, counts: Optional[dict] = None
    ) -> None:
        """Publish a full sample at a phase boundary.

        Loop/aggregator planes publish one sample per rank (the ranks run
        in lockstep in-process); an mp worker publishes only its own.
        ``counts`` as for :meth:`heartbeat`.
        """
        self.op_count += 1
        self._fold_stalls()
        if self.rank is None:
            for rank in range(self.world):
                self._publish(rank, step, phase, counts)
        else:
            self._publish(self.rank, step, phase, counts)
        if phase == "step_end":
            now_us = time.perf_counter_ns() / 1e3
            if self._last_step_end_us is not None:
                dt = now_us - self._last_step_end_us
                if dt > 0:
                    self._steps_per_s = 1e6 / dt
            self._last_step_end_us = now_us
            if (
                self.config.dashboard
                and self.rank is None
                and step % max(1, self.config.refresh_steps) == 0
            ):
                view = self.view()
                sys.stdout.write(render_dashboard(view) + "\n")

    # ------------------------------------------------------------- internals

    def _fold_stalls(self) -> None:
        tracer = self.tracer or get_tracer()
        if not tracer.enabled and self._rec_idx == 0:
            return
        self._rec_idx, fresh = tracer.raw_since(self._rec_idx)
        for rec in fresh:
            # raw tuple: (name, cat, ts, dur, lane, thread, args, instant, counter)
            if rec[1] == "stall":
                cause = rec[0][len(_STALL_PREFIX):]
                self._stall_us[cause] = self._stall_us.get(cause, 0.0) + rec[3]

    def build_sample(
        self, rank: int, step: int, phase: str, counts: Optional[dict] = None
    ) -> TelemetrySample:
        from repro.faults.runtime import get_faults, virtual_clock  # lazy: cycle

        scope = get_memscope()
        tiers = (
            {t: int(scope.tier_bytes(t)) for t in TIERS} if scope.enabled else {}
        )
        fp = get_faults()
        delay_us = 0
        injected = 0
        if fp is not None:
            delay_us = int(fp.delay_us_by_rank.get(rank, 0))
            injected = sum(fp.injected.values())
        return TelemetrySample(
            rank=rank,
            hb=self._hb[rank],
            step=step,
            phase=phase,
            steps_per_s=round(self._steps_per_s, 3),
            tier_bytes=tiers,
            stall_us={k: round(v, 1) for k, v in sorted(self._stall_us.items())},
            faults_injected=injected,
            delay_us=delay_us,
            vclock_us=virtual_clock().now_us(),
            mono_us=round(time.perf_counter_ns() / 1e3, 1),
            **(counts or {}),
        )

    def _publish(
        self, rank: int, step: int, phase: str, counts: Optional[dict]
    ) -> None:
        sample = self.build_sample(rank, step, phase, counts)
        self.transport.publish(rank, sample.to_bytes())
        self.samples_published += 1
        if self.recorder is not None:
            self.recorder.note_state(
                rank, step=step, phase=phase, hb=sample.hb, vclock_us=sample.vclock_us
            )
        if self.config.jsonl_path:
            self._logger_for(rank).log("telemetry", **sample.__dict__)

    def _logger_for(self, rank: int):
        logger = self._loggers.get(rank)
        if logger is None:
            from repro.workloads.metrics import MetricsLogger  # lazy: cycle

            logger = MetricsLogger(
                f"{self.config.jsonl_path}.rank{rank}",
                run_name=f"rank{rank}",
                flush_every=32,
            )
            self._loggers[rank] = logger
        return logger

    # ------------------------------------------------------------ aggregation

    def view(self, now_s: Optional[float] = None) -> ClusterView:
        """Poll the transport and fold one watchdog observation."""
        raw = self.transport.poll()
        samples: list[Optional[TelemetrySample]] = []
        for payload in raw:
            if payload is None:
                samples.append(None)
                continue
            try:
                samples.append(TelemetrySample.from_bytes(payload))
            except (ValueError, TypeError):
                samples.append(None)  # torn or stale slot — treat as no news
        events, alarms = self.watchdog.observe(samples, now_s)
        return ClusterView(
            samples=samples, states=dict(self.watchdog.states), events=events, alarms=alarms
        )

    # -------------------------------------------------------------- lifecycle

    def flush(self) -> None:
        """Flush every sink; idempotent and exception-free (abort-path safe)."""
        for logger in self._loggers.values():
            try:
                logger.flush()
            except Exception:
                pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.flush()
        for logger in self._loggers.values():
            try:
                logger.close()
            except Exception:
                pass

    def on_terminal(self, reason: str) -> Optional[str]:
        """Terminal-failure hook: flush sinks, dump the postmortem bundle.

        Idempotent — the engine's terminal handler and an mp worker's
        outer exception handler may both reach it.  Returns the bundle
        directory when one was written.
        """
        self.flush()
        if self.recorder is not None:
            self.recorder.record(
                "abort", reason, rank=self.rank, volatile=True
            )
        if self._terminal_done:
            return self.config.postmortem_dir
        self._terminal_done = True
        if self.recorder is None or not self.config.postmortem_dir:
            return None
        from repro.obs.flightrec import dump_postmortem  # local: keep import light

        tracer = self.tracer or get_tracer()
        dump_postmortem(
            self.config.postmortem_dir,
            reason,
            recorder=self.recorder,
            world=self.world,
            rank=self.rank,
            tracer=tracer if tracer.enabled or len(tracer) else None,
            trace_tail=self.config.trace_tail,
        )
        return self.config.postmortem_dir


# --------------------------------------------------------------------- globals

_global_live: Optional[LivePlane] = None


def get_live() -> Optional[LivePlane]:
    """The process-global live plane, or ``None`` (the disabled fast path)."""
    return _global_live


def install_live(plane: Optional[LivePlane]) -> Optional[LivePlane]:
    global _global_live
    prev = _global_live
    _global_live = plane
    return prev


@contextmanager
def use_live(plane: LivePlane) -> Iterator[LivePlane]:
    prev = install_live(plane)
    try:
        yield plane
    finally:
        install_live(prev)
        plane.close()


# ------------------------------------------------------------------- dashboard


def render_dashboard(view: ClusterView) -> str:
    """``repro top``-style ASCII view of the cluster state."""
    lines = []
    steps = [s.step for s in view.samples if s is not None]
    head = f"repro live — world {len(view.samples)}"
    if steps:
        head += f"  step {max(steps)}"
    head += f"  health {view.worst_state}"
    lines.append(head)
    lines.append(
        f"{'rank':>4} {'state':<9} {'step':>5} {'phase':<14} {'steps/s':>8}"
        f" {'hb':>5} {'gpu':>9} {'cpu':>9} {'nvme':>9} {'pinned':>9}"
        f" {'stall_ms':>9} {'aio':>4} {'retry':>5} {'delay_us':>8}"
    )
    for rank, sample in enumerate(view.samples):
        state = view.states.get(rank, "ok")
        if sample is None:
            lines.append(f"{rank:>4} {state:<9} {'-':>5} {'no sample':<14}")
            continue
        tb = sample.tier_bytes
        stall_ms = sum(sample.stall_us.values()) / 1e3
        lines.append(
            f"{rank:>4} {state:<9} {sample.step:>5} {sample.phase:<14}"
            f" {sample.steps_per_s:>8.2f} {sample.hb:>5}"
            + "".join(
                f" {format_bytes(tb.get(tier, 0), binary=True, precision=1):>9}"
                for tier in ("gpu", "cpu", "nvme", "pinned")
            )
            + f" {stall_ms:>9.1f} {sample.inflight_aio:>4}"
            f" {sample.step_retries + sample.io_retries:>5} {sample.delay_us:>8}"
        )
    for ev in view.alarms:
        lines.append(f"  ALARM {ev.kind} rank {ev.rank}: {ev.detail}")
    for ev in view.events:
        lines.append(f"  health {ev.kind} rank {ev.rank}: {ev.detail}")
    return "\n".join(lines)
