"""The overhead contract: what compiled-in instrumentation may cost.

Every plane in :mod:`repro.obs`, :mod:`repro.check` and :mod:`repro.faults`
stays compiled into the training step.  That is only tenable while a plane
that is switched off costs nothing measurable and a plane that is switched
on stays a bounded tax — the same shape of budget the paper sets for data
movement (Sec. 4, Eqs. 6-11).  This module states that contract once:
:data:`PLANES` is the table of budgets, :func:`measure_overhead` the one
measurement, :class:`OverheadReport` the one record.  The tier-1 guard
(``tests/test_overhead.py``) and the record (the ``Overhead`` row of
``benchmarks/experiments.py`` -> ``BENCH_overhead.json``) both call it.

Measurement model, per row, on a real (small) engine step:

* **disabled** — modeled as *sites hit per step x measured no-op cost per
  site / measured step time*, the sites counted in one untimed step.  It
  is the only form available while no un-instrumented build exists to diff
  against; the ``all`` row sums it over every plane switched on together.
  The no-op cost is the row's gate timed in a loop through one Python
  call, so it is an upper bound.
* **enabled** — measured directly: step time with the plane on over step
  time with it off, minus one.  The two are timed interleaved (off, on,
  off, on, ...) with the GC off, so drift and collection pauses hit both
  sides equally, and each side keeps its minimum over the repetitions
  (min is the noise-robust estimator for "how fast can this code go").

A row over budget is measured again, up to :data:`ATTEMPTS` times in all:
timing on a loaded box flakes, a real regression fails every attempt.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass
from typing import Callable, ContextManager, Iterable, Iterator, Optional

from repro.check.config import CheckConfig
from repro.faults.runtime import FaultPlane
from repro.obs import planes
from repro.obs.flightrec import FlightRecorder
from repro.obs.live import LiveConfig, LivePlane
from repro.obs.memscope import MemScope, mem_alloc
from repro.obs.tracer import Tracer, trace_span
from repro.utils.tables import Table

DISABLED_BUDGET = 0.02  # every row: switched off, a plane must be invisible
ATTEMPTS = 3  # measurements a row gets before it is reported over budget

#: Reads how many instrumentation sites have been hit since switch-on.
SiteReader = Callable[[], int]
#: Switches a plane on for a block (through :func:`repro.obs.planes.installed`),
#: given the engine the block steps and whether this is the counting step: a
#: plane with no site counter of its own is counted through a stand-in, which
#: must not be there when steps are timed.
SwitchOn = Callable[[object, bool], ContextManager[SiteReader]]


@dataclass(frozen=True)
class Plane:
    """One row of the contract: only what differs between planes."""

    name: str
    placement: str  # offload tier the measured step runs on: "cpu" | "nvme"
    floor: int  # sites one step must hit, or the step is not instrumented
    enabled_budget: float  # fraction of a step the plane may cost switched on
    switch_on: Optional[SwitchOn] = None
    #: One instrumentation site as hot-path code writes it: a no-op when the
    #: plane is off.  Timed bare for the no-op cost, under ``switch_on`` for
    #: the enabled-call cost.
    gate: Optional[Callable[[], object]] = None
    #: The engine captures its checker at construction, so the on-side of
    #: this row is a second engine built under the checker.
    checked: bool = False


@contextmanager
def _tracer_on(engine, counting: bool) -> Iterator[SiteReader]:
    with planes.installed("tracer", Tracer(enabled=True)) as tracer:
        yield lambda: len(tracer)


def _tracer_gate() -> None:
    # trace_instant, trace_counter and perfscope's stall_span test the same
    # ``planes.tracer._enabled``: one enable check, so one row.
    with trace_span("bench:noop", cat="bench"):
        pass


@contextmanager
def _memscope_on(engine, counting: bool) -> Iterator[SiteReader]:
    with planes.installed("memscope", MemScope(enabled=True)) as scope:
        yield lambda: scope.op_count


def _memscope_gate() -> None:
    mem_alloc("gpu", 1024, category="workspace", owner="bench")


@contextmanager
def _live_on(engine, counting: bool) -> Iterator[SiteReader]:
    plane = LivePlane(world=engine.config.world_size, config=LiveConfig())
    rec = FlightRecorder()
    with planes.installed("flightrec", rec), closing(plane), planes.installed(
        "live", plane
    ):
        # hooks that published no sample are not a switched-on plane
        yield lambda: (
            plane.op_count + rec.op_count if plane.samples_published else 0
        )


def _live_gate() -> None:
    live = planes.live
    if live is not None:
        live.heartbeat(0, 0)


class _CountingPass:
    """Stands in for one checker pass; counts each event dispatched to it."""

    def __init__(self, target, tally: list) -> None:
        self._target = target
        self._tally = tally

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if not callable(attr):
            return attr
        tally = self._tally

        def counted(*args, **kwargs):
            tally[0] += 1
            return attr(*args, **kwargs)

        setattr(self, name, counted)  # later lookups skip __getattr__
        return counted


@contextmanager
def _check_on(engine, counting: bool) -> Iterator[SiteReader]:
    """The checks are on by construction of the checked engine; this only
    counts its events.  Hot-path code reads ``ctx.zerosan`` / ``ctx.races``
    at every event site, so proxying those attributes sees exactly the
    events a disabled build gates on."""
    ctx = engine.check_context
    tally = [0]
    passes = ("zerosan", "races") if counting else ()
    saved = {name: getattr(ctx, name) for name in passes}
    for name, target in saved.items():
        if target is not None:
            setattr(ctx, name, _CountingPass(target, tally))
    try:
        yield lambda: tally[0]
    finally:
        for name, target in saved.items():
            setattr(ctx, name, target)


def _check_gate() -> bool:
    return planes.checker is not None


@contextmanager
def _faults_on(engine, counting: bool) -> Iterator[SiteReader]:
    # armed, but no rule ever matches
    with planes.installed("faults", FaultPlane(())) as plane:
        yield lambda: plane.events


def _faults_gate() -> None:
    fp = planes.faults
    if fp is not None:
        fp.on_event("aio.read", key="bench")


# CPU placement exercises the swap paths without file-I/O timing noise; the
# fault sites live on the aio/store/pool path, which only NVMe placement runs.
_SINGLE = (
    Plane("tracer", "cpu", 100, 0.10, _tracer_on, _tracer_gate),
    Plane("memscope", "cpu", 50, 0.10, _memscope_on, _memscope_gate),
    Plane("live", "cpu", 5, 0.10, _live_on, _live_gate),
    Plane("check", "cpu", 100, 0.50, _check_on, _check_gate, checked=True),
    Plane("faults", "nvme", 50, 0.50, _faults_on, _faults_gate),
)

#: The contract.  ``all`` switches every plane above on at once, on the
#: placement that reaches every site, under the loosest single budget.
PLANES: dict[str, Plane] = {
    p.name: p
    for p in (*_SINGLE, Plane("all", "nvme", sum(p.floor for p in _SINGLE), 0.50))
}


@dataclass
class OverheadReport:
    """What one row of :data:`PLANES` costs on one engine step."""

    plane: str
    placement: str
    step_disabled_s: float  # min step time, plane(s) off
    step_enabled_s: float  # min step time, plane(s) on
    sites: dict[str, int]  # instrumentation sites one step hits, per plane on
    noop_call_s: float  # per-site cost switched off (site-weighted for ``all``)
    enabled_call_s: Optional[float]  # per-site cost switched on, where a gate has one
    violations: Optional[int]  # recorded by the sanitized steps (want 0)
    floor: int
    enabled_budget: float
    attempts: int = 1  # measurements made; the report is the last one

    @property
    def sites_per_step(self) -> int:
        return sum(self.sites.values())

    @property
    def disabled_overhead(self) -> float:
        """Modeled switched-off cost as a fraction of the step."""
        return self.sites_per_step * self.noop_call_s / self.step_disabled_s

    @property
    def enabled_overhead(self) -> float:
        """Measured switched-on cost as a fraction of the step."""
        return self.step_enabled_s / self.step_disabled_s - 1.0

    @property
    def ok(self) -> bool:
        """Instrumented, clean, and inside both budgets."""
        return (
            self.sites_per_step > self.floor
            and not self.violations
            and self.disabled_overhead < DISABLED_BUDGET
            and self.enabled_overhead < self.enabled_budget
        )

    def to_dict(self) -> dict:
        """The ``BENCH_overhead.json`` row."""
        return {
            **dataclasses.asdict(self),
            "sites_per_step": self.sites_per_step,
            "disabled_overhead": self.disabled_overhead,
            "enabled_overhead": self.enabled_overhead,
            "disabled_budget": DISABLED_BUDGET,
            "ok": self.ok,
        }


def render_overhead(reports: Iterable[OverheadReport]) -> str:
    """The contract as one table, one line per measured row."""
    table = Table(
        [
            "plane", "placement", "sites/step", "no-op ns",
            "disabled %", "enabled %", "budgets", "status",
        ],
        title=(
            "Overhead contract — compiled-in instrumentation per engine step:"
            " disabled cost modeled, enabled cost measured"
        ),
    )
    for r in reports:
        status = "ok" if r.ok else "OVER"
        if r.attempts > 1:
            status += f" (attempt {r.attempts})"
        table.add_row(
            [
                r.plane,
                r.placement,
                f"{r.sites_per_step} (> {r.floor})",
                f"{r.noop_call_s * 1e9:.1f}",
                f"{r.disabled_overhead:.3%}",
                f"{r.enabled_overhead:.2%}",
                f"< {DISABLED_BUDGET:.0%} / < {r.enabled_budget:.0%}",
                status,
            ]
        )
    return table.render()


#: Calls of a plane's gate per micro-benchmark.
_GATE_CALLS = 20_000


def _call_cost(fn: Callable[[], object], calls: int = 1) -> float:
    """Seconds per call of ``fn``, looped ``calls`` times."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def measure_overhead(
    *,
    hidden_dim: int = 160,
    num_layers: int = 2,
    world_size: int = 2,
) -> list[OverheadReport]:
    """Measure every row of :data:`PLANES` on one small GPT.

    One engine per (placement, checked) is built, warmed up and reused by
    every row that needs it; each row then counts the sites one step hits
    with its plane(s) on, times the step off and on (best of 7 each), and
    micro-benchmarks its gate(s).
    """
    from repro.core.config import OffloadConfig, OffloadDevice, ZeroConfig
    from repro.core.engine import ZeroInfinityEngine
    from repro.nn import GPTModel, TransformerConfig
    from repro.utils.rng import seeded_rng

    model_cfg = TransformerConfig(
        num_layers=num_layers,
        hidden_dim=hidden_dim,
        num_heads=4,
        vocab_size=128,
        max_seq=32,
    )
    rng = seeded_rng(3)
    batches = [
        (rng.integers(0, 128, (2, 32)), rng.integers(0, 128, (2, 32)))
        for _ in range(world_size)
    ]
    sanitized = CheckConfig(zerosan=True, races=True, mode="record")
    engines: dict[tuple[str, bool], ZeroInfinityEngine] = {}
    open_engines = ExitStack()
    noop_s = {p.name: _call_cost(p.gate, _GATE_CALLS) for p in _SINGLE}

    def engine_for(placement: str, checked: bool) -> ZeroInfinityEngine:
        if (placement, checked) not in engines:
            device = OffloadDevice[placement.upper()]
            config = ZeroConfig(
                world_size=world_size,
                offload=OffloadConfig(
                    param_device=device, grad_device=device, optimizer_device=device
                ),
                loss_scale=1.0,
                check=sanitized if checked else CheckConfig(),
            )
            engine = open_engines.enter_context(
                ZeroInfinityEngine(
                    config,
                    model_factory=lambda: GPTModel(model_cfg, rng=seeded_rng(0)),
                )
            )
            engine.train_step(batches)  # warm-up: caches primed, spool created
            engines[placement, checked] = engine
        return engines[placement, checked]

    def measure(row: Plane) -> OverheadReport:
        parts = (row,) if row.switch_on else _SINGLE
        checked = any(p.checked for p in parts)
        off = engine_for(row.placement, False)
        on = engine_for(row.placement, checked)
        # One untimed step counts the sites, through stand-ins where a plane
        # has no counter of its own; the timed steps below run the real planes.
        with ExitStack() as planes_on:
            readers = [planes_on.enter_context(p.switch_on(on, True)) for p in parts]
            on.train_step(batches)
            sites = {p.name: read() for p, read in zip(parts, readers)}
        off_s = on_s = float("inf")
        # GC off while timing (as timeit does): an enabled plane allocates
        # thousands of small objects per step, and collection pauses landing
        # in random reps would swamp the signal.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(7):
                gc.collect()
                off_s = min(off_s, _call_cost(lambda: off.train_step(batches)))
                gc.collect()
                with ExitStack() as planes_on:
                    for p in parts:
                        planes_on.enter_context(p.switch_on(on, False))
                    on_s = min(on_s, _call_cost(lambda: on.train_step(batches)))
        finally:
            if gc_was_enabled:
                gc.enable()
        enabled_call_s = None
        if row.switch_on and not row.checked:  # the gate has a global on-path
            with row.switch_on(off, False):
                enabled_call_s = _call_cost(row.gate, _GATE_CALLS)
        return OverheadReport(
            plane=row.name,
            placement=row.placement,
            step_disabled_s=off_s,
            step_enabled_s=on_s,
            sites=sites,
            noop_call_s=(
                sum(n * noop_s[name] for name, n in sites.items())
                / max(sum(sites.values()), 1)
            ),
            enabled_call_s=enabled_call_s,
            violations=len(on.check_context.violations) if checked else None,
            floor=row.floor,
            enabled_budget=row.enabled_budget,
        )

    reports = []
    with open_engines:
        for row in PLANES.values():
            for attempt in range(1, ATTEMPTS + 1):
                report = measure(row)
                report.attempts = attempt
                if report.ok:
                    break
            reports.append(report)
    return reports
