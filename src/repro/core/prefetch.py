"""Overlap-centric design: the dynamic prefetcher (Sec. 6.2).

"The dynamic prefetcher traces the forward and backward computation on the
fly, constructing an internal map of the operator sequence for each
iteration.  During each iteration, the prefetcher keeps track of where it is
in the operator sequence and prefetches the parameter[s] required by the
future operators."

:class:`OperatorTrace` is that internal map: a recorded sequence of
``(module, phase)`` events.  :class:`DynamicPrefetcher` consumes it: on each
executed event it advances its position and issues asynchronous fetches
(one bulk NVMe read into one pinned staging buffer per operator) for the
parameter groups of the next ``depth`` operators — and, when an iteration begins,
of its first ``depth``.  When the observed event diverges from the recorded
sequence — a dynamic control-flow change — the trace is invalidated and
re-recorded, "allowing for appropriate prefetching even when the forward and
backward propagation changes across iterations".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.partition import ParamGroup, groups_of
from repro.nn.module import Module
from repro.obs.tracer import trace_counter, trace_instant, trace_span


@dataclass(frozen=True)
class TraceEvent:
    """One operator execution: a leaf module in a given phase."""

    module_id: int
    phase: str  # "fwd" | "bwd"


@dataclass
class OperatorTrace:
    """The recorded operator sequence of one training iteration."""

    events: list[TraceEvent] = field(default_factory=list)
    modules: dict[int, Module] = field(default_factory=dict)
    complete: bool = False

    def record(self, module: Module, phase: str) -> None:
        if self.complete:
            raise RuntimeError("cannot record into a completed trace")
        self.events.append(TraceEvent(id(module), phase))
        self.modules[id(module)] = module

    def finish(self) -> None:
        self.complete = True

    def __len__(self) -> int:
        return len(self.events)

    def module_at(self, index: int) -> Module:
        return self.modules[self.events[index].module_id]


class DynamicPrefetcher:
    """Issues lookahead fetches along the traced operator sequence.

    Parameters
    ----------
    offload:
        The :class:`~repro.core.offload.InfinityOffloadEngine` to start
        asynchronous reads on.
    partitioner:
        The :class:`~repro.core.partition.ParameterPartitioner` whose
        groups the gathers fetch.
    depth:
        How many future operators to prefetch for; 0 disables prefetching
        (the Fig. 6d ablation).

    ``gather_groups(module, phase)`` names the groups an operator will
    gather.  It defaults to those of the parameters the module declares; a
    coordinator installs its own (which adds registered external
    parameters), so the plan is drawn from the very function its hooks
    gather by.
    """

    def __init__(self, offload, partitioner, *, depth: int = 2) -> None:
        if depth < 0:
            raise ValueError("depth must be non-negative")
        self.offload = offload
        self.partitioner = partitioner
        self.depth = depth
        self.gather_groups: Callable[[Module, str], list[ParamGroup]] = (
            lambda module, phase: groups_of(module.parameters_read(phase))
        )
        self.trace: Optional[OperatorTrace] = None
        self._observed: OperatorTrace = OperatorTrace()
        self._position = 0
        self.invalidations = 0
        self.issued = 0

    # --- overlap-quality counters ----------------------------------------------
    # Hits and misses are observed where the fetch happens (the offload
    # engine: a fetch served by an in-flight prefetch is a hit, a blocking
    # NVMe read is a miss); mis-predicts are trace invalidations — the
    # operator sequence diverged from what lookahead was issued against.
    @property
    def hits(self) -> int:
        return self.offload.counters.prefetch_hits

    @property
    def misses(self) -> int:
        return self.offload.counters.prefetch_misses

    @property
    def mispredicts(self) -> int:
        return self.invalidations

    def stats(self) -> dict[str, int]:
        """Overlap-quality counters for summaries and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "mispredicts": self.mispredicts,
            "issued": self.issued,
            "depth": self.depth,
        }

    # --- iteration lifecycle -----------------------------------------------------
    def begin_iteration(self) -> None:
        """Reset the position, start observing this iteration's events and
        read ahead for its first ``depth`` operators — nothing else would
        ever cover position 0."""
        self._position = 0
        self._observed = OperatorTrace()
        if self.trace is not None:
            self._issue_lookahead(self.trace)

    def end_iteration(self) -> None:
        """Adopt this iteration's observed sequence when no trace is valid.

        Also catches the silent-shrink case: an iteration that executed a
        strict prefix of the trace means the graph changed, so re-record.
        """
        if self.trace is not None and self._position != len(self.trace.events):
            self.invalidations += 1
            trace_instant(
                "prefetch:invalidate", cat="prefetch", reason="short_iteration"
            )
            self.trace = None
        if self.trace is None:
            self._observed.finish()
            self.trace = self._observed
        self._observed = OperatorTrace()

    # --- per-operator hook -----------------------------------------------------
    def on_execute(self, module: Module, phase: str) -> None:
        """Called right before a leaf module executes ``phase``."""
        if not self._observed.complete:
            self._observed.record(module, phase)
        trace = self.trace
        if trace is None:
            return
        # Verify the trace still predicts execution (dynamic graph check).
        if (
            self._position >= len(trace.events)
            or trace.events[self._position].module_id != id(module)
            or trace.events[self._position].phase != phase
        ):
            # Observed execution diverged: drop the trace.  The full
            # observed sequence (including events before the divergence)
            # becomes the new trace at end_iteration.
            self.invalidations += 1
            trace_instant(
                "prefetch:invalidate", cat="prefetch", reason="divergence"
            )
            self.trace = None
            return
        self._position += 1
        self._issue_lookahead(trace)

    def _issue_lookahead(self, trace: OperatorTrace) -> None:
        """Start reads for the operators at ``[position, position + depth)``."""
        hi = min(self._position + self.depth, len(trace.events))
        started = 0
        with trace_span(
            "prefetch:lookahead", cat="prefetch", position=self._position
        ):
            world = range(self.partitioner.world_size)
            for i in range(self._position, hi):
                groups = [
                    g
                    for g in self.gather_groups(
                        trace.module_at(i), trace.events[i].phase
                    )
                    if g.flat is None
                ]
                if not groups:
                    continue
                # one bulk read per operator, in gather_coalesced's
                # consumption order; records an earlier operator's read
                # already has in flight are skipped
                started += self.offload.prefetch(
                    [g.key(r) for g in groups for r in world],
                    rank=[r for _ in groups for r in world],
                )
        if started:
            self.issued += started
            trace_counter(
                "prefetch.lookahead", cat="prefetch",
                issued=started, total=self.issued,
            )
