"""ASCII Gantt rendering of simulated step timelines.

Turns a :class:`~repro.sim.events.SimulationResult` into a per-stream
occupancy chart so the overlap structure (or its absence) is visible at a
glance — the textual analogue of a profiler trace:

    compute |####==####==####____________|
    gg      |==__==__==__________________|
    nc      |######______________________|

Each column is a time slice; a filled cell means the stream was busy.
Distinct task-name prefixes rotate through marker characters so phases can
be told apart; the legend footer names every marker and the makespan line
states the time scale, so the chart is self-describing.
"""

from __future__ import annotations

from repro.sim.events import SimulationResult

_MARKERS = "#=%@+*o~"


def _prefix(name: str) -> str:
    return name.split(":", 1)[0]


def render_gantt(
    result: SimulationResult,
    *,
    width: int = 72,
) -> str:
    """Render per-stream occupancy over the makespan, one 8-column-labelled
    row per stream."""
    if not result.tasks or result.makespan <= 0:
        return "(empty timeline)"
    streams: dict[str, list] = {}
    for t in result.tasks:
        streams.setdefault(t.stream, []).append(t)
    prefixes = sorted({_prefix(t.name) for t in result.tasks})
    marker_of = {p: _MARKERS[i % len(_MARKERS)] for i, p in enumerate(prefixes)}

    scale = width / result.makespan
    lines = []
    for stream in sorted(streams):
        row = [" "] * width
        for t in streams[stream]:
            lo = int(t.start * scale)
            hi = max(int(t.finish * scale), lo + 1)
            for c in range(lo, min(hi, width)):
                row[c] = marker_of[_prefix(t.name)]
        busy = result.busy_fraction(stream)
        lines.append(
            f"{stream.ljust(8)}|{''.join(row)}| {busy:4.0%}"
        )
    pad = " " * 8
    legend = "  ".join(f"{m}={p}" for p, m in marker_of.items())
    lines.append(f"{pad} legend: {legend}  (right column = stream busy %)")
    lines.append(
        f"{pad} makespan {result.makespan:.4g}s"
        f"  t=0 .. {result.makespan:.3g}s over {width} cols"
        f" ({result.makespan / width:.3g}s/col)"
    )
    return "\n".join(lines)
