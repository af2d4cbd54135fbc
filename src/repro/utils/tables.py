"""Plain-text table and chart rendering for benchmark reports.

The benchmark harness regenerates the paper's tables and figures as text:
tables render as aligned ASCII grids, figures as horizontal bar charts or
small multi-series line charts.  Keeping this in-library (rather than in each
bench script) makes the reports uniform and testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class Table:
    """Accumulate rows, then render an aligned ASCII table.

    >>> t = Table(["model", "TFlops/GPU"], title="Fig. 5a")
    >>> t.add_row(["0.5T", 42.1])
    >>> print(t.render())  # doctest: +SKIP
    """

    headers: Sequence[str]
    title: str = ""
    float_fmt: str = "{:.2f}"
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, values: Iterable[object]) -> None:
        row = [self._fmt(v) for v in values]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(self.headers)}"
            )
        self.rows.append(row)

    def _fmt(self, v: object) -> str:
        if isinstance(v, float):
            return self.float_fmt.format(v)
        return str(v)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    title: str = "",
    width: int = 50,
    value_fmt: str = "{:.2f}",
) -> str:
    """Render a horizontal bar chart, one bar per label.

    Bars are scaled to the maximum value; zero/negative values render as an
    empty bar so "ran out of memory" entries remain visible in comparisons.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    vmax = max((v for v in values if v > 0), default=1.0)
    label_w = max((len(l) for l in labels), default=0)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        n = int(round(width * max(value, 0.0) / vmax))
        bar = "#" * n
        lines.append(f"{label.ljust(label_w)} | {bar} {value_fmt.format(value)}")
    return "\n".join(lines)


def ascii_line_chart(
    x: Sequence[float],
    series: dict[str, Sequence[float]],
    *,
    title: str = "",
    height: int = 16,
    width: int = 64,
) -> str:
    """Render multiple y-series against shared x values on a character grid.

    Each series gets a marker character; collisions render as ``*``.  Used by
    the Figure 3 / Figure 5 benches to show curve shape in the terminal.
    """
    if not series:
        raise ValueError("need at least one series")
    markers = "ox+@%&=~"
    all_y = [y for ys in series.values() for y in ys]
    ymin, ymax = min(all_y), max(all_y)
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = min(x), max(x)
    if xmax == xmin:
        xmax = xmin + 1.0

    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        marker = markers[si % len(markers)]
        for xv, yv in zip(x, ys):
            col = int(round((xv - xmin) / (xmax - xmin) * (width - 1)))
            row = height - 1 - int(round((yv - ymin) / (ymax - ymin) * (height - 1)))
            grid[row][col] = "*" if grid[row][col] not in (" ", marker) else marker

    lines = [title] if title else []
    lines.append(f"y: {ymax:.2f}")
    for row in grid:
        lines.append("  |" + "".join(row))
    lines.append("  +" + "-" * width)
    lines.append(f"y: {ymin:.2f}   x: {xmin:g} .. {xmax:g}")
    legend = "   ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(series)
    )
    lines.append("  " + legend)
    return "\n".join(lines)
