"""Shared utilities: unit arithmetic, table rendering, deterministic RNG.

These helpers are deliberately dependency-free so every other subpackage can
import them without cycles.
"""

from repro.utils.units import (
    KB,
    MB,
    GB,
    TB,
    KIB,
    MIB,
    GIB,
    TIB,
    TFLOP,
    format_bytes,
    format_count,
)
from repro.utils.tables import Table, ascii_bar_chart, ascii_line_chart
from repro.utils.rng import seeded_rng, spawn_rngs

__all__ = [
    "KB",
    "MB",
    "GB",
    "TB",
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "TFLOP",
    "format_bytes",
    "format_count",
    "Table",
    "ascii_bar_chart",
    "ascii_line_chart",
    "seeded_rng",
    "spawn_rngs",
]
