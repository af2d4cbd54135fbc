"""Byte / FLOP unit constants and formatting.

The paper mixes decimal units for bandwidth (GB/s = 1e9 B/s) with the usual
loose usage for capacities.  We standardise on:

* decimal (SI) constants ``KB``/``MB``/``GB``/``TB`` — used for bandwidth and
  capacity numbers quoted from the paper (Fig. 2b, Sec. 4);
* binary constants ``KIB``/``MIB``/``GIB``/``TIB`` — used for allocator math
  where power-of-two alignment matters (Fig. 6b fragments memory into
  "2 GB contiguous chunks", which we treat as 2 GiB blocks).
"""

from __future__ import annotations

# --- decimal (SI) byte units -------------------------------------------------
KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

# --- binary byte units -------------------------------------------------------
KIB = 2**10
MIB = 2**20
GIB = 2**30
TIB = 2**40

# --- FLOP units ---------------------------------------------------------------
TFLOP = 10**12

def format_bytes(n: float, *, binary: bool = False, precision: int = 2) -> str:
    """Render a byte count with the largest sensible unit.

    >>> format_bytes(1.83e12)
    '1.83 TB'
    >>> format_bytes(2 * GIB, binary=True)
    '2.00 GiB'
    """
    if n < 0:
        return "-" + format_bytes(-n, binary=binary, precision=precision)
    units = (
        [("TiB", TIB), ("GiB", GIB), ("MiB", MIB), ("KiB", KIB)]
        if binary
        else [("TB", TB), ("GB", GB), ("MB", MB), ("KB", KB)]
    )
    for suffix, scale in units:
        if n >= scale:
            return f"{n / scale:.{precision}f} {suffix}"
    return f"{n:.0f} B"


def format_bandwidth(bps: float) -> str:
    """Render a rate in decimal units, B/s up to GB/s.

    >>> format_bandwidth(2.5e9)
    '2.50 GB/s'
    """
    x = float(bps)
    for unit in ("B/s", "KB/s", "MB/s"):
        if x < 1000.0:
            return f"{x:.2f} {unit}"
        x /= 1000.0
    return f"{x:.2f} GB/s"


def format_count(n: float, *, precision: int = 2) -> str:
    """Render a parameter count the way the paper does (B/T suffixes).

    >>> format_count(1.01e12)
    '1.01T'
    >>> format_count(175e9)
    '175.00B'
    """
    if n < 0:
        return "-" + format_count(-n, precision=precision)
    for suffix, scale in [("T", 1e12), ("B", 1e9), ("M", 1e6), ("K", 1e3)]:
        if n >= scale:
            return f"{n / scale:.{precision}f}{suffix}"
    return f"{n:.0f}"
