"""Size, rate, and time unit helpers used throughout the simulator.

All byte quantities in the library are plain ``int`` bytes, all rates are
bytes per (virtual) second, and all times are (virtual) seconds as ``float``.
These constants keep call sites readable: ``4 * MIB`` instead of ``4194304``.
"""

from __future__ import annotations

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000

KIB = 1 << 10
MIB = 1 << 20
GIB = 1 << 30

US = 1e-6
MS = 1e-3

#: Decimal megabytes per second -> bytes per second (storage vendors and the
#: paper quote decimal MB/s; e.g. the paper's 550 MB/s and 1,560 MB/s).
MB_PER_S = MB

#: Pages per I/O unit: the paper's Table 2 measures with 32-page (256 KB)
#: I/Os.
IO_UNIT_PAGES = 32

#: In-flight I/O units per scan (pipeline lookahead window).
PIPELINE_WINDOW = 8


def mb_per_s(rate_bytes_per_s: float) -> float:
    """Convert a bytes-per-second rate to decimal MB/s for reporting."""
    return rate_bytes_per_s / MB


def fmt_bytes(n: int) -> str:
    """Render a byte count with a human-friendly binary suffix."""
    value = float(n)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or suffix == "TiB":
            return f"{value:.1f} {suffix}" if suffix != "B" else f"{int(value)} B"
        value /= 1024
    raise AssertionError("unreachable")


def fmt_ratio(value: float) -> str:
    """Render a dimensionless ratio (speedup, write amplification)."""
    return f"{value:.2f}x"


def fmt_seconds(t: float) -> str:
    """Render a duration in the most natural unit (us/ms/s)."""
    if t < 1e-3:
        return f"{t / US:.1f} us"
    if t < 1.0:
        return f"{t / MS:.2f} ms"
    return f"{t:.2f} s"
