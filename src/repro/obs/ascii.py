"""Shared ASCII trend rendering for reports and timelines.

Two renderers live here so every text surface draws trends the same
way:

- :func:`render_curves` -- the latency/throughput hockey-stick chart
  used by the examples, the benchmark harness, and ``report --history``.
- :func:`sparkline` -- a one-line amplitude strip for metric timelines
  (``repro.obs.timeline``); gaps (``None`` samples) render as spaces.

Both are pure functions of their inputs, so any report built from them
is byte-stable across same-seed runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: One marker per series, assigned in insertion order.
MARKERS = "ox+*#@%&"

#: Amplitude ramp for :func:`sparkline`, lowest to highest.
SPARK_LEVELS = " .:-=+*#%@"


def render_curves(series: Dict[str, List[Tuple[float, float]]],
                  width: int = 64, height: int = 16,
                  x_label: str = "throughput",
                  y_label: str = "p99") -> str:
    """Plot ``{name: [(x, y), ...]}`` as an ASCII chart.

    Axes are linear and auto-scaled over all series; each series gets
    a marker from :data:`MARKERS`; a legend follows the chart.
    """
    if not series:
        raise ValueError("no series to plot")
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise ValueError("series contain no points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, pts) in enumerate(series.items()):
        marker = MARKERS[index % len(MARKERS)]
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = (height - 1) - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = marker

    lines = []
    for row_index, row in enumerate(grid):
        prefix = f"{y_hi:>10,.0f} |" if row_index == 0 else (
            f"{y_lo:>10,.0f} |" if row_index == height - 1 else
            " " * 10 + " |")
        lines.append(prefix + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(" " * 11 + f"{x_lo:,.0f}".ljust(width // 2)
                 + f"{x_hi:,.0f}".rjust(width // 2)
                 + f"  ({x_label}; y={y_label})")
    legend = "   ".join(f"{MARKERS[i % len(MARKERS)]} {name}"
                        for i, name in enumerate(series))
    lines.append(" " * 11 + legend)
    return "\n".join(lines)


def sparkline(values: Sequence[Optional[float]], width: int = 60,
              lo: Optional[float] = None,
              hi: Optional[float] = None) -> str:
    """Render a value sequence as a one-line amplitude strip.

    The sequence is resampled to at most ``width`` cells (each cell is
    the mean of its slice); ``None`` entries mark no-data windows and
    render as spaces while keeping their position, so gaps stay visible.
    ``lo``/``hi`` pin the scale (defaults: observed min/max); a flat
    series renders at mid-ramp.
    """
    n = len(values)
    if n == 0:
        return ""
    width = max(1, min(width, n))
    cells: List[Optional[float]] = []
    for i in range(width):
        chunk = [v for v in values[i * n // width:(i + 1) * n // width]
                 if v is not None]
        cells.append(sum(chunk) / len(chunk) if chunk else None)
    present = [c for c in cells if c is not None]
    if not present:
        return " " * width
    lo = min(present) if lo is None else lo
    hi = max(present) if hi is None else hi
    span = hi - lo
    top = len(SPARK_LEVELS) - 1
    out = []
    for c in cells:
        if c is None:
            out.append(" ")
        elif span <= 0:
            out.append(SPARK_LEVELS[top // 2])
        else:
            frac = (c - lo) / span
            out.append(SPARK_LEVELS[max(0, min(top, int(frac * top + 0.5)))])
    return "".join(out)
