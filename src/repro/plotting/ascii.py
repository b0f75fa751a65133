"""ASCII renderers for line plots and histograms."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.utils.validation import ValidationError

__all__ = ["ascii_line_plot", "ascii_histogram", "ascii_bar_chart", "render_curves", "render_leaderboard"]

#: Plot symbols assigned to series in insertion order (mirrors the paper's legend).
_SERIES_SYMBOLS = "ox^*+#%@"


def _normalise_series(series: Mapping[str, Sequence[float]]) -> Dict[str, np.ndarray]:
    out: Dict[str, np.ndarray] = {}
    for name, values in series.items():
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"series {name!r} must be a non-empty 1-D sequence")
        out[str(name)] = arr
    if not out:
        raise ValidationError("at least one series is required")
    lengths = {arr.size for arr in out.values()}
    if len(lengths) != 1:
        raise ValidationError(f"all series must have the same length, got {lengths}")
    return out


def ascii_line_plot(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 70,
    height: int = 18,
    title: str = "",
    log_x: bool = False,
    y_range: Optional[tuple[float, float]] = None,
) -> str:
    """Render one or more series as an ASCII line plot.

    Parameters
    ----------
    x:
        Shared x-coordinates.
    series:
        Mapping of label -> y-values (all the same length as *x*).
    width, height:
        Character dimensions of the plot area (axes add a margin).
    log_x:
        Plot x on a log10 scale (the paper's sample-count axis).
    y_range:
        Optional fixed (ymin, ymax); defaults to the data range padded by 5%.
    """
    if width < 10 or height < 4:
        raise ValidationError("width must be >= 10 and height >= 4")
    data = _normalise_series(series)
    x_arr = np.asarray(x, dtype=np.float64)
    n_points = next(iter(data.values())).size
    if x_arr.shape != (n_points,):
        raise ValidationError(f"x must have length {n_points}, got {x_arr.shape}")

    if log_x:
        if np.any(x_arr <= 0):
            raise ValidationError("log_x requires strictly positive x values")
        x_plot = np.log10(x_arr)
    else:
        x_plot = x_arr

    all_y = np.concatenate(list(data.values()))
    if y_range is None:
        y_min, y_max = float(all_y.min()), float(all_y.max())
        pad = 0.05 * (y_max - y_min) if y_max > y_min else max(abs(y_max), 1.0) * 0.05
        y_min, y_max = y_min - pad, y_max + pad
    else:
        y_min, y_max = float(y_range[0]), float(y_range[1])
        if y_max <= y_min:
            raise ValidationError("y_range must satisfy ymax > ymin")

    x_min, x_max = float(x_plot.min()), float(x_plot.max())
    x_span = x_max - x_min if x_max > x_min else 1.0
    y_span = y_max - y_min

    grid = [[" "] * width for _ in range(height)]
    for series_index, (name, values) in enumerate(data.items()):
        symbol = _SERIES_SYMBOLS[series_index % len(_SERIES_SYMBOLS)]
        for xi, yi in zip(x_plot, values):
            col = int(round((xi - x_min) / x_span * (width - 1)))
            row = int(round((y_max - yi) / y_span * (height - 1)))
            col = min(max(col, 0), width - 1)
            row = min(max(row, 0), height - 1)
            grid[row][col] = symbol

    lines = []
    if title:
        lines.append(title)
    for row_index, row in enumerate(grid):
        y_value = y_max - row_index * y_span / (height - 1)
        lines.append(f"{y_value:8.3f} |" + "".join(row))
    x_label_left = f"{x_arr.min():g}"
    x_label_right = f"{x_arr.max():g}"
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(
        " " * 10 + x_label_left
        + " " * max(1, width - len(x_label_left) - len(x_label_right))
        + x_label_right
    )
    legend = "  ".join(
        f"{_SERIES_SYMBOLS[i % len(_SERIES_SYMBOLS)]}={name}" for i, name in enumerate(data)
    )
    lines.append(" " * 10 + legend + ("   (log x)" if log_x else ""))
    return "\n".join(lines)


def ascii_histogram(
    values: Sequence[float],
    n_bins: int = 20,
    width: int = 50,
    title: str = "",
) -> str:
    """Render a horizontal ASCII histogram of *values*."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("values must be a non-empty 1-D sequence")
    if n_bins < 1 or width < 1:
        raise ValidationError("n_bins and width must be >= 1")
    counts, edges = np.histogram(arr, bins=n_bins)
    peak = counts.max() if counts.max() > 0 else 1
    lines = [title] if title else []
    for i, count in enumerate(counts):
        bar = "#" * int(round(count / peak * width))
        lines.append(f"{edges[i]:10.3f} - {edges[i + 1]:10.3f} | {bar} {count}")
    return "\n".join(lines)


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    title: str = "",
    value_format: str = "{:.3f}",
) -> str:
    """Render labelled values as a horizontal ASCII bar chart.

    Bars are scaled to the largest value; labels are right-aligned so the
    bars share a common baseline.  Used by ``repro run arena --plot`` for the
    arena leaderboard.
    """
    labels = [str(label) for label in labels]
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("values must be a non-empty 1-D sequence")
    if len(labels) != arr.size:
        raise ValidationError(
            f"labels and values must have the same length, got {len(labels)} and {arr.size}"
        )
    if width < 1:
        raise ValidationError("width must be >= 1")
    if np.any(arr < 0):
        raise ValidationError("bar values must be non-negative")
    peak = float(arr.max()) if arr.max() > 0 else 1.0
    label_width = max(len(label) for label in labels)
    lines = [title] if title else []
    for label, value in zip(labels, arr):
        bar = "#" * int(round(value / peak * width))
        lines.append(
            f"{label.rjust(label_width)} | {bar} {value_format.format(float(value))}"
        )
    return "\n".join(lines)


def render_leaderboard(result, width: int = 50) -> str:
    """Bar chart of an arena run's aggregate mean cut ratios (best first).

    *result* is a :class:`repro.arena.results.ArenaResult`; only its
    ``aggregate()`` rows are consulted, keeping the plotting layer free of
    arena imports.
    """
    rows = result.aggregate()
    if not rows:
        raise ValidationError("arena result has no entries to plot")
    return ascii_bar_chart(
        [str(row["solver"]) for row in rows],
        [float(row["mean_ratio"]) for row in rows],
        width=width,
        title=f"mean cut ratio by solver (suite {result.suite!r})",
    )


def render_curves(
    sample_counts: Sequence[int],
    curves: Mapping[str, Sequence[float]],
    title: str = "",
) -> str:
    """Convenience wrapper: log-x convergence plot in the paper's style."""
    return ascii_line_plot(
        sample_counts,
        curves,
        title=title,
        log_x=True,
        y_range=None,
    )
