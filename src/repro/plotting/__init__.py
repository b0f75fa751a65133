"""Dependency-free ASCII plotting for convergence curves and sweep summaries.

The evaluation figures in the paper are log-x convergence plots.  Matplotlib
is not a dependency of this library, so the examples and benchmark reports use
these ASCII renderers, which are good enough to see the curve shapes (LIF-GW
flat at the solver level, LIF-TR climbing, random trailing) in a terminal or a
text log.  :func:`ascii_bar_chart` / :func:`render_leaderboard` serve the
solver arena's aggregate leaderboard (``repro run arena --plot``).
"""

from repro.plotting.ascii import (
    ascii_bar_chart,
    ascii_histogram,
    ascii_line_plot,
    render_curves,
    render_leaderboard,
)

__all__ = [
    "ascii_line_plot",
    "ascii_histogram",
    "ascii_bar_chart",
    "render_curves",
    "render_leaderboard",
]
