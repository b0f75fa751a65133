"""Experiment harness: one module per paper artifact (Figure 3, Figure 4, Table I)
plus ablations and report formatting.

Each experiment module exposes the unit body of its workload — one Figure 3
graph (:func:`run_figure3_graph`), one Figure 4 panel, one Table I row, one
ablation sweep (optionally a subset of its settings) — returning plain
dataclasses/dictionaries, and :mod:`repro.experiments.reporting` renders them
as the rows/series the paper prints.  Whole sweeps run as the registered
``figure3`` / ``figure4`` / ``table1`` / ``ablation`` workloads
(:mod:`repro.workloads.paper`); the full paper-scale budgets are a parameter
change, not a code change.
"""

from repro.experiments.config import (
    Figure3Config,
    Figure4Config,
    Table1Config,
    AblationConfig,
    PAPER_FIGURE3_SIZES,
    PAPER_FIGURE3_PROBABILITIES,
)
from repro.experiments.figure3 import (
    Figure3Cell,
    figure3_cell_from_graph_results,
    run_figure3_graph,
)
from repro.experiments.figure4 import Figure4Panel, run_figure4_panel
from repro.experiments.table1 import Table1Row, run_table1_row
from repro.experiments.ablations import (
    run_device_imperfection_ablation,
    run_rank_ablation,
    run_learning_rate_ablation,
)
from repro.experiments.reporting import (
    format_table,
    format_figure3_report,
    format_figure4_report,
    format_table1_report,
    curves_to_rows,
)

__all__ = [
    "Figure3Config",
    "Figure4Config",
    "Table1Config",
    "AblationConfig",
    "PAPER_FIGURE3_SIZES",
    "PAPER_FIGURE3_PROBABILITIES",
    "Figure3Cell",
    "run_figure3_graph",
    "figure3_cell_from_graph_results",
    "Figure4Panel",
    "run_figure4_panel",
    "Table1Row",
    "run_table1_row",
    "run_device_imperfection_ablation",
    "run_rank_ablation",
    "run_learning_rate_ablation",
    "format_table",
    "format_figure3_report",
    "format_figure4_report",
    "format_table1_report",
    "curves_to_rows",
]
