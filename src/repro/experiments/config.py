"""Experiment configuration dataclasses and the paper's parameter grids.

All four configs share the :class:`repro.utils.validation.ValidatedConfig`
mixin: each declares its invariants in a single ``validate()`` hook (wired
into dataclass construction by the mixin) and inherits ``to_dict()``, the
JSON-safe rendering the workload layer embeds in every
:class:`repro.workloads.RunReport` metadata header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.utils.validation import ValidatedConfig, ValidationError, check_count

__all__ = [
    "PAPER_FIGURE3_SIZES",
    "PAPER_FIGURE3_PROBABILITIES",
    "PAPER_SAMPLE_BUDGET",
    "Figure3Config",
    "Figure4Config",
    "Table1Config",
    "AblationConfig",
]

#: Erdős–Rényi vertex counts used in the paper's Figure 3.
PAPER_FIGURE3_SIZES: Tuple[int, ...] = (50, 100, 200, 350, 500)

#: Erdős–Rényi connection probabilities used in the paper's Figure 3.
PAPER_FIGURE3_PROBABILITIES: Tuple[float, ...] = (0.1, 0.25, 0.5, 0.75)

#: The paper draws 2^20 cut samples per circuit per graph.
PAPER_SAMPLE_BUDGET: int = 2**20


@dataclass(frozen=True)
class Figure3Config(ValidatedConfig):
    """Configuration of the Figure 3 Erdős–Rényi sweep.

    Defaults are scaled down from the paper (10 graphs per cell, 2^20 samples)
    so the sweep completes on a laptop; pass the paper values explicitly to
    regenerate the full figure.
    """

    sizes: Sequence[int] = PAPER_FIGURE3_SIZES
    probabilities: Sequence[float] = PAPER_FIGURE3_PROBABILITIES
    n_graphs_per_cell: int = 10
    n_samples: int = 1024
    n_solver_samples: int = 100
    seed: Optional[int] = 0
    lif_gw: LIFGWConfig = field(default_factory=LIFGWConfig)
    lif_tr: LIFTrevisanConfig = field(default_factory=LIFTrevisanConfig)

    def validate(self) -> None:
        check_count(self.n_samples, "n_samples")
        check_count(self.n_graphs_per_cell, "n_graphs_per_cell")
        check_count(self.n_solver_samples, "n_solver_samples")
        if not self.sizes or not self.probabilities:
            raise ValidationError("sizes and probabilities must be non-empty")
        for n in self.sizes:
            check_count(n, "graph sizes", minimum=2)
        for p in self.probabilities:
            if not (0.0 < p <= 1.0):
                raise ValidationError(f"probabilities must be in (0, 1], got {p}")


@dataclass(frozen=True)
class Figure4Config(ValidatedConfig):
    """Configuration of the Figure 4 empirical-graph sweep."""

    n_samples: int = 1024
    n_solver_samples: int = 100
    seed: Optional[int] = 0
    lif_gw: LIFGWConfig = field(default_factory=LIFGWConfig)
    lif_tr: LIFTrevisanConfig = field(default_factory=LIFTrevisanConfig)

    def validate(self) -> None:
        check_count(self.n_samples, "n_samples")
        check_count(self.n_solver_samples, "n_solver_samples")


@dataclass(frozen=True)
class Table1Config(ValidatedConfig):
    """Configuration of the Table I maximum-cut-value reproduction."""

    n_samples: int = 2048
    n_solver_samples: int = 200
    n_random_samples: int = 2048
    seed: Optional[int] = 0
    lif_gw: LIFGWConfig = field(default_factory=LIFGWConfig)
    lif_tr: LIFTrevisanConfig = field(default_factory=LIFTrevisanConfig)

    def validate(self) -> None:
        check_count(self.n_samples, "n_samples")
        check_count(self.n_solver_samples, "n_solver_samples")
        check_count(self.n_random_samples, "n_random_samples")


@dataclass(frozen=True)
class AblationConfig(ValidatedConfig):
    """Shared configuration for the ablation studies (DESIGN.md E4/E6)."""

    n_vertices: int = 60
    edge_probability: float = 0.25
    n_graphs: int = 3
    n_samples: int = 512
    seed: Optional[int] = 0

    def validate(self) -> None:
        check_count(self.n_vertices, "n_vertices", minimum=2)
        check_count(self.n_graphs, "n_graphs")
        check_count(self.n_samples, "n_samples")
        if not (0.0 < self.edge_probability <= 1.0):
            raise ValidationError(
                f"edge_probability must be in (0, 1], got {self.edge_probability}"
            )
