"""Common interfaces and result containers for the neuromorphic circuits."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cuts.cut import Cut
from repro.graphs.graph import Graph
from repro.utils.rng import RandomState, as_seed_sequence
from repro.utils.validation import ValidationError

__all__ = ["SampleTrajectory", "CircuitResult", "NeuromorphicCircuit"]


@dataclass(frozen=True)
class SampleTrajectory:
    """Per-sample cut weights produced by a circuit run.

    Attributes
    ----------
    weights:
        ``(n_samples,)`` cut weight of each read-out, in sampling order.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ValidationError(f"weights must be 1-D, got shape {weights.shape}")
        object.__setattr__(self, "weights", weights)

    @property
    def n_samples(self) -> int:
        return int(self.weights.shape[0])

    def running_best(self) -> np.ndarray:
        """Running maximum over samples — the y-axis of the paper's Figures 3-4."""
        if self.n_samples == 0:
            return np.zeros(0)
        return np.maximum.accumulate(self.weights)

    def best_weight(self) -> float:
        """Best cut weight observed (0 for an empty trajectory)."""
        return float(self.weights.max()) if self.n_samples else 0.0

    def best_at(self, sample_counts: np.ndarray) -> np.ndarray:
        """Best weight after the given 1-based sample counts (for log-spaced curves)."""
        counts = np.asarray(sample_counts, dtype=np.int64)
        if np.any(counts < 1) or np.any(counts > self.n_samples):
            raise ValidationError(
                f"sample_counts must lie in [1, {self.n_samples}], got {counts}"
            )
        return self.running_best()[counts - 1]


@dataclass(frozen=True)
class CircuitResult:
    """Full result of running a neuromorphic circuit on a graph.

    Attributes
    ----------
    graph_name:
        Name of the graph solved.
    best_cut:
        The best cut found across all samples.
    trajectory:
        Per-sample cut weights (supports the convergence curves of Figs. 3-4).
    n_samples:
        Number of cut samples drawn.
    n_steps:
        Total LIF time steps simulated (burn-in included).
    metadata:
        Circuit-specific extras (SDP objective, final plasticity vector, ...).
    """

    graph_name: str
    best_cut: Cut
    trajectory: SampleTrajectory
    n_samples: int
    n_steps: int
    metadata: dict = field(default_factory=dict)

    @property
    def best_weight(self) -> float:
        return self.best_cut.weight


class NeuromorphicCircuit(abc.ABC):
    """Interface shared by the LIF-GW and LIF-Trevisan circuits."""

    #: short identifier used in experiment tables ("lif_gw" / "lif_tr")
    name: str = "circuit"

    def __init__(self, graph: Graph) -> None:
        if graph.n_vertices < 1:
            raise ValidationError("circuits require a graph with at least one vertex")
        self.graph = graph

    def sample_cuts(
        self, n_samples: int, seed: RandomState = None
    ) -> CircuitResult:
        """Generate *n_samples* cut read-outs and return the full result.

        A one-trial engine solve (dense weights) whose trial seed is *seed*
        itself, so ``sample_cuts(k, seed=SeedSequence(s, spawn_key=(i,)))``
        is bitwise trial *i* of a batched solve with root seed ``s``.  An
        integer or ``None`` seeds a new ``SeedSequence``; a ``Generator``
        contributes four draws from its stream.
        """
        from repro.engine import SolveRequest, solve

        request = SolveRequest(
            circuit=self, n_trials=1, n_samples=n_samples,
            trial_seeds=(as_seed_sequence(seed),), backend="dense",
        )
        return solve(request).circuit_result(0)

    def solve(self, n_samples: int, seed: RandomState = None) -> Cut:
        """Convenience wrapper returning only the best cut found."""
        return self.sample_cuts(n_samples, seed=seed).best_cut

    # ------------------------------------------------------------------
    # Batched execution (repro.engine)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def engine_plan(self):
        """Describe how the engine runs this circuit (a ``BatchPlan``)."""

    def sample_cuts_batch(
        self,
        n_trials: int,
        n_samples: int,
        seed=None,
        backend: str = "auto",
        early_stop=None,
        **request_options,
    ):
        """Run *n_trials* independent trials in one batch.

        With ``backend="dense"``/``"auto"`` (dense selected) and
        ``early_stop=None``, trial *i* of the returned
        :class:`repro.engine.SolveResult` is bit-identical to

            self.sample_cuts(n_samples, seed=np.random.SeedSequence(seed, spawn_key=(i,)))

        while integrating every trial's membranes together, one vectorised
        update per time step.
        """
        from repro.engine import BatchedSolverEngine, SolveRequest

        request = SolveRequest(
            circuit=self,
            n_trials=n_trials,
            n_samples=n_samples,
            seed=seed,
            backend=backend,
            early_stop=early_stop,
            **request_options,
        )
        return BatchedSolverEngine().solve(request)
