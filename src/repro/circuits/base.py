"""The interface shared by the neuromorphic circuits."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from repro.graphs.graph import Graph
from repro.utils.rng import RandomState, as_seed_sequence
from repro.utils.validation import ValidationError

if TYPE_CHECKING:
    from repro.engine.request import SolveResult

__all__ = ["NeuromorphicCircuit"]


class NeuromorphicCircuit(abc.ABC):
    """Interface shared by the LIF-GW and LIF-Trevisan circuits."""

    #: short identifier used in experiment tables ("lif_gw" / "lif_tr")
    name: str = "circuit"

    def __init__(self, graph: Graph) -> None:
        if graph.n_vertices < 1:
            raise ValidationError("circuits require a graph with at least one vertex")
        self.graph = graph

    def sample_cuts(self, n_samples: int, seed: RandomState = None) -> SolveResult:
        """Generate *n_samples* cut read-outs as a one-trial engine solve.

        Returns the :class:`repro.engine.SolveResult` of a one-trial,
        dense-weight request whose trial seed is *seed* itself, so
        ``sample_cuts(k, seed=SeedSequence(s, spawn_key=(i,)))`` is bitwise
        trial *i* of a batched solve with root seed ``s``.  Read the cut
        weight of every read-out from ``trajectories[0]`` and, for LIF-TR,
        the learned row from ``learner_weights[0]``.  An integer or ``None``
        seeds a new ``SeedSequence``; a ``Generator`` contributes four draws
        from its stream.
        """
        from repro.engine import SolveRequest, solve

        return solve(SolveRequest(
            circuit=self, n_trials=1, n_samples=n_samples,
            trial_seeds=(as_seed_sequence(seed),), backend="dense",
        ))

    @abc.abstractmethod
    def engine_plan(self):
        """Describe how the engine runs this circuit (a ``BatchPlan``)."""
