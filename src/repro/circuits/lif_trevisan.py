"""LIF-Trevisan circuit (paper §IV.B, Figure 2).

Pipeline (no offline preprocessing — the whole computation happens in-circuit):

1. Build a pool of ``n`` stochastic devices (one per vertex) and a LIF
   population of ``n`` neurons with device-to-neuron weights proportional to
   the Trevisan matrix ``T = I + D^{-1/2} A D^{-1/2}``.
2. The stationary membrane covariance is then proportional to ``T T^T = T^2``
   (paper §III.C).  ``T`` is symmetric positive semidefinite, so ``T^2`` has
   the same eigenvectors as ``T`` with squared eigenvalues, and in particular
   the *minimum* eigenvector of the membrane covariance is the minimum
   eigenvector of the normalized adjacency — exactly the vector the Trevisan
   simple-spectral algorithm thresholds.
3. A stage-2 output neuron receives the LIF membrane activity through a
   weight vector ``w`` updated by Oja's anti-Hebbian (minor-component) rule.
   The rule converges to that minimum eigenvector; the circuit's cut read-out
   is ``sign(w)``, sampled every ``sample_interval`` plasticity steps.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuits.base import NeuromorphicCircuit
from repro.circuits.config import LIFTrevisanConfig
from repro.devices.base import DevicePool
from repro.devices.bernoulli import FairCoinPool
from repro.graphs.graph import Graph
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ValidationError

__all__ = ["LIFTrevisanCircuit"]


class LIFTrevisanCircuit(NeuromorphicCircuit):
    """Neuromorphic implementation of the Trevisan simple-spectral algorithm.

    Parameters
    ----------
    graph:
        Graph to cut.
    config:
        Circuit configuration (plasticity schedule, LIF parameters, ...).
    device_pool_factory:
        Callable ``(n_devices, rng) -> DevicePool``; defaults to independent
        fair coins, one device per graph vertex (the paper's resource count).
    """

    name = "lif_tr"

    def __init__(
        self,
        graph: Graph,
        config: Optional[LIFTrevisanConfig] = None,
        device_pool_factory=None,
    ) -> None:
        super().__init__(graph)
        self.config = config or LIFTrevisanConfig()
        self._device_pool_factory = device_pool_factory or (
            lambda n_devices, rng: FairCoinPool(n_devices, seed=rng)
        )
        # The in-circuit "program": weights proportional to the Trevisan matrix.
        self._trevisan_matrix = graph.trevisan_matrix()

    # ------------------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """Device-to-neuron weight matrix ``weight_scale * (I + D^{-1/2} A D^{-1/2})``."""
        return self.config.weight_scale * self._trevisan_matrix

    def build_device_pool(self, rng: RandomState = None) -> DevicePool:
        """Construct the device pool: one random device per graph vertex."""
        pool = self._device_pool_factory(self.graph.n_vertices, as_generator(rng))
        if pool.n_devices != self.graph.n_vertices:
            raise ValidationError(
                f"device pool must have {self.graph.n_vertices} devices, "
                f"got {pool.n_devices}"
            )
        return pool

    def engine_plan(self):
        """Batch-execution recipe for :class:`repro.engine.BatchedSolverEngine`.

        The read-out is ``"plasticity"``: the engine builds the
        :class:`~repro.engine.plan.LearnerSpec`'s anti-Hebbian learner once
        per trial block, with one weight row per trial (each row seeded
        from its trial's auxiliary stream), and it consumes every
        post-burn-in membrane row of all trials at once.  A sparse
        Trevisan weight builder is provided so the engine's ``auto`` backend
        can switch to CSR products on large low-density graphs; it reuses the
        graph's cached CSR adjacency rather than rebuilding it per call.
        """
        import scipy.sparse as sp

        from repro.engine.plan import BatchPlan, LearnerSpec

        config = self.config
        n = self.graph.n_vertices

        def sparse_weights():
            return config.weight_scale * (
                sp.identity(n, format="csr") + self.graph.to_csr(normalized=True)
            )

        return BatchPlan(
            weights=self.weights,
            lif=config.lif,
            burn_in=config.burn_in_steps,
            interval=config.sample_interval,
            readout="plasticity",
            n_devices=n,
            learner=LearnerSpec(
                learning_rate=config.learning_rate,
                learning_rate_decay=config.learning_rate_decay,
                normalize_inputs=config.normalize_plasticity_inputs,
            ),
            sparse_weights=sparse_weights,
            metadata={"learning_rate": config.learning_rate},
        )
