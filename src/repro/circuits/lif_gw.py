"""LIF-Goemans-Williamson circuit (paper §IV.A, Figure 1).

Pipeline:

1. Solve the MAXCUT SDP offline (Burer-Monteiro, rank ``config.rank``) to get
   unit vectors ``w_i`` — one per vertex.
2. Build a pool of ``rank`` stochastic devices and a LIF population of ``n``
   neurons with device-to-neuron weights ``W = weight_scale * W_GW``.
3. Simulate the LIF membranes.  With centred fair-coin inputs the stationary
   membrane covariance is proportional to the SDP Gram matrix
   ``W_GW W_GW^T`` (paper §III.C), so thresholding the membranes at zero
   every ``sample_interval`` steps performs the Bertsimas-Ye Gaussian
   rounding of the SDP solution.  The alternative ``"spike"`` readout maps
   spiking vs. silent neurons at the read-out step to the two sides of the
   cut, exactly as the hardware circuit would.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuits.base import NeuromorphicCircuit
from repro.circuits.config import LIFGWConfig
from repro.devices.base import DevicePool
from repro.devices.bernoulli import FairCoinPool
from repro.graphs.graph import Graph
from repro.sdp.burer_monteiro import SDPResult, solve_maxcut_sdp
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ValidationError

__all__ = ["LIFGWCircuit"]


class LIFGWCircuit(NeuromorphicCircuit):
    """Neuromorphic implementation of the GW sampling/rounding step.

    Parameters
    ----------
    graph:
        Graph to cut.
    config:
        Circuit configuration (rank, read-out mode, LIF parameters, ...).
    sdp_result:
        Optional pre-computed SDP solution.  When omitted the circuit solves
        the SDP itself during construction (the paper's "offline" step).
    device_pool_factory:
        Callable ``(n_devices, rng) -> DevicePool`` used to build the random
        device pool; defaults to independent fair coins.  Ablation experiments
        substitute biased / correlated / drifting pools here.
    seed:
        Randomness for the SDP initial point (only used when *sdp_result* is
        not supplied).
    """

    name = "lif_gw"

    def __init__(
        self,
        graph: Graph,
        config: Optional[LIFGWConfig] = None,
        sdp_result: Optional[SDPResult] = None,
        device_pool_factory=None,
        seed: RandomState = None,
    ) -> None:
        super().__init__(graph)
        self.config = config or LIFGWConfig()
        self._device_pool_factory = device_pool_factory or (
            lambda n_devices, rng: FairCoinPool(n_devices, seed=rng)
        )

        if sdp_result is None:
            sdp_result = solve_maxcut_sdp(
                graph,
                rank=self.config.rank,
                max_iterations=self.config.sdp_max_iterations,
                tolerance=self.config.sdp_tolerance,
                seed=seed,
            )
        elif sdp_result.vectors.shape != (graph.n_vertices, self.config.rank):
            raise ValidationError(
                "sdp_result.vectors shape "
                f"{sdp_result.vectors.shape} does not match "
                f"(n_vertices={graph.n_vertices}, rank={self.config.rank})"
            )
        self.sdp_result = sdp_result

    # ------------------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """Device-to-neuron weight matrix ``weight_scale * W_GW``."""
        return self.config.weight_scale * self.sdp_result.vectors

    def build_device_pool(self, rng: RandomState = None) -> DevicePool:
        """Construct the stochastic device pool (one device per SDP dimension)."""
        pool = self._device_pool_factory(self.config.rank, as_generator(rng))
        if pool.n_devices != self.config.rank:
            raise ValidationError(
                f"device pool must have {self.config.rank} devices, got {pool.n_devices}"
            )
        return pool

    def engine_plan(self):
        """Batch-execution recipe for :class:`repro.engine.BatchedSolverEngine`.

        The GW weight matrix is a skinny ``(n, rank)`` array, so no sparse
        weight builder is provided — the dense backend is always the right
        choice.
        """
        from repro.engine.plan import BatchPlan

        config = self.config
        return BatchPlan(
            weights=self.weights,
            lif=config.lif,
            burn_in=config.burn_in_steps,
            interval=config.sample_interval,
            readout=config.readout,
            n_devices=config.rank,
            metadata={
                "sdp_objective": self.sdp_result.objective,
                "sdp_converged": self.sdp_result.converged,
                "rank": config.rank,
            },
        )
