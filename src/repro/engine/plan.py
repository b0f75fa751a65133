"""Batch-execution plans: how a circuit opts into the batched engine.

A circuit that supports trial-parallel execution exposes
``engine_plan() -> BatchPlan`` describing everything the engine needs to
replay it in batch: the weight matrix, LIF parameters, read-out cadence and
mode, how to build one trial's device pool, and (for plasticity read-outs)
how to build a trial block's learner.  The plan deliberately lives in its own
dependency-free module so :mod:`repro.circuits` can import it without
creating a cycle with :mod:`repro.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.neurons.lif import LIFParameters
from repro.utils.validation import ValidationError

__all__ = ["BatchPlan", "READOUT_MODES"]

#: Read-out modes the engine knows how to batch.
READOUT_MODES = ("membrane", "spike", "plasticity")


@dataclass(frozen=True)
class BatchPlan:
    """Recipe for batched execution of one circuit on its graph.

    Attributes
    ----------
    weights:
        ``(n_neurons, n_devices)`` device-to-neuron weight matrix.
    lif:
        Electrical parameters shared by all trials.
    burn_in:
        Steps integrated before the first read-out round.
    interval:
        Steps between consecutive read-outs.
    readout:
        ``"membrane"`` (sign of the membrane row), ``"spike"`` (spiking vs.
        silent at the read-out step), or ``"plasticity"`` (a learner with one
        weight row per trial consumes every post-burn-in membrane row and its
        weight signs are the read-out).
    n_devices:
        Devices per trial (pool width).
    pool_builder:
        ``(rng) -> DevicePool`` building one trial's device pool.
    plasticity_builder:
        ``(rngs) -> learner`` for ``"plasticity"`` read-outs, called once per
        trial block with one generator per trial (that trial's auxiliary
        stream).  The learner holds ``(len(rngs), n_neurons)`` weights, row
        ``i`` seeded from ``rngs[i]``; ``step(x)`` takes one ``(trials,
        n_neurons)`` membrane row per trial and ``sign_assignment()`` returns
        the ``(trials, n_neurons)`` int8 read-out.  A one-trial block passes
        its single generator instead of a list and steps the resulting 1-D
        learner.  Rows must evolve exactly as a single trial's learner would
        on its own.
    sparse_weights:
        Optional zero-argument builder of a sparse (CSR-compatible) weight
        matrix, enabling the ``sparse`` backend for low-density graphs.
    metadata:
        Circuit extras copied into the result metadata.
    """

    weights: np.ndarray
    lif: LIFParameters
    burn_in: int
    interval: int
    readout: str
    n_devices: int
    pool_builder: Callable
    plasticity_builder: Optional[Callable] = None
    sparse_weights: Optional[Callable] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.readout not in READOUT_MODES:
            raise ValidationError(
                f"readout must be one of {READOUT_MODES}, got {self.readout!r}"
            )
        if self.readout == "plasticity" and self.plasticity_builder is None:
            raise ValidationError(
                "plasticity readout requires a plasticity_builder"
            )
        if self.burn_in < 0:
            raise ValidationError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.interval < 1:
            raise ValidationError(f"interval must be >= 1, got {self.interval}")

    @property
    def n_neurons(self) -> int:
        return int(np.asarray(self.weights).shape[0])
