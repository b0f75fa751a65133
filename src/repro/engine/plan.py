"""Batch-execution plans: how a circuit opts into the batched engine.

A circuit that supports trial-parallel execution exposes
``engine_plan() -> BatchPlan`` describing everything the engine needs to
replay it in batch: the weight matrix, LIF parameters, read-out cadence and
mode, how to build one trial's device pool, and (for plasticity read-outs)
the parameters of the learner the engine trains.  The plan deliberately
lives in its own module, free of engine imports, so :mod:`repro.circuits`
can import it without creating a cycle with :mod:`repro.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.neurons.lif import LIFParameters
from repro.neurons.plasticity import AntiHebbianMinorComponent
from repro.utils.validation import ValidationError

__all__ = ["BatchPlan", "LearnerSpec", "READOUT_MODES"]

#: Read-out modes the engine knows how to batch.
READOUT_MODES = ("membrane", "spike", "plasticity")


@dataclass(frozen=True)
class LearnerSpec:
    """Parameters of a plasticity read-out's anti-Hebbian learner.

    Frozen and hashable: requests whose learners differ have different
    execution shapes, so a trial block's rows always share one learner.
    """

    learning_rate: float
    learning_rate_decay: float = 0.0
    normalize_inputs: bool = True

    def build(self, n_inputs: int, seed) -> AntiHebbianMinorComponent:
        """A learner with one weight row per seed of a list, or 1-D for one seed."""
        return AntiHebbianMinorComponent(
            n_inputs=n_inputs,
            learning_rate=self.learning_rate,
            learning_rate_decay=self.learning_rate_decay,
            normalize_inputs=self.normalize_inputs,
            seed=seed,
        )


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
    learner:
        For ``"plasticity"`` read-outs, the :class:`LearnerSpec` of the
        learner the engine trains.  The engine builds one learner per trial
        block, with one weight row per trial seeded from that trial's
        auxiliary stream (a 1-D learner for a one-trial block), and trains
        it on a chunk of read-out rounds per
        :meth:`~repro.neurons.plasticity.AntiHebbianMinorComponent.train_readouts`
        call.  Each row evolves exactly as a single trial's learner would on
        its own.
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
    learner: Optional[LearnerSpec] = None
    sparse_weights: Optional[Callable] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.readout not in READOUT_MODES:
            raise ValidationError(
                f"readout must be one of {READOUT_MODES}, got {self.readout!r}"
            )
        if self.readout == "plasticity" and self.learner is None:
            raise ValidationError("plasticity readout requires a learner spec")
        if self.burn_in < 0:
            raise ValidationError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.interval < 1:
            raise ValidationError(f"interval must be >= 1, got {self.interval}")

    @property
    def n_neurons(self) -> int:
        return int(np.asarray(self.weights).shape[0])
