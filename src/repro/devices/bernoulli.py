"""Independent Bernoulli device pools: fair coins (the paper's model) and biased coins."""

from __future__ import annotations

import numpy as np

from repro.devices.base import DevicePool
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ValidationError, check_probability

__all__ = ["FairCoinPool", "BiasedCoinPool"]


class FairCoinPool(DevicePool):
    """Pool of independent fair coins — the idealised device of the paper.

    Every device is 0 or 1 with probability exactly 0.5, independently across
    devices and time steps.
    """

    def __init__(self, n_devices: int, seed: RandomState = None) -> None:
        super().__init__(n_devices)
        self._rng = as_generator(seed)

    def sample(self, n_steps: int) -> np.ndarray:
        n_steps = self._check_steps(n_steps)
        return self._rng.integers(
            0, 2, size=(n_steps, self.n_devices), dtype=np.int8
        )

    def expected_mean(self) -> np.ndarray:
        return np.full(self.n_devices, 0.5)


class BiasedCoinPool(DevicePool):
    """Pool of independent biased coins with per-device success probabilities.

    Models fabrication variability: each device has its own probability
    ``p_alpha`` of being in state 1.
    """

    def __init__(
        self,
        probabilities: np.ndarray | float,
        n_devices: int | None = None,
        seed: RandomState = None,
    ) -> None:
        if np.isscalar(probabilities):
            if n_devices is None:
                raise ValidationError(
                    "n_devices is required when probabilities is a scalar"
                )
            probabilities = np.full(int(n_devices), float(probabilities))
        probabilities = np.asarray(probabilities, dtype=np.float64)
        if probabilities.ndim != 1:
            raise ValidationError("probabilities must be 1-D")
        for p in probabilities:
            check_probability(p, "device probability")
        super().__init__(probabilities.shape[0])
        self._probabilities = probabilities
        self._rng = as_generator(seed)

    @property
    def probabilities(self) -> np.ndarray:
        """Per-device probability of state 1."""
        return self._probabilities.copy()

    def sample(self, n_steps: int) -> np.ndarray:
        n_steps = self._check_steps(n_steps)
        uniform = self._rng.random((n_steps, self.n_devices))
        return (uniform < self._probabilities[None, :]).astype(np.int8)

    def expected_mean(self) -> np.ndarray:
        return self._probabilities.copy()
