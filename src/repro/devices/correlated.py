"""Device pools with engineered cross-device correlation.

Real device arrays can show correlations from shared supply lines, thermal
coupling, or crosstalk.  This pool produces binary states whose pairwise
correlation is (approximately) a target value ``rho`` for every pair, using a
Gaussian copula: a common factor plus an independent factor are mixed and
thresholded at zero.

For threshold-at-zero Bernoulli(0.5) marginals, a latent Gaussian correlation
``rho_g`` yields binary correlation ``(2/pi) arcsin(rho_g)``; the constructor
inverts that map so the *binary* correlation matches the request.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import DevicePool
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ValidationError

__all__ = ["CorrelatedDevicePool"]


class CorrelatedDevicePool(DevicePool):
    """Equicorrelated binary devices with Bernoulli(0.5) marginals.

    Parameters
    ----------
    n_devices:
        Number of devices.
    correlation:
        Target pairwise correlation of the binary states, in ``(-1/(r-1), 1)``
        practically restricted to ``[0, 1)`` (a single common factor cannot
        produce strong negative equicorrelation).
    seed:
        RNG seed.
    """

    def __init__(
        self, n_devices: int, correlation: float, seed: RandomState = None
    ) -> None:
        super().__init__(n_devices)
        correlation = float(correlation)
        if not (0.0 <= correlation < 1.0):
            raise ValidationError(
                f"correlation must be in [0, 1), got {correlation}"
            )
        self._binary_correlation = correlation
        # Invert rho_binary = (2/pi) * arcsin(rho_gaussian).
        self._gaussian_correlation = float(np.sin(np.pi * correlation / 2.0))
        self._rng = as_generator(seed)

    @property
    def correlation(self) -> float:
        """Target pairwise binary correlation."""
        return self._binary_correlation

    def sample(self, n_steps: int) -> np.ndarray:
        n_steps = self._check_steps(n_steps)
        if n_steps == 0:
            return np.zeros((0, self.n_devices), dtype=np.int8)
        rho = self._gaussian_correlation
        common = self._rng.standard_normal((n_steps, 1))
        independent = self._rng.standard_normal((n_steps, self.n_devices))
        latent = np.sqrt(rho) * common + np.sqrt(1.0 - rho) * independent
        return (latent > 0.0).astype(np.int8)

    def expected_mean(self) -> np.ndarray:
        return np.full(self.n_devices, 0.5)

    def expected_covariance(self) -> np.ndarray:
        variance = 0.25
        covariance = np.full(
            (self.n_devices, self.n_devices), self._binary_correlation * variance
        )
        np.fill_diagonal(covariance, variance)
        return covariance
