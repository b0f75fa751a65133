"""Device pool interface and empirical device statistics.

A *device pool* is a collection of ``n_devices`` binary stochastic elements.
Calling :meth:`DevicePool.sample` with ``n_steps`` returns an
``(n_steps, n_devices)`` int8 array of 0/1 states — the raw randomness the
neuromorphic circuits integrate.  Pools are stateful only where the physical
model requires it (drift, telegraph noise); sampling is always vectorised
over time steps.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ValidationError

__all__ = ["DevicePool", "DeviceStatistics", "estimate_statistics"]


class DevicePool(abc.ABC):
    """Abstract pool of binary stochastic devices."""

    def __init__(self, n_devices: int) -> None:
        n_devices = int(n_devices)
        if n_devices < 1:
            raise ValidationError(f"n_devices must be >= 1, got {n_devices}")
        self._n_devices = n_devices

    @property
    def n_devices(self) -> int:
        """Number of devices in the pool."""
        return self._n_devices

    @abc.abstractmethod
    def sample(self, n_steps: int) -> np.ndarray:
        """Draw *n_steps* simultaneous states of every device.

        Returns
        -------
        numpy.ndarray
            ``(n_steps, n_devices)`` array of 0/1 values (int8).
        """

    def sample_step(self) -> np.ndarray:
        """Draw a single time step: ``(n_devices,)`` array of 0/1 values."""
        return self.sample(1)[0]

    @abc.abstractmethod
    def expected_mean(self) -> np.ndarray:
        """Theoretical per-device mean state (length ``n_devices``)."""

    def expected_covariance(self) -> np.ndarray:
        """Theoretical device-state covariance matrix.

        The default implementation assumes independent devices, i.e. a
        diagonal matrix with Bernoulli variances ``p (1 - p)``.
        Subclasses with engineered correlations override this.
        """
        p = self.expected_mean()
        return np.diag(p * (1.0 - p))

    def _check_steps(self, n_steps: int) -> int:
        n_steps = int(n_steps)
        if n_steps < 0:
            raise ValidationError(f"n_steps must be non-negative, got {n_steps}")
        return n_steps

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return f"{type(self).__name__}(n_devices={self._n_devices})"


@dataclass(frozen=True)
class DeviceStatistics:
    """Empirical statistics of a sampled device pool."""

    mean: np.ndarray            # per-device empirical mean, shape (r,)
    covariance: np.ndarray      # empirical covariance, shape (r, r)
    n_steps: int

    @property
    def max_bias(self) -> float:
        """Largest deviation of any device's mean from the fair-coin value 0.5."""
        if self.mean.size == 0:
            return 0.0
        return float(np.max(np.abs(self.mean - 0.5)))

    @property
    def max_cross_correlation(self) -> float:
        """Largest absolute off-diagonal correlation coefficient."""
        if self.covariance.shape[0] < 2:
            return 0.0
        std = np.sqrt(np.clip(np.diag(self.covariance), 1e-30, None))
        corr = self.covariance / np.outer(std, std)
        off_diag = corr - np.diag(np.diag(corr))
        return float(np.max(np.abs(off_diag)))


def estimate_statistics(pool: DevicePool, n_steps: int = 10_000) -> DeviceStatistics:
    """Estimate the empirical mean and covariance of *pool* from *n_steps* samples."""
    if n_steps < 2:
        raise ValidationError(f"n_steps must be >= 2 to estimate covariance, got {n_steps}")
    states = pool.sample(n_steps).astype(np.float64)
    mean = states.mean(axis=0)
    covariance = np.cov(states, rowvar=False)
    covariance = np.atleast_2d(covariance)
    return DeviceStatistics(mean=mean, covariance=covariance, n_steps=n_steps)
