"""Device pools whose switching probability drifts over time.

Models slow parameter drift (temperature, ageing, bias-voltage wander) as an
Ornstein-Uhlenbeck process on each device's log-odds.  The probability of
state 1 for device alpha at step t is ``sigmoid(x_alpha(t))`` where

    x(t+1) = x(t) + theta * (mu - x(t)) + sigma * xi,   xi ~ N(0, 1).

With ``mu = 0`` the process reverts to a fair coin on average while wandering
around it, the behaviour the paper's Discussion flags as a realistic
imperfection.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import DevicePool
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ValidationError, check_non_negative, check_probability

__all__ = ["DriftingDevicePool"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Numerically stable logistic function.
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    expx = np.exp(x[~positive])
    out[~positive] = expx / (1.0 + expx)
    return out


class DriftingDevicePool(DevicePool):
    """Devices whose probability of state 1 follows a slow OU drift in log-odds.

    Parameters
    ----------
    n_devices:
        Number of devices.
    drift_rate:
        OU mean-reversion rate ``theta`` in ``[0, 1]``.
    drift_scale:
        Standard deviation ``sigma`` of the per-step log-odds innovation.
    target_probability:
        Long-run mean probability (``mu = logit(target_probability)``).
    seed:
        RNG seed.
    """

    def __init__(
        self,
        n_devices: int,
        drift_rate: float = 0.01,
        drift_scale: float = 0.05,
        target_probability: float = 0.5,
        seed: RandomState = None,
    ) -> None:
        super().__init__(n_devices)
        drift_rate = float(drift_rate)
        if not (0.0 <= drift_rate <= 1.0):
            raise ValidationError(f"drift_rate must be in [0, 1], got {drift_rate}")
        self._theta = drift_rate
        self._sigma = check_non_negative(drift_scale, "drift_scale")
        target_probability = check_probability(target_probability, "target_probability")
        if target_probability in (0.0, 1.0):
            raise ValidationError("target_probability must be strictly inside (0, 1)")
        self._mu = float(np.log(target_probability / (1.0 - target_probability)))
        self._rng = as_generator(seed)
        self._log_odds = np.full(self.n_devices, self._mu, dtype=np.float64)

    @property
    def current_probabilities(self) -> np.ndarray:
        """Current per-device probability of state 1."""
        return _sigmoid(self._log_odds)

    def reset(self) -> None:
        """Reset every device's log-odds to the long-run mean."""
        self._log_odds[:] = self._mu

    def sample(self, n_steps: int) -> np.ndarray:
        n_steps = self._check_steps(n_steps)
        if n_steps == 0:
            return np.zeros((0, self.n_devices), dtype=np.int8)
        states = np.empty((n_steps, self.n_devices), dtype=np.int8)
        log_odds = self._log_odds
        innovations = self._rng.standard_normal((n_steps, self.n_devices))
        uniforms = self._rng.random((n_steps, self.n_devices))
        for t in range(n_steps):
            log_odds = log_odds + self._theta * (self._mu - log_odds) + self._sigma * innovations[t]
            states[t] = (uniforms[t] < _sigmoid(log_odds)).astype(np.int8)
        self._log_odds = log_odds
        return states

    def expected_mean(self) -> np.ndarray:
        return np.full(self.n_devices, _sigmoid(np.array([self._mu]))[0])
