"""Random-telegraph-noise device pool.

Magnetic tunnel junctions and similar two-state devices switch between states
with characteristic dwell times rather than re-flipping independently every
clock tick.  This pool models each device as a two-state Markov chain with
per-step switching probabilities ``p_{0->1}`` and ``p_{1->0}``, which produces
temporally correlated bit streams (the imperfection the paper's Discussion
calls "internal correlations").

With symmetric switching probabilities the stationary distribution is a fair
coin, but consecutive samples are positively correlated when the switching
probability is below 0.5.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import DevicePool
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_probability

__all__ = ["TelegraphNoisePool"]


class TelegraphNoisePool(DevicePool):
    """Two-state Markov (random telegraph noise) devices.

    Parameters
    ----------
    n_devices:
        Number of devices.
    switch_up:
        Per-step probability of a 0 -> 1 transition.
    switch_down:
        Per-step probability of a 1 -> 0 transition (defaults to *switch_up*).
    seed:
        RNG seed.
    """

    def __init__(
        self,
        n_devices: int,
        switch_up: float = 0.5,
        switch_down: float | None = None,
        seed: RandomState = None,
    ) -> None:
        super().__init__(n_devices)
        self._p_up = check_probability(switch_up, "switch_up")
        self._p_down = check_probability(
            switch_up if switch_down is None else switch_down, "switch_down"
        )
        self._rng = as_generator(seed)
        # Start each device in its stationary distribution.
        stationary_p1 = self.expected_mean()
        self._state = (self._rng.random(self.n_devices) < stationary_p1).astype(np.int8)

    @property
    def switching_probabilities(self) -> tuple[float, float]:
        """``(p_up, p_down)`` per-step switching probabilities."""
        return self._p_up, self._p_down

    def lag1_autocorrelation(self) -> float:
        """Theoretical lag-1 autocorrelation ``1 - p_up - p_down`` of each device."""
        return 1.0 - self._p_up - self._p_down

    def sample(self, n_steps: int) -> np.ndarray:
        n_steps = self._check_steps(n_steps)
        if n_steps == 0:
            return np.zeros((0, self.n_devices), dtype=np.int8)
        states = np.empty((n_steps, self.n_devices), dtype=np.int8)
        state = self._state
        uniforms = self._rng.random((n_steps, self.n_devices))
        for t in range(n_steps):
            switch_prob = np.where(state == 0, self._p_up, self._p_down)
            flips = uniforms[t] < switch_prob
            state = np.where(flips, 1 - state, state).astype(np.int8)
            states[t] = state
        self._state = state
        return states

    def expected_mean(self) -> np.ndarray:
        total = self._p_up + self._p_down
        if total == 0.0:
            # Devices never switch: they stay wherever they started; report 0.5
            # as the ensemble mean over random initial states.
            stationary = 0.5
        else:
            stationary = self._p_up / total
        return np.full(self.n_devices, stationary)
