"""Synaptic plasticity rules (paper §III.D).

Three rules are implemented:

* plain **Hebbian** updates ``dw = eta * y * x`` (unstable; included for the
  comparison in the paper's exposition),
* **Oja's rule** ``dw = eta * y * (x - y w)``, which converges to the
  principal (largest-eigenvalue) eigenvector of the input covariance, and
* **Oja's anti-Hebbian / minor-component rule**
  ``dw = eta * ( -y x + (y^2 + 1 - w^T w) w )``, which converges to the
  eigenvector of the *smallest* eigenvalue — the rule that drives the
  LIF-Trevisan circuit.

Each rule is provided both as a pure update function (for property tests) and
as a small stateful learner class used by the circuits.

Every rule is rank-agnostic: weights and inputs are ``(..., n)`` arrays of
equal shape and each leading index is an independent row.  The engine steps
a 1-D learner for a one-trial block and one ``(trials, n)`` learner per
larger trial block, through the *same* code.  Row dots use
``np.vecdot``, which calls BLAS ``ddot`` once per row exactly as ``w @ x``
does on a 1-D pair, and the per-row means and norms reduce along the
contiguous last axis, so a batched row is bitwise identical to the same row
stepped alone (``np.einsum`` and ``(w * x).sum(-1)`` are *not*: they sum in
a different order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import ValidationError, check_positive

__all__ = [
    "hebbian_update",
    "oja_update",
    "anti_hebbian_oja_update",
    "OjaPrincipalComponent",
    "AntiHebbianMinorComponent",
]


def _check_pair(w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if w.ndim < 1 or w.shape != x.shape:
        raise ValidationError(
            f"w and x must be (..., n) arrays of equal shape, got {w.shape} and {x.shape}"
        )
    return w, x


def _per_row(values):
    """Give per-row values a trailing unit axis to broadcast over ``(..., n)``.

    A 1-D pair has one row, whose value stays a NumPy scalar: scalar
    arithmetic is IEEE-identical and much cheaper than on 1-element arrays.
    """
    return values[..., None] if values.ndim else values


def _or_one(keep, values):
    """Per-row *values* where *keep* holds, else an exact 1.0.

    The learner's guards divide by this, and dividing by 1.0 leaves a row's
    bits unchanged; a 1-D learner's scalar skips ``np.where``.
    """
    if values.ndim:
        return np.where(keep, values, 1.0)
    return values if keep else 1.0


def _rowdot(a: np.ndarray, b: np.ndarray):
    """Per-row dot ``a . b`` (BLAS ``ddot`` per row), ready to broadcast."""
    return _per_row(np.vecdot(a, b))


def _oja(w: np.ndarray, x: np.ndarray, y: np.ndarray, learning_rate: float) -> np.ndarray:
    return w + learning_rate * y * (x - y * w)


def _anti_hebbian(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, learning_rate: float
) -> np.ndarray:
    # ``c w - y x`` is bitwise ``-y x + c w``: negation is exact and IEEE
    # addition commutes; it saves one pass.
    return w + learning_rate * ((y * y + 1.0 - _rowdot(w, w)) * w - y * x)


def _unit_random(n_inputs: int, seed: RandomState) -> np.ndarray:
    w = as_generator(seed).standard_normal(n_inputs)
    return w / np.linalg.norm(w)


def hebbian_update(w: np.ndarray, x: np.ndarray, learning_rate: float = 0.01) -> np.ndarray:
    """Plain Hebbian update ``w + eta * y * x`` with ``y = w . x`` (unstable)."""
    w, x = _check_pair(w, x)
    check_positive(learning_rate, "learning_rate")
    return w + learning_rate * _rowdot(w, x) * x


def oja_update(w: np.ndarray, x: np.ndarray, learning_rate: float = 0.01) -> np.ndarray:
    """Oja principal-component update ``w + eta * y * (x - y w)``."""
    w, x = _check_pair(w, x)
    check_positive(learning_rate, "learning_rate")
    return _oja(w, x, _rowdot(w, x), learning_rate)


def anti_hebbian_oja_update(
    w: np.ndarray, x: np.ndarray, learning_rate: float = 0.01
) -> np.ndarray:
    """Oja minor-component (anti-Hebbian) update (paper §III.D).

    ``dw = eta * ( -y x + (y^2 + 1 - w^T w) w )`` with ``y = w . x``.
    The ``(1 - w^T w)`` term stabilises the weight norm near 1 while the
    ``-y x`` term pushes *w* away from high-variance directions, so the fixed
    point is the minimum-eigenvalue eigenvector of ``Cov(x)``.
    """
    w, x = _check_pair(w, x)
    check_positive(learning_rate, "learning_rate")
    return _anti_hebbian(w, x, _rowdot(w, x), learning_rate)


@dataclass
class OjaPrincipalComponent:
    """Stateful Oja learner converging to the principal eigenvector of its input."""

    n_inputs: int
    learning_rate: float = 0.01
    seed: RandomState = None
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ValidationError(f"n_inputs must be >= 1, got {self.n_inputs}")
        check_positive(self.learning_rate, "learning_rate")
        self.weights = _unit_random(self.n_inputs, self.seed)

    def step(self, x: np.ndarray, learning_rate: Optional[float] = None) -> float:
        """Apply one Oja update for input *x*; returns the output ``y = w . x``."""
        eta = self.learning_rate if learning_rate is None else learning_rate
        check_positive(eta, "learning_rate")
        w, x = _check_pair(self.weights, x)
        y = np.vecdot(w, x)
        self.weights = _oja(w, x, y, eta)
        return float(y)

    def train(self, inputs: np.ndarray, learning_rate: Optional[float] = None) -> np.ndarray:
        """Apply Oja updates over the rows of *inputs*; returns the outputs."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.n_inputs:
            raise ValidationError(
                f"inputs must have shape (n_steps, {self.n_inputs}), got {inputs.shape}"
            )
        outputs = np.empty(inputs.shape[0])
        for t in range(inputs.shape[0]):
            outputs[t] = self.step(inputs[t], learning_rate)
        return outputs


@dataclass
class AntiHebbianMinorComponent:
    """Stateful anti-Hebbian Oja learner converging to the minor eigenvector.

    This is the learning element of the LIF-Trevisan circuit: the input ``x``
    is the vector of LIF membrane potentials, and the converged weight vector
    is the minimum eigenvector of their covariance.  ``sign(weights)`` is the
    circuit's MAXCUT solution.

    Parameters
    ----------
    n_inputs:
        Input dimension (one per LIF neuron / graph vertex).
    learning_rate:
        Base learning rate ``eta``.
    learning_rate_decay:
        Optional multiplicative decay applied as ``eta / (1 + decay * t)``;
        0 disables the schedule.
    normalize_inputs:
        If True, each input vector is scaled to unit RMS before the update,
        which makes the effective learning rate independent of the membrane
        variance scale (and hence of R/C and the weight magnitudes).
    seed:
        Randomness for the initial unit weight vector.  A list or tuple of
        seeds builds a batch instead: one independent weight row per seed,
        ``(len(seed), n_inputs)`` weights, each row drawn exactly as a 1-D
        learner with that seed draws it.  All rows share the update count
        and hence the learning rate.
    """

    n_inputs: int
    learning_rate: float = 0.01
    learning_rate_decay: float = 0.0
    normalize_inputs: bool = True
    seed: Union[RandomState, Sequence[RandomState]] = None
    weights: np.ndarray = field(init=False)
    n_updates: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.n_inputs < 1:
            raise ValidationError(f"n_inputs must be >= 1, got {self.n_inputs}")
        check_positive(self.learning_rate, "learning_rate")
        if self.learning_rate_decay < 0:
            raise ValidationError("learning_rate_decay must be non-negative")
        if isinstance(self.seed, (list, tuple)):
            self.weights = np.empty((len(self.seed), self.n_inputs))
            for row, seed in zip(self.weights, self.seed):
                row[:] = _unit_random(self.n_inputs, seed)
        else:
            self.weights = _unit_random(self.n_inputs, self.seed)

    def current_learning_rate(self) -> float:
        """Learning rate after the decay schedule at the current update count."""
        return self.learning_rate / (1.0 + self.learning_rate_decay * self.n_updates)

    def step(self, x: np.ndarray) -> Union[float, np.ndarray]:
        """Apply one anti-Hebbian update per weight row; returns ``y = w . x``.

        *x* has the shape of :attr:`weights`; the result is a float for a 1-D
        learner and one output per row for a batch.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.weights.shape:
            raise ValidationError(
                f"x must have shape {self.weights.shape}, got {x.shape}"
            )
        if self.normalize_inputs:
            # np.mean's own reduction and division, minus its Python wrapper.
            rms = _per_row(np.sqrt(np.add.reduce(x * x, axis=-1) / x.shape[-1]))
            x = x / _or_one(rms > 1e-12, rms)
        y = np.vecdot(self.weights, x)
        w = _anti_hebbian(self.weights, x, _per_row(y), self.current_learning_rate())
        # Guard against numerical blow-up: the rule is stable for small eta,
        # but a hard renormalisation above norm 10 keeps pathological settings
        # (huge eta) from overflowing without affecting normal operation.
        # A norm above 10 needs a squared norm above 100, so the usual step
        # with no such row skips the guard; rows under the threshold are
        # divided by 1.0, which is exact.
        squared = _rowdot(w, w)
        if np.count_nonzero(squared > 100.0):
            norm = np.sqrt(squared)
            w /= _or_one(norm > 10.0, norm)
        self.weights = w
        self.n_updates += 1
        return y

    def train(self, inputs: np.ndarray) -> np.ndarray:
        """Apply anti-Hebbian updates over the leading axis of *inputs*; returns outputs."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape[1:] != self.weights.shape:
            raise ValidationError(
                f"inputs must have shape (n_steps, *{self.weights.shape}), "
                f"got {inputs.shape}"
            )
        outputs = np.empty(inputs.shape[:-1])
        for t in range(inputs.shape[0]):
            outputs[t] = self.step(inputs[t])
        return outputs

    def sign_assignment(self) -> np.ndarray:
        """±1 MAXCUT assignment from the sign of the weights (zeros map to -1)."""
        return np.where(self.weights > 0.0, 1, -1).astype(np.int8)
