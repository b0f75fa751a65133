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
equal shape and each leading index is an independent row.  The engine trains
a 1-D learner for a one-trial block and one ``(trials, n)`` learner per
larger trial block.  The anti-Hebbian learner's rule runs in one loop,
:meth:`AntiHebbianMinorComponent.train`;
:meth:`~AntiHebbianMinorComponent.train_readouts`, which the engine calls
once per chunk of read-out rounds, is that loop with a sign read-out after
every ``interval``-th step, and :meth:`~AntiHebbianMinorComponent.step` is a
one-step ``train``.  Row dots
use BLAS ``ddot`` once per row (``np.vecdot``, or ``w.dot(x)`` on a 1-D
pair, exactly as ``w @ x`` does), and the per-row means and norms reduce
along the contiguous last axis, so a batched row is bitwise identical to the
same row stepped alone, and a block bitwise identical to its steps taken one
at a time (``np.einsum`` and ``(w * x).sum(-1)`` are *not*: they sum in a
different order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.neurons.encoding import _signs
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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot ``a . b`` (BLAS ``ddot`` per row), ready to broadcast."""
    return np.vecdot(a, b)[..., None]


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

    Attributes
    ----------
    guard_firings:
        Per weight row, the number of steps on which the norm guard
        renormalised it (a 0-d count for a 1-D learner).
    """

    n_inputs: int
    learning_rate: float = 0.01
    learning_rate_decay: float = 0.0
    normalize_inputs: bool = True
    seed: Union[RandomState, Sequence[RandomState]] = None
    weights: np.ndarray = field(init=False)
    n_updates: int = field(init=False, default=0)
    guard_firings: np.ndarray = field(init=False)

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
        self.guard_firings = np.zeros(self.weights.shape[:-1], dtype=np.int64)

    def current_learning_rate(self) -> float:
        """Learning rate after the decay schedule at the current update count."""
        return self.learning_rate / (1.0 + self.learning_rate_decay * self.n_updates)

    def step(self, x: np.ndarray) -> Union[float, np.ndarray]:
        """Apply one anti-Hebbian update per weight row; returns ``y = w . x``.

        *x* has the shape of :attr:`weights`; the result is a float for a 1-D
        learner and one output per row for a batch.  This is a one-step
        :meth:`train`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.weights.shape:
            raise ValidationError(
                f"x must have shape {self.weights.shape}, got {x.shape}"
            )
        return self.train(x[np.newaxis])[0]

    def train(self, inputs: np.ndarray) -> np.ndarray:
        """Apply anti-Hebbian updates over the leading axis of *inputs*; returns outputs.

        *inputs* is ``(n_steps, *weights.shape)``; a strided view (the
        engine's swapped read-out block) is read in place.  Each step is
        bitwise the rule ``w + eta * ((y^2 + 1 - w.w) w - y x)``, however
        the steps are split across calls.
        """
        return self._train(inputs, 0)[0]

    def train_readouts(self, inputs: np.ndarray, interval: int) -> np.ndarray:
        """Train on *inputs* as :meth:`train` does; return the sign read-outs.

        The read-out after every *interval*-th step is what
        :meth:`sign_assignment` would return there: a ``(n_steps //
        interval, *weights.shape)`` int8 ±1 array.  The steps and the
        weights are bitwise those of :meth:`train`, however the steps are
        split across calls.
        """
        if interval < 1:
            raise ValidationError(f"interval must be >= 1, got {interval}")
        return _signs(self._train(inputs, interval)[1])

    def _train(self, inputs: np.ndarray, interval: int) -> tuple:
        """The rule's one loop; returns the outputs and the read-out masks.

        With ``interval >= 1`` the loop records ``weights > 0`` after every
        *interval*-th step into a ``(n_steps // interval, *weights.shape)``
        boolean array; with 0 it records nothing and the mask is None.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape[1:] != self.weights.shape:
            raise ValidationError(
                f"inputs must have shape (n_steps, *{self.weights.shape}), "
                f"got {inputs.shape}"
            )
        if self.normalize_inputs:
            # Each row to unit RMS: np.mean's own reduction and division along
            # the contiguous last axis, minus its Python wrapper.  Rows with
            # no signal are divided by an exact 1.0.
            rms = np.sqrt(np.add.reduce(inputs * inputs, axis=-1) / inputs.shape[-1])
            inputs = inputs / np.where(rms > 1e-12, rms, 1.0)[..., None]
        outputs = np.empty(inputs.shape[:-1])
        mask = (
            np.empty((len(inputs) // interval, *self.weights.shape), dtype=bool)
            if interval else None
        )
        if self.weights.ndim == 1:
            self._train_row(inputs, outputs, mask, interval)
        else:
            self._train_rows(inputs, outputs, mask, interval)
        self.n_updates += inputs.shape[0]
        return outputs, mask

    def _learning_rates(self, n_steps: int) -> list:
        """The learning rate of each of the next *n_steps* updates."""
        return [
            self.learning_rate / (1.0 + self.learning_rate_decay * (self.n_updates + t))
            for t in range(n_steps)
        ]

    # Guard against numerical blow-up: the rule is stable for small eta, but
    # a hard renormalisation above norm 10 keeps pathological settings (huge
    # eta) from overflowing without affecting normal operation.  A norm above
    # 10 needs a squared norm above 100, so the usual step skips the guard.
    # The squared norm the guard reads is the ``w.w`` the next step needs; it
    # is recomputed only after a renormalisation.  The update runs in place,
    # ``((c w) - (y x)) * eta + w``, which is bitwise ``w + eta (c w - y x)``:
    # IEEE multiplication and addition commute.  It works on a copy of the
    # weights, so an array once read from :attr:`weights` is never written.
    # A read-out is taken at step ``snap`` into the next row of *mask*;
    # without a mask *interval* is 0 and ``snap`` -1, which no step equals.

    def _train_row(
        self, inputs: np.ndarray, outputs: np.ndarray, mask, interval: int
    ) -> None:
        """The loop of a 1-D learner, its per-step scalars Python floats.

        The scalars ``c``, ``y`` and ``eta`` reach the ufuncs as 0-d arrays:
        a ufunc takes those faster than a Python float, which it converts on
        every call.
        """
        w = self.weights.copy()
        new, yx = np.empty_like(w), np.empty_like(w)
        c, y0, eta0 = np.empty(()), np.empty(()), np.empty(())
        ww = float(w.dot(w))
        fired = 0
        snap, r = interval - 1, 0
        for t, (x, eta) in enumerate(zip(inputs, self._learning_rates(len(inputs)))):
            y = float(w.dot(x))
            outputs[t] = y
            y0[()] = y
            c[()] = y * y + 1.0 - ww
            eta0[()] = eta
            np.multiply(w, c, new)
            np.multiply(x, y0, yx)
            new -= yx
            new *= eta0
            new += w
            ww = float(new.dot(new))
            if ww > 100.0:
                norm = math.sqrt(ww)
                if norm > 10.0:
                    new /= norm
                    fired += 1
                    ww = float(new.dot(new))
            w, new = new, w
            if t == snap:
                np.greater(w, 0.0, out=mask[r])
                snap, r = snap + interval, r + 1
        self.weights = w
        if fired:
            self.guard_firings += fired

    def _train_rows(
        self, inputs: np.ndarray, outputs: np.ndarray, mask, interval: int
    ) -> None:
        """The loop of a ``(rows, n)`` learner, one ``ddot`` per row."""
        w = self.weights.copy()
        new, yx = np.empty_like(w), np.empty_like(w)
        ww = np.vecdot(w, w)
        fired = np.zeros(w.shape[0], dtype=np.int64)
        snap, r = interval - 1, 0
        for t, (x, eta) in enumerate(zip(inputs, self._learning_rates(len(inputs)))):
            y = np.vecdot(w, x)
            outputs[t] = y
            np.multiply(w, (y * y + 1.0 - ww)[:, None], new)
            np.multiply(x, y[:, None], yx)
            new -= yx
            new *= eta
            new += w
            ww = np.vecdot(new, new)
            if np.count_nonzero(ww > 100.0):
                norm = np.sqrt(ww)
                tripped = norm > 10.0
                new /= np.where(tripped, norm, 1.0)[:, None]
                fired += tripped
                ww = np.vecdot(new, new)
            w, new = new, w
            if t == snap:
                np.greater(w, 0.0, out=mask[r])
                snap, r = snap + interval, r + 1
        self.weights = w
        self.guard_firings += fired

    def sign_assignment(self) -> np.ndarray:
        """±1 MAXCUT assignment from the sign of the weights (zeros map to -1)."""
        return np.where(self.weights > 0.0, 1, -1).astype(np.int8)
