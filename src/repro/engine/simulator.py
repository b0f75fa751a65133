"""Batched (trial-parallel) LIF membrane integration.

:class:`BatchLIFSimulator` is the one implementation of the LIF dynamics.
It advances *all trials at once*, in one of two ways:

* **Device space (membrane read-out).** Below threshold the membrane is
  linear in the device states, so :meth:`~BatchLIFSimulator.filter_device_states`
  runs the leaky filter on the rank-wide device stream and
  :meth:`~BatchLIFSimulator.iter_membrane_readouts` applies the weights only
  at the read-out steps, one weight product per trial.  No neuron current
  is formed and no step is integrated per neuron.
* **Neuron space (spike and plasticity read-outs).** The spike read-out
  resets and the plasticity rule consumes every step, so
  :meth:`~BatchLIFSimulator.drive_currents` forms the ``(trials, steps,
  neurons)`` synaptic currents with one weight product per trial (dense or
  sparse backend) and every Euler step is one vectorised update
  ``V <- leak * V + gain * I_t`` on the ``(trials, neurons)`` state.  A
  one-trial block (``sample_cuts``) is the same loop over a ``(1,
  neurons)`` matrix.

Numerical contract: every per-element operation acts on each trial row
alone, each trial's weight product is its own 2-D product, and the device
filter's reductions are per row, so a trial's read-outs are bitwise the
same whatever the block it shares (pinned by ``tests/test_engine_goldens.py``).  The device-space membrane rows agree
with the neuron-space Euler recurrence to round-off (``tests/test_engine.py``
and ``tests/test_neurons_lif.py`` check 1e-12 relative, with equal signs).

``drive_currents(..., out=...)`` drives into row slices of one shared
``(rows, steps, neurons)`` buffer: the engine gives each segment of a
request group (one circuit instance, :mod:`repro.engine.engine`) its own
simulator for the drive, and integrates every row in one lock-step loop.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.engine.backends import WeightBackend
from repro.neurons.lif import LIFParameters
from repro.obs.trace import span
from repro.utils.validation import ValidationError

__all__ = ["BatchLIFSimulator"]


class BatchLIFSimulator:
    """Integrates a block of independent LIF trials in lock-step.

    Parameters
    ----------
    backend:
        Weight-application backend turning centred device states into
        synaptic currents.
    params:
        Electrical parameters shared by all neurons and trials, including
        threshold/reset semantics.
    n_neurons:
        Number of neurons per trial.
    """

    def __init__(
        self,
        backend: WeightBackend,
        params: LIFParameters,
        n_neurons: int,
    ) -> None:
        if n_neurons < 1:
            raise ValidationError(f"n_neurons must be >= 1, got {n_neurons}")
        self._backend = backend
        self._params = params
        self._n_neurons = int(n_neurons)

    # ------------------------------------------------------------------
    def drive_currents(self, device_states, out=None):
        """Synaptic currents ``(trials, steps, neurons)`` for a state block.

        Each trial's currents come from its own 2-D weight application over
        all its steps (burn-in and read-out rounds in one product), so a
        trial's currents do not depend on its block-mates.

        ``out``, when given, receives the currents in place — a
        ``(trials, steps, neurons)`` float64 buffer.  The engine passes each
        segment's row slice of a block-wide buffer here, so several
        circuits' drives land in one tensor.
        """
        if device_states.ndim != 3:
            raise ValidationError(
                f"device_states must be (trials, steps, devices), got {device_states.shape}"
            )
        n_trials, n_steps, _ = device_states.shape
        offset = self._params.input_offset
        # One span over the whole block of weight-backend matmuls — the
        # per-trial drive calls are the hot inner loop and stay span-free.
        with span(
            "engine.drive", n_trials=n_trials, n_steps=n_steps,
            backend=self._backend.name,
        ):
            currents = out
            if currents is None:
                currents = np.empty((n_trials, n_steps, self._n_neurons))
            for b in range(n_trials):
                self._backend.drive(device_states[b], offset, out=currents[b])
            return currents

    # ------------------------------------------------------------------
    def filter_device_states(self, device_states, burn_in: int, interval: int):
        """Leaky-filtered device stream at every read-out step.

        Below threshold the membrane is linear in the device states:
        ``V_t = leak * V_{t-1} + (dt / C) * (s_t - offset) W^T`` equals
        ``F_t W^T`` for the same filter ``F_t = leak * F_{t-1} + u_t`` run
        on the centred, gain-scaled states ``u = (dt / C) * (s - offset)``.
        Returns ``F`` at read-out steps ``burn_in + (r + 1) * interval - 1``
        as a ``(trials, rounds, devices)`` float64 array.

        Each round's ``interval`` inputs and the burn-in are contracted
        with their leak kernels by one ``np.vecdot`` (a per-row ``ddot``),
        and the rounds are scanned with ``F_r = leak**interval * F_{r-1} +
        G_r`` in log2(rounds) vectorised doubling passes.  Every value
        depends only on its own trial's row and round index, so ``F`` is
        bitwise the same whatever the block, its block-mates or the number
        of rounds.
        """
        if device_states.ndim != 3:
            raise ValidationError(
                f"device_states must be (trials, steps, devices), got {device_states.shape}"
            )
        n_trials, n_steps, n_devices = device_states.shape
        n_rounds = (n_steps - burn_in) // interval
        params = self._params
        leak = params.leak_factor
        with span("engine.drive", n_trials=n_trials, n_steps=n_steps, space="device"):
            inputs = np.subtract(device_states, params.input_offset, dtype=np.float64)
            inputs *= params.dt / params.capacitance
            # The kernels contract along the step axis, a strided view.
            rounds = inputs[:, burn_in:burn_in + n_rounds * interval].reshape(
                n_trials, n_rounds, interval, n_devices
            )
            filtered = np.vecdot(
                rounds.swapaxes(2, 3), leak ** np.arange(interval - 1, -1, -1.0)
            )
            settled = np.vecdot(
                inputs[:, :burn_in].swapaxes(1, 2),
                leak ** np.arange(burn_in - 1, -1, -1.0),
            )
            decay = leak ** interval
            if n_rounds:
                filtered[:, 0] += decay * settled
            # Doubling scan: after the pass with stride d every round holds
            # the sum over its last 2d rounds.  The right-hand side is a new
            # array, so each pass reads the previous pass's values.
            stride = 1
            while stride < n_rounds:
                filtered[:, stride:] += decay ** stride * filtered[:, :-stride]
                stride *= 2
        return filtered

    def iter_membrane_readouts(
        self,
        filtered,
        n_rounds: int,
        chunk: int,
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Membrane read-outs ``(first_round, potentials)``, a chunk at a time.

        *filtered* is :meth:`filter_device_states`'s ``(trials, rounds,
        devices)`` output.  The first ``next()`` forms every read-out row
        ``V = F W^T``, one 2-D weight product per trial over all of
        *filtered*'s rounds, so a trial's rows depend neither on its
        block-mates nor on *n_rounds*.  Each yield is the
        ``(trials, rounds, neurons)`` slice of up to *chunk* consecutive
        rounds, stopping after round ``n_rounds - 1``.
        """
        n_trials = filtered.shape[0]
        potentials = np.empty((n_trials, filtered.shape[1], self._n_neurons))
        # The filtered states are already centred: the drive's offset is 0.
        for b in range(n_trials):
            self._backend.drive(filtered[b], 0.0, out=potentials[b])
        for first in range(0, n_rounds, chunk):
            yield first, potentials[:, first:min(first + chunk, n_rounds)]

    def iter_spike_readouts(
        self,
        currents,
        burn_in: int,
        interval: int,
        n_rounds: int,
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Spiking integration yielding ``(round, fired)`` boolean masks.

        A crossing of ``threshold`` resets the membrane to
        ``reset_potential`` (during burn-in too); the yielded mask is the
        spike raster row at each read-out step.
        """
        params = self._params
        leak = params.leak_factor
        threshold, reset = params.threshold, params.reset_potential
        np.multiply(currents, params.dt / params.capacitance, out=currents)
        potentials = np.zeros((currents.shape[0], self._n_neurons))
        for t in range(burn_in):
            np.multiply(potentials, leak, out=potentials)
            np.add(potentials, currents[:, t], out=potentials)
            fired = potentials >= threshold
            if fired.any():
                potentials[fired] = reset
        for r in range(n_rounds):
            base = burn_in + r * interval
            # interval >= 1 (validated in BatchPlan), so the loop always
            # assigns `fired` before the yield below.
            for k in range(interval):
                np.multiply(potentials, leak, out=potentials)
                np.add(potentials, currents[:, base + k], out=potentials)
                fired = potentials >= threshold
                if fired.any():
                    potentials[fired] = reset
            yield r, fired

    def iter_subthreshold_rounds(
        self,
        currents,
        burn_in: int,
        interval: int,
        n_rounds: int,
        chunk: int,
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Subthreshold integration yielding a chunk of rounds' rows at a time.

        Yields ``(first_round, rows)`` for up to *chunk* consecutive rounds,
        stopping after round ``n_rounds - 1``.  ``rows`` is the step-major
        ``(count * interval, trials, neurons)`` post-burn-in membrane
        trajectory of those rounds — what the LIF-Trevisan plasticity rule
        consumes step by step.  It is a contiguous view of one buffer that
        the next yield overwrites.
        """
        leak = self._params.leak_factor
        np.multiply(currents, self._params.dt / self._params.capacitance, out=currents)
        n_trials = currents.shape[0]
        potentials = np.zeros((n_trials, self._n_neurons))
        for t in range(burn_in):
            np.multiply(potentials, leak, out=potentials)
            np.add(potentials, currents[:, t], out=potentials)
        buffer = np.empty((min(chunk, n_rounds) * interval, n_trials, self._n_neurons))
        for first in range(0, n_rounds, chunk):
            n_rows = (min(first + chunk, n_rounds) - first) * interval
            base = burn_in + first * interval
            # Each step writes straight into its row of the buffer, reading
            # the previous row as V: no per-step state copy.  The first step
            # reads the previous chunk's last row before anything overwrites
            # it.
            for k in range(n_rows):
                row = buffer[k]
                np.multiply(potentials, leak, out=row)
                np.add(row, currents[:, base + k], out=row)
                potentials = row
            yield first, buffer[:n_rows]
