"""Batched (trial-parallel) LIF membrane integration.

:class:`BatchLIFSimulator` is the one implementation of the LIF dynamics:
it advances *all trials at once* — the membrane state is a ``(trials,
neurons)`` matrix and every Euler step is a single vectorised update
``V <- leak * V + gain * I_t`` on that matrix, with the synaptic currents
``I`` produced by one weight-application matmul per trial (dense or sparse
backend).  A one-trial block (``sample_cuts``) is the same loop over a
``(1, neurons)`` matrix.

Every array operation is issued through the weight backend's
:class:`~repro.engine.xp.ArrayBackend` namespace, so the same integration
code runs on NumPy, torch, or cupy state tensors; the state lives wherever
the array backend puts it (host or device) for the whole integration.

Numerical contract: every per-element operation (leak, gain, threshold,
reset) acts on each trial row alone, and each trial's currents come from
its own 2-D product, so on the NumPy path a trial's trajectory is bitwise
the same whatever the block it shares (pinned by
``tests/test_engine_goldens.py``).  Accelerator paths agree to
floating-point round-off (kernel summation order differs).

``drive_currents(..., out=...)`` drives into row slices of one shared
``(rows, steps, neurons)`` buffer: the engine gives each segment of a
request group (one circuit instance, :mod:`repro.engine.engine`) its own
simulator for the drive, and integrates every row in one lock-step loop.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.engine.backends import WeightBackend
from repro.engine.xp import ArrayBackend, get_array_backend
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
        synaptic currents.  Its ``array`` attribute fixes the array
        namespace the integration runs in.
    params:
        Electrical parameters shared by all neurons and trials, including
        threshold/reset semantics.
    n_neurons:
        Number of neurons per trial.
    array_backend:
        Optional explicit array backend; defaults to the weight backend's
        (falling back to numpy).
    """

    def __init__(
        self,
        backend: WeightBackend,
        params: LIFParameters,
        n_neurons: int,
        array_backend: Optional[ArrayBackend] = None,
    ) -> None:
        if n_neurons < 1:
            raise ValidationError(f"n_neurons must be >= 1, got {n_neurons}")
        self._backend = backend
        self._params = params
        self._n_neurons = int(n_neurons)
        self._xp = (
            array_backend
            or getattr(backend, "array", None)
            or get_array_backend("numpy")
        )

    @property
    def xp(self) -> ArrayBackend:
        """The array backend the integration runs in."""
        return self._xp

    # ------------------------------------------------------------------
    def drive_currents(self, device_states, split_at: int = 0, out=None):
        """Synaptic currents ``(trials, steps, neurons)`` for a state block.

        Each trial's currents come from its own 2-D weight application, so a
        trial's currents do not depend on its block-mates.  ``split_at``
        computes the first ``split_at`` steps and the rest as *separate*
        products — the spike read-out passes its burn-in there (the split
        its pinned goldens were computed with); the membrane/subthreshold
        read-outs use one product over all steps (``split_at=0``).

        ``out``, when given, receives the currents in place — a
        ``(trials, steps, neurons)`` buffer in the simulator's array
        namespace.  The engine passes each segment's row slice of a
        block-wide buffer here, so several circuits' drives land in one
        tensor.
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
            backend=getattr(self._backend, "name", "?"),
        ):
            currents = out
            if currents is None:
                currents = self._xp.empty(
                    (n_trials, n_steps, self._n_neurons), dtype="float64"
                )
            for b in range(n_trials):
                if 0 < split_at < n_steps:
                    self._backend.drive(
                        device_states[b, :split_at], offset, out=currents[b, :split_at]
                    )
                    self._backend.drive(
                        device_states[b, split_at:], offset, out=currents[b, split_at:]
                    )
                else:
                    self._backend.drive(device_states[b], offset, out=currents[b])
            return currents

    # ------------------------------------------------------------------
    def iter_membrane_readouts(
        self,
        currents,
        burn_in: int,
        interval: int,
        n_rounds: int,
    ) -> Iterator[Tuple[int, object]]:
        """Subthreshold integration yielding ``(round, potentials)`` per read-out.

        Spiking is disabled (no reset); the yielded ``(trials, neurons)``
        rows are the membrane potentials at read-out steps
        ``burn_in + (r + 1) * interval - 1``.

        The ``currents`` buffer is scaled by ``dt / C`` in place on first
        iteration (one vectorised pass instead of one multiply per step);
        iterate a fresh buffer each time.
        """
        xp = self._xp
        leak = self._params.leak_factor
        xp.multiply(currents, self._params.dt / self._params.capacitance, out=currents)
        potentials = xp.zeros((currents.shape[0], self._n_neurons), dtype="float64")
        # In-place V <- leak*V; V <- V + I_t applies the identical elementwise
        # operations as `leak * V + I_t` without per-step temporaries.
        for t in range(burn_in):
            xp.multiply(potentials, leak, out=potentials)
            xp.add(potentials, currents[:, t], out=potentials)
        for r in range(n_rounds):
            base = burn_in + r * interval
            for k in range(interval):
                xp.multiply(potentials, leak, out=potentials)
                xp.add(potentials, currents[:, base + k], out=potentials)
            yield r, xp.copy(potentials)

    def iter_spike_readouts(
        self,
        currents,
        burn_in: int,
        interval: int,
        n_rounds: int,
    ) -> Iterator[Tuple[int, object]]:
        """Spiking integration yielding ``(round, fired)`` boolean masks.

        A crossing of ``threshold`` resets the membrane to
        ``reset_potential`` (during burn-in too); the yielded mask is the
        spike raster row at each read-out step.
        """
        xp = self._xp
        params = self._params
        leak = params.leak_factor
        threshold, reset = params.threshold, params.reset_potential
        xp.multiply(currents, params.dt / params.capacitance, out=currents)
        potentials = xp.zeros((currents.shape[0], self._n_neurons), dtype="float64")
        for t in range(burn_in):
            xp.multiply(potentials, leak, out=potentials)
            xp.add(potentials, currents[:, t], out=potentials)
            fired = potentials >= threshold
            if fired.any():
                potentials[fired] = reset
        for r in range(n_rounds):
            base = burn_in + r * interval
            # interval >= 1 (validated in BatchPlan), so the loop always
            # assigns `fired` before the yield below.
            for k in range(interval):
                xp.multiply(potentials, leak, out=potentials)
                xp.add(potentials, currents[:, base + k], out=potentials)
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
    ) -> Iterator[Tuple[int, object]]:
        """Subthreshold integration yielding every round's full row block.

        Yields ``(round, rows)`` with ``rows`` of shape ``(trials, interval,
        neurons)`` — the post-burn-in membrane trajectory segment the
        LIF-Trevisan plasticity rule consumes step by step.
        """
        xp = self._xp
        leak = self._params.leak_factor
        xp.multiply(currents, self._params.dt / self._params.capacitance, out=currents)
        n_trials = currents.shape[0]
        potentials = xp.zeros((n_trials, self._n_neurons), dtype="float64")
        for t in range(burn_in):
            xp.multiply(potentials, leak, out=potentials)
            xp.add(potentials, currents[:, t], out=potentials)
        for r in range(n_rounds):
            base = burn_in + r * interval
            rows = xp.empty((n_trials, interval, self._n_neurons), dtype="float64")
            # Each step writes straight into its row of the round's block,
            # reading the previous row as V: no per-step state copy.
            for k in range(interval):
                row = rows[:, k]
                xp.multiply(potentials, leak, out=row)
                xp.add(row, currents[:, base + k], out=row)
                potentials = row
            yield r, rows
