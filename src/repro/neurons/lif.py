"""Leaky integrate-and-fire (LIF) neuron parameters (paper §III.B).

Between spikes the membrane potential of neuron i obeys

    C dV_i/dt = -V_i / R + sum_alpha W_{i alpha} s_alpha,

integrated with forward Euler at time step ``dt``.  When ``V_i`` crosses the
threshold the neuron emits a spike and the potential resets.
:class:`LIFParameters` fixes these electrical constants; the integration
itself — every trial of a population at once, one vectorised update per
step — lives in :class:`repro.engine.simulator.BatchLIFSimulator`.

Two readouts matter for the MAXCUT circuits:

* the **spike raster** (LIF-GW maps spiking/silent neurons to the two sides
  of the cut), and
* the **membrane potentials** (whose covariance is the engineered Gaussian
  process; the LIF-TR plasticity rule consumes them, and a sign readout of
  the membranes provides an equivalent rounding signal).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import ValidationError, check_positive

__all__ = ["LIFParameters"]


@dataclass(frozen=True)
class LIFParameters:
    """Electrical parameters of a LIF neuron population.

    Attributes
    ----------
    capacitance:
        Membrane capacitance ``C`` (arbitrary units).
    resistance:
        Leak resistance ``R``.
    threshold:
        Spiking threshold on the membrane potential.
    reset_potential:
        Potential the membrane is reset to after a spike.
    dt:
        Euler integration time step.
    input_offset:
        Constant subtracted from every device state before weighting.  With
        fair-coin devices, ``input_offset = 0.5`` centres the input so the
        membrane fluctuates symmetrically around zero, which makes the sign /
        threshold readout an unbiased rounding operation.
    """

    capacitance: float = 1.0
    resistance: float = 10.0
    threshold: float = 1.0
    reset_potential: float = 0.0
    dt: float = 0.1
    input_offset: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.capacitance, "capacitance")
        check_positive(self.resistance, "resistance")
        check_positive(self.dt, "dt")
        if not np.isfinite(self.threshold):
            raise ValidationError("threshold must be finite")
        if not np.isfinite(self.reset_potential):
            raise ValidationError("reset_potential must be finite")
        tau = self.resistance * self.capacitance
        if self.dt >= 2.0 * tau:
            raise ValidationError(
                f"dt={self.dt} is too large for membrane time constant tau={tau}; "
                "forward Euler requires dt < 2*R*C for stability"
            )

    @property
    def time_constant(self) -> float:
        """Membrane time constant ``tau = R C``."""
        return self.resistance * self.capacitance

    @property
    def leak_factor(self) -> float:
        """Per-step decay multiplier ``1 - dt / (R C)`` of the Euler scheme."""
        return 1.0 - self.dt / self.time_constant
