"""Neuromorphic MAXCUT circuits — the paper's primary contribution.

Two circuits are provided:

* :class:`LIFGWCircuit` (paper §IV.A) — implements the sampling/rounding step
  of the Goemans-Williamson algorithm: device randomness, weighted by the SDP
  solution vectors, becomes correlated membrane fluctuations whose signs are
  cut samples.
* :class:`LIFTrevisanCircuit` (paper §IV.B) — implements the simple-spectral
  Trevisan algorithm fully in-circuit: device randomness weighted by the
  Trevisan matrix drives anti-Hebbian (Oja minor-component) plasticity on a
  stage-2 weight vector, whose sign is the cut.
"""

from repro.circuits.base import NeuromorphicCircuit
from repro.circuits.config import LIFGWConfig, LIFTrevisanConfig
from repro.circuits.lif_gw import LIFGWCircuit
from repro.circuits.lif_trevisan import LIFTrevisanCircuit

__all__ = [
    "NeuromorphicCircuit",
    "LIFGWConfig",
    "LIFTrevisanConfig",
    "LIFGWCircuit",
    "LIFTrevisanCircuit",
]
