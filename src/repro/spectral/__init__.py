"""Spectral substrate: eigen-solvers and the Trevisan simple-spectral algorithm."""

from repro.spectral.lanczos import lanczos_tridiagonalize, lanczos_extreme_eigenpair
from repro.spectral.trevisan import (
    trevisan_simple_spectral,
    trevisan_sweep_cut,
    minimum_eigenvector,
)

__all__ = [
    "lanczos_tridiagonalize",
    "lanczos_extreme_eigenpair",
    "trevisan_simple_spectral",
    "trevisan_sweep_cut",
    "minimum_eigenvector",
]
