"""Spectral substrate: the minimum-eigenvector solver and Trevisan's simple-spectral MAXCUT."""

from repro.spectral.trevisan import (
    trevisan_simple_spectral,
    trevisan_sweep_cut,
    minimum_eigenvector,
)

__all__ = [
    "trevisan_simple_spectral",
    "trevisan_sweep_cut",
    "minimum_eigenvector",
]
