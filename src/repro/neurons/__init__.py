"""Neuron substrate: LIF parameters, membrane covariance theory, synaptic plasticity."""

from repro.neurons.lif import LIFParameters
from repro.neurons.covariance import (
    theoretical_membrane_covariance,
    empirical_covariance,
    covariance_from_weights,
)
from repro.neurons.plasticity import (
    hebbian_update,
    oja_update,
    anti_hebbian_oja_update,
    OjaPrincipalComponent,
    AntiHebbianMinorComponent,
)
from repro.neurons.encoding import spikes_to_assignments, membrane_sign_assignments

__all__ = [
    "LIFParameters",
    "theoretical_membrane_covariance",
    "empirical_covariance",
    "covariance_from_weights",
    "hebbian_update",
    "oja_update",
    "anti_hebbian_oja_update",
    "OjaPrincipalComponent",
    "AntiHebbianMinorComponent",
    "spikes_to_assignments",
    "membrane_sign_assignments",
]
