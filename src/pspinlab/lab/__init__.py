"""Finite-N Monte Carlo laboratory for spherical p-spin models."""

from .disorder import (Configuration, Correlation, Disorder, Lineage, Spike,
                       correlate_disorder, plant, random_configuration,
                       reconstruct, sample_disorder, sphere_check,
                       sphere_project)
from .energy import gradient, hamiltonian, spherical_gradient
from .langevin import LangevinConfig, langevin_run
from .samplers import ReplicaExchange, equilibrium_sample
from .observables import chaos_one_disorder, correlation_curve, w2_empirical

__all__ = [
    "Configuration", "Correlation", "Disorder", "Lineage", "Spike",
    "sample_disorder", "plant", "correlate_disorder", "reconstruct",
    "random_configuration", "sphere_project", "sphere_check",
    "hamiltonian", "gradient", "spherical_gradient",
    "LangevinConfig", "langevin_run",
    "ReplicaExchange", "equilibrium_sample",
    "chaos_one_disorder", "correlation_curve", "w2_empirical",
]
