"""Finite-N Monte Carlo laboratory for spherical p-spin models."""

from .disorder import (Configuration, Disorder, Lineage, correlate_disorder,
                       plant, random_configuration, reconstruct,
                       sample_disorder, sphere_check, sphere_project)
from .energy import gradient, hamiltonian, spherical_gradient
from .langevin import LangevinConfig, langevin_run
from .samplers import ReplicaExchange, equilibrium_sample
from .observables import correlation_curve, w2_empirical

__all__ = [
    "Configuration", "Disorder", "Lineage",
    "sample_disorder", "plant", "correlate_disorder", "reconstruct",
    "random_configuration", "sphere_project", "sphere_check",
    "hamiltonian", "gradient", "spherical_gradient",
    "LangevinConfig", "langevin_run",
    "ReplicaExchange", "equilibrium_sample",
    "correlation_curve", "w2_empirical",
]
