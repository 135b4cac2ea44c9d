"""Approximate Gibbs sampling by replica exchange, the lab's only
equilibrium sampler.

The Gibbs measure is ~ exp(beta H) against the uniform measure on the
sphere. Replica exchange runs a geometric ladder of K = N_RUNGS inverse
temperatures from beta/8 up to beta, each rung doing full-vector
sphere-Metropolis moves (isotropic Gaussian perturbation then
renormalization, a symmetric proposal on the sphere), with neighbor swap
attempts every sweep. Proposal scales adapt toward a target acceptance
during burn-in only, so the post-burn-in chain satisfies detailed balance.

All rungs move together: the configurations are one (K, n) array, the
proposals of a sweep are projected and scored by one batched energy call,
and the swap chain ends in one row permutation. A sweep reads the
random stream as the (K, n) proposal normals, then 2K - 1 uniforms (K
acceptance, then K - 1 swap), the same stream as drawing the two kinds of
uniform in separate calls.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ..errors import MixingWarning
from .disorder import Configuration, Disorder, derived_rng, sphere_project
from .energy import hamiltonian

__all__ = ["ReplicaExchange", "equilibrium_sample"]

N_RUNGS = 8
TARGET_ACCEPT = 0.4  # proposal acceptance the burn-in adapts toward
INITIAL_STEP = 0.5  # proposal scale of every rung before adaptation
# step-size factors after an accepted or a rejected proposal: a stochastic
# approximation toward the target acceptance rate
_GROW = math.exp(0.1 * (1.0 - TARGET_ACCEPT))
_SHRINK = math.exp(-0.1 * TARGET_ACCEPT)
# cap on a proposal scale: a rung that accepts almost every proposal (a hot
# one, or beta = 0) would otherwise grow its scale by _GROW each burn-in
# sweep until it overflows. At this scale the projected proposal no longer
# depends on the current point to double precision.
_MAX_STEP = 1e16


def _check_beta(beta: float) -> None:
    """The lab's one beta rule; ``beta`` is a simulate and chaos key."""
    if not 0 <= beta < math.inf:  # NaN fails this test too
        raise ValueError(f"config key 'beta' must be finite and >= 0, "
                         f"got {beta}")


def _check_range(key: str, value: int, low: int, high=math.inf) -> None:
    if value < low:
        raise ValueError(f"config key {key!r} must be >= {low}, got {value}")
    if value > high:
        raise ValueError(f"config key {key!r} must be <= {high}, got {value}")


def _check_run(n_samples: int, burn_in: int, thin: int) -> None:
    """The run-length rule of ``ReplicaExchange.sample``, key by key."""
    _check_range("n_samples", n_samples, 1)
    _check_range("burn_in", burn_in, 0)
    _check_range("thin", thin, 1)


class ReplicaExchange:
    """Parallel tempering on the sphere with a geometric temperature ladder.

    ``configs`` holds one rung per row, coldest last, and ``energies`` the
    matching H values. Each sweep writes into both arrays in place, so copy
    them to keep a snapshot."""

    def __init__(self, d: Disorder, beta: float, seed: int = 0):
        _check_beta(beta)
        self.d = d
        ratio = (1.0 / 8.0) ** (1.0 / (N_RUNGS - 1))
        self.betas = beta * ratio ** np.arange(N_RUNGS - 1, -1, -1)
        self._swap_dbetas = np.diff(self.betas).tolist()
        self.rng = derived_rng(seed, "replica-exchange")
        self.configs = sphere_project(
            self.rng.standard_normal((N_RUNGS, d.n)))
        self.energies = hamiltonian(d, self.configs)
        self.steps = np.full(N_RUNGS, INITIAL_STEP)
        self.n_sweeps = 0  # each sweep proposes on every rung and pair
        self._accepts = np.zeros(N_RUNGS)
        self._swap_accepts = np.zeros(N_RUNGS - 1)

    def sweep(self, adapt: bool = False) -> None:
        """One Metropolis proposal on every rung at once, scored by one
        energy call, then neighbor swap attempts from hot to cold."""
        n_rungs = len(self.configs)
        prop = self.rng.standard_normal(self.configs.shape)
        log_u = np.log(self.rng.random(2 * n_rungs - 1))

        prop *= self.steps[:, None]
        prop += self.configs
        prop = sphere_project(prop)
        e_prop = hamiltonian(self.d, prop)
        accepted = log_u[:n_rungs] < self.betas * (e_prop - self.energies)
        np.copyto(self.configs, prop, where=accepted[:, None])
        np.copyto(self.energies, e_prop, where=accepted)
        self.n_sweeps += 1
        self._accepts += accepted
        if adapt:
            self.steps *= np.where(accepted, _GROW, _SHRINK)
            np.minimum(self.steps, _MAX_STEP, out=self.steps)

        # each swap sees the energies left by the one before it
        energies = self.energies.tolist()
        order = list(range(n_rungs))
        for k, (dbeta, log_u_k) in enumerate(zip(
                self._swap_dbetas, log_u[n_rungs:].tolist())):
            if log_u_k < dbeta * (energies[k] - energies[k + 1]):
                energies[k], energies[k + 1] = energies[k + 1], energies[k]
                order[k], order[k + 1] = order[k + 1], order[k]
                self._swap_accepts[k] += 1.0
        self.configs = self.configs.take(order, axis=0)
        self.energies[:] = energies

    def sample(self, n_samples: int, burn_in: int,
               thin: int) -> list[Configuration]:
        """``burn_in`` adaptive sweeps, then one draw at the target inverse
        temperature every ``thin`` plain sweeps, then the mixing check:
        every equilibrium draw of the lab goes through here."""
        _check_run(n_samples, burn_in, thin)
        for _ in range(burn_in):
            self.sweep(adapt=True)
        draws = []
        for _ in range(n_samples):
            for _ in range(thin):
                self.sweep()
            draws.append(self.configs[-1].copy())
        self.check_mixing()
        return draws

    def diagnostics(self) -> dict:
        sweeps = max(self.n_sweeps, 1)
        acc = self._accepts / sweeps
        swap = self._swap_accepts / sweeps
        return {
            "betas": self.betas.tolist(),
            "acceptance": acc.tolist(),
            "swap_acceptance": swap.tolist(),
            "steps": self.steps.tolist(),
        }

    def check_mixing(self) -> None:
        swaps = self._swap_accepts / max(self.n_sweeps, 1)
        if self.n_sweeps >= 50 and np.any(swaps < 0.01):
            warnings.warn(f"swap acceptance below 1% on some rung: {swaps}",
                          MixingWarning, stacklevel=3)


def equilibrium_sample(d: Disorder, beta: float, seed: int = 0,
                       burn_in: int = 500) -> tuple[Configuration, dict]:
    """One approximate Gibbs sample, the sweep after burn-in, with the
    sampler diagnostics attached."""
    sampler = ReplicaExchange(d, beta, seed=seed)
    (sample,) = sampler.sample(1, burn_in=burn_in, thin=1)
    return sample, sampler.diagnostics()
