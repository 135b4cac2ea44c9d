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
and the swap chain ends in one row permutation. The random stream is read
in the order of rung-by-rung updates (per rung: proposal normals, then the
acceptance uniform; then one uniform per neighbor swap), so the chain is
the one a per-rung loop would run.
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


class ReplicaExchange:
    """Parallel tempering on the sphere with a geometric temperature ladder.

    ``configs`` holds one rung per row, coldest last, and ``energies`` the
    matching H values."""

    def __init__(self, d: Disorder, beta: float, seed: int = 0):
        if not beta >= 0:  # NaN fails this test too
            raise ValueError(f"beta must be >= 0, got {beta}")
        self.d = d
        self.beta = float(beta)
        ratio = (1.0 / 8.0) ** (1.0 / (N_RUNGS - 1))
        self.betas = beta * ratio ** np.arange(N_RUNGS - 1, -1, -1)
        self._swap_dbetas = np.diff(self.betas).tolist()
        self.rng = derived_rng(seed, "replica-exchange")
        self.configs = sphere_project(
            self.rng.standard_normal((N_RUNGS, d.n)))
        self.energies = hamiltonian(d, self.configs)
        self.steps = np.full(N_RUNGS, INITIAL_STEP)
        self._accepts = np.zeros(N_RUNGS)
        self._proposals = np.zeros(N_RUNGS)
        self._swap_accepts = np.zeros(N_RUNGS - 1)
        self._swap_attempts = np.zeros(N_RUNGS - 1)
        self.energy_trace: list[float] = []

    def sweep(self, adapt: bool = False) -> None:
        """One Metropolis proposal on every rung at once, scored by one
        energy call, then neighbor swap attempts from hot to cold."""
        n_rungs, n = self.configs.shape
        noise = np.empty((n_rungs, n))
        u_accept = np.empty(n_rungs)
        # each rung draws its proposal noise and then its acceptance uniform,
        # in rung order, so the random stream is consumed as one rung at a
        # time would consume it
        for k in range(n_rungs):
            self.rng.standard_normal(out=noise[k])
            u_accept[k] = self.rng.random()
        log_u_swap = np.log(self.rng.random(n_rungs - 1)).tolist()

        prop = sphere_project(self.configs + self.steps[:, None] * noise)
        e_prop = hamiltonian(self.d, prop)
        accepted = np.log(u_accept) < self.betas * (e_prop - self.energies)
        self.configs = np.where(accepted[:, None], prop, self.configs)
        self.energies = np.where(accepted, e_prop, self.energies)
        self._proposals += 1
        self._accepts += accepted
        if adapt:
            self.steps *= np.where(accepted, _GROW, _SHRINK)

        # each swap sees the energies left by the one before it
        energies = self.energies.tolist()
        order = list(range(n_rungs))
        swapped = np.zeros(n_rungs - 1, dtype=bool)
        for k, (dbeta, log_u) in enumerate(zip(self._swap_dbetas,
                                               log_u_swap)):
            if log_u < dbeta * (energies[k] - energies[k + 1]):
                energies[k], energies[k + 1] = energies[k + 1], energies[k]
                order[k], order[k + 1] = order[k + 1], order[k]
                swapped[k] = True
        self._swap_attempts += 1
        self._swap_accepts += swapped
        self.configs = self.configs[order]
        self.energies = np.array(energies)
        self.energy_trace.append(energies[-1])

    def run(self, burn_in: int = 500) -> None:
        if burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {burn_in}")
        for _ in range(burn_in):
            self.sweep(adapt=True)

    def draw(self, n_samples: int, thin: int = 20) -> list[Configuration]:
        """Thinned samples at the target inverse temperature."""
        if n_samples < 1 or thin < 1:
            raise ValueError(f"need n_samples >= 1 and thin >= 1, got "
                             f"n_samples={n_samples}, thin={thin}")
        out = []
        for _ in range(n_samples):
            for _ in range(thin):
                self.sweep(adapt=False)
            out.append(self.configs[-1].copy())
        return out

    def sample(self, n_samples: int, burn_in: int,
               thin: int) -> list[Configuration]:
        """Adaptive burn-in, then ``draw``, then the mixing check: every
        equilibrium draw of the lab goes through here."""
        self.run(burn_in=burn_in)
        draws = self.draw(n_samples, thin=thin)
        self.check_mixing()
        return draws

    def diagnostics(self) -> dict:
        acc = self._accepts / np.maximum(self._proposals, 1)
        swap = self._swap_accepts / np.maximum(self._swap_attempts, 1)
        return {
            "betas": self.betas.tolist(),
            "acceptance": acc.tolist(),
            "swap_acceptance": swap.tolist(),
            "steps": self.steps.tolist(),
            "energy_trace": self.energy_trace[-200:],
        }

    def check_mixing(self) -> None:
        diag = self.diagnostics()
        swaps = np.asarray(diag["swap_acceptance"])
        if self._swap_attempts.min() >= 50 and np.any(swaps < 0.01):
            warnings.warn(f"swap acceptance below 1% on some rung: {swaps}",
                          MixingWarning, stacklevel=3)


def equilibrium_sample(d: Disorder, beta: float, seed: int = 0,
                       burn_in: int = 500) -> tuple[Configuration, dict]:
    """One approximate Gibbs sample, the sweep after burn-in, with the
    sampler diagnostics attached."""
    sampler = ReplicaExchange(d, beta, seed=seed)
    (sample,) = sampler.sample(1, burn_in=burn_in, thin=1)
    return sample, sampler.diagnostics()
