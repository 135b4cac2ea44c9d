"""Euler-Maruyama integration of spherical Langevin dynamics.

The target diffusion is

    d sigma_t = (beta grad_sp H(sigma_t) - ((N-1)/N) sigma_t) dt
                + sqrt(2) P_perp dB_t,

reversible for the Gibbs measure ~ exp(beta H). Each Euler step is followed
by renormalization back to the sphere of radius sqrt(N). The O(h) bias of
this retraction is accepted and not estimated: no step-halving check exists
yet (ROADMAP item 8), so compare runs at h and h/2 by hand where it matters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import DivergenceError, StabilityWarning
from .disorder import Configuration, Disorder, derived_rng, sphere_check
from .energy import gradient, spherical_gradient
from .samplers import _check_range, _check_beta

__all__ = ["LangevinConfig", "langevin_run"]


@dataclass(frozen=True)
class LangevinConfig:
    """Run settings; each field is the ``simulate`` key its error names."""

    beta: float
    step: float
    n_steps: int
    record_every: int = 1

    def __post_init__(self):
        _check_beta(self.beta)
        if not self.step > 0:  # NaN fails this test too
            raise ValueError(f"config key 'step' must be > 0, got {self.step}")
        _check_range("n_steps", self.n_steps, 1)
        _check_range("record_every", self.record_every, 1, self.n_steps)


def langevin_run(d: Disorder, start: Configuration, cfg: LangevinConfig,
                 seed: int = 0) -> list[tuple[float, Configuration]]:
    """Trajectory [(time, configuration)] at record_every strides,
    deterministic in ``seed``. Raises DivergenceError naming the offending
    step if an iterate leaves the representable range."""
    start = np.asarray(start, dtype=float)
    sphere_check(start)
    n = d.n
    h = cfg.step
    _stability_guard(d, start, cfg)

    rng = derived_rng(seed)
    sqrt_n = math.sqrt(n)
    sqrt_2h = np.sqrt(2.0 * h)
    drift_coef = (n - 1) / n

    sigma = start.copy()
    out: list[tuple[float, Configuration]] = [(0.0, sigma.copy())]
    with np.errstate(over="ignore", invalid="ignore"):  # guarded below
        for k in range(1, cfg.n_steps + 1):
            g_sp = spherical_gradient(d, sigma)
            xi = rng.standard_normal(n)
            xi -= sigma * (float(sigma @ xi) / n)  # project noise tangentially
            sigma = sigma + h * (cfg.beta * g_sp - drift_coef * sigma) \
                + sqrt_2h * xi
            sq = float(sigma @ sigma)
            if not math.isfinite(sq):  # an entry, or the norm, overflowed
                raise DivergenceError(
                    f"trajectory diverged at step {k}; reduce the step size")
            sigma *= sqrt_n / math.sqrt(sq)  # retraction
            if k % cfg.record_every == 0:
                out.append((k * h, sigma.copy()))
    return out


def _stability_guard(d: Disorder, start: Configuration,
                     cfg: LangevinConfig) -> None:
    # warn (do not enforce) when step * beta * gradient scale looks large
    if cfg.beta == 0.0:
        return
    scale = float(np.linalg.norm(gradient(d, start))) / np.sqrt(d.n)
    if cfg.step * cfg.beta * scale >= 0.1:
        warnings.warn(
            f"step*beta*grad_scale = {cfg.step * cfg.beta * scale:.3f} >= 0.1; "
            "integration may be inaccurate", StabilityWarning, stacklevel=3)
