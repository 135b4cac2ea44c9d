"""Variational free energy over Parisi measures (Crisanti-Sommers form).

For a probability measure zeta on [0, 1) with CDF x(t) = zeta([0, t]) and
top of support q_hat, the functional is

    P(zeta) = (1/2) [ beta^2 Int_0^1 xi'(t) x(t) dt
                      + Int_0^{q_hat} dt / phi(t) + log(1 - q_hat) ],
    phi(t) = Int_t^1 x(s) ds,

and the free energy is F = min over zeta of P. Both integrals are exact in
closed form for atomic measures: x is a step function, so the first term is
a finite sum over inter-atom segments and phi is piecewise linear, making
dt/phi a log of a linear function per segment (or length/phi where the
local CDF is constant). No quadrature error anywhere.

Minimization is over CDF values on a fixed grid 0 = g_0 < ... < g_m = q_max.
Replacing q_hat by the fixed endpoint q_max (integrating dt/phi up to q_max
and adding log(1 - q_max)) reproduces P exactly whenever the true q_hat is
<= q_max, because on [q_hat, q_max] the integrand is 1/(1-t) and the surplus
integral telescopes against the log. With the endpoint fixed, the objective
is smooth and convex in the CDF vector (the first term is linear, 1/phi is
a convex decreasing function of an affine map), so projected gradient with
isotonic projection onto the monotone chain converges globally.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FeasibilityError, TruncationWarning
from .mixtures import MixtureFn, evaluate

__all__ = ["ParisiMeasure", "MinimizeResult", "cs_functional", "rs_value",
           "minimize_cs", "make_grid", "DEFAULT_GRID"]

DEFAULT_GRID = (512, 1.0 - 1e-4)
MAX_ITER = 20000  # iteration budget of minimize_cs
TOL_REL = 1e-10  # relative objective stagnation that minimize_cs requires
TOL_KKT = 1e-7  # max KKT violation that minimize_cs requires
SPG_MEMORY = 10  # accepted values the nonmonotone line search looks back on
SPG_SIGMA = 1e-4  # sufficient-decrease fraction of the line search
SPG_ALPHA = (1e-10, 1e10)  # clamp of the Barzilai-Borwein step


@dataclass(frozen=True)
class ParisiMeasure:
    """Atomic probability measure on [0, 1): sorted locations and weights."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.atleast_1d(np.asarray(self.locations, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if loc.shape != w.shape or loc.ndim != 1 or loc.size == 0:
            raise ValueError("locations and weights must be matching 1-d vectors")
        if np.any(np.diff(loc) <= 0):
            raise ValueError("atom locations must be strictly increasing")
        if loc[0] < 0.0 or loc[-1] >= 1.0:
            raise ValueError("atom locations must lie in [0, 1)")
        if np.any(w <= 0):
            raise ValueError("atom weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "locations", loc.copy())
        object.__setattr__(self, "weights", w.copy())

    @classmethod
    def dirac(cls, t: float) -> "ParisiMeasure":
        return cls(np.array([t]), np.array([1.0]))

    @property
    def q_hat(self) -> float:
        return float(self.locations[-1])

    def expectation(self, g: Callable) -> float:
        """Sum of weight times g(location); a g that returns a scalar
        broadcasts over the atoms."""
        vals = np.broadcast_to(np.asarray(g(self.locations), dtype=float),
                               self.locations.shape)
        return float(self.weights @ vals)


@dataclass(frozen=True)
class MinimizeResult:
    """``measure`` has an atom at each grid node where the solved CDF
    jumps, so an atom's location is resolved only to the solver grid."""

    value: float
    measure: ParisiMeasure
    kkt_residual: float
    converged: bool
    iterations: int


def rs_value(t: float, xi: MixtureFn, beta: float) -> float:
    """Value at the single atom delta_t:
    (beta^2/2)(xi(1) - xi(t)) + t/(2(1-t)) + log(1-t)/2."""
    t = float(t)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"atom location must lie in [0, 1), got {t}")
    b2 = beta * beta
    return 0.5 * (b2 * (evaluate(xi, 1.0) - evaluate(xi, t))
                  + t / (1.0 - t) + math.log1p(-t))


def cs_functional(zeta: ParisiMeasure, xi: MixtureFn, beta: float,
                  q_top: float | None = None) -> float:
    """Exact functional value on an atomic measure.

    ``q_top`` extends the dt/phi integral to a fixed endpoint >= q_hat and
    replaces log(1 - q_hat) by log(1 - q_top); by the telescoping identity
    this leaves the value unchanged. Default uses q_hat itself.
    """
    _check_beta(beta)
    loc, w = zeta.locations, zeta.weights
    q_hat = zeta.q_hat
    if q_top is None:
        q_top = q_hat
    elif q_top < q_hat or q_top >= 1.0:
        raise ValueError("q_top must lie in [q_hat, 1)")

    cum = np.cumsum(w)  # CDF value on each inter-atom segment
    # first term over segments [loc_i, loc_{i+1}] with final segment to 1
    edges = np.concatenate([loc, [1.0]])
    xi_edges = evaluate(xi, edges)
    first = beta * beta * float(cum @ np.diff(xi_edges))

    # phi at the atom points, from the top down; phi(q_hat) = 1 - q_hat
    n = len(loc)
    phi = np.empty(n)
    phi[-1] = 1.0 - q_hat
    for i in range(n - 2, -1, -1):
        phi[i] = phi[i + 1] + cum[i] * (loc[i + 1] - loc[i])
    if np.any(phi <= 0):
        raise FeasibilityError("phi must stay positive on [0, q_hat]")

    integral = 0.0
    if loc[0] > 0.0:  # zero-CDF segment [0, loc_0]: phi constant there
        integral += loc[0] / phi[0]
    for i in range(n - 1):  # slope cum[i] > 0: closed-form log
        integral += (math.log(phi[i]) - math.log(phi[i + 1])) / cum[i]
    if q_top > q_hat:  # full-CDF segment: phi(t) = 1 - t
        integral += math.log1p(-q_hat) - math.log1p(-q_top)

    return 0.5 * (first + integral + math.log1p(-q_top))


def make_grid(m: int, q_max: float = DEFAULT_GRID[1]) -> np.ndarray:
    """Optimization grid: uniform on [0, 0.9] plus geometric accumulation
    of 1 - g toward q_max; band mixtures at large p need resolution near 1."""
    if m < 16:
        raise ValueError(f"grid needs at least 16 intervals, got {m!r}")
    if not 0.0 < q_max < 1.0:
        raise ValueError(f"q_max must lie in (0, 1), got {q_max!r}")
    if q_max <= 0.92:
        return np.linspace(0.0, q_max, m + 1)
    m_u = int(0.6 * m)
    uniform = np.linspace(0.0, 0.9, m_u, endpoint=False)
    geo = 1.0 - np.exp(np.linspace(math.log(0.1), math.log(1.0 - q_max),
                                   m + 1 - m_u))
    return np.unique(np.concatenate([uniform, geo]))


def _check_beta(beta) -> None:
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta!r}")


def minimize_cs(xi: MixtureFn, beta: float,
                grid_spec: tuple[int, float] = DEFAULT_GRID) -> MinimizeResult:
    """Minimize the discretized functional over monotone CDF vectors.

    Spectral projected gradient (Birgin, Martinez & Raydan 2000) with
    projection onto {0 <= x_0 <= ... <= x_{m-1} <= 1} given by clipped
    isotonic regression. The step is the Barzilai-Borwein ratio s.s / s.y of
    the last two iterates and gradients; the line search is nonmonotone
    (Armijo against the largest of the last ``SPG_MEMORY`` accepted values)
    and halves the step with value-only trials, so an accepted first trial
    costs one gradient and one projection. Convergence requires both
    objective stagnation below ``TOL_REL`` and max KKT violation below
    ``TOL_KKT``; on budget exhaustion the best iterate is returned with
    converged=False.
    """
    _check_beta(beta)
    m, q_max = int(grid_spec[0]), float(grid_spec[1])
    grid = make_grid(m, q_max)
    prob = _CsProblem(xi, beta, grid)

    x = np.ones(len(grid) - 1)  # delta_0 start: exact in the RS phase
    fx, gx = prob.value_grad(x)
    best_x, best_f = x, fx
    recent = deque([fx], maxlen=SPG_MEMORY)
    alpha = 1.0
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        d = prob.project(x - alpha * gx) - x
        slope, f_ref, lam = SPG_SIGMA * (gx @ d), max(recent), 1.0
        xn = x + d
        fxn, gxn = prob.value_grad(xn)
        if fxn > f_ref + slope:
            while fxn > f_ref + lam * slope and lam > 1e-18:
                lam *= 0.5
                xn = x + lam * d
                fxn = prob.value(xn)
            gxn = prob.value_grad(xn)[1]
        s, y = xn - x, gxn - gx
        rel = abs(fx - fxn) / max(abs(fxn), 1.0)
        x, fx, gx = xn, fxn, gxn
        recent.append(fx)
        if fx < best_f:
            best_x, best_f = x, fx
        sy = s @ y
        alpha = (min(max((s @ s) / sy, SPG_ALPHA[0]), SPG_ALPHA[1])
                 if sy > 0 else SPG_ALPHA[1])
        if rel < TOL_REL and it > 5:
            kkt = _kkt_residual(prob, x, gx)
            if kkt < TOL_KKT:
                converged = True
                break

    if not converged:
        x, fx = best_x, best_f
        kkt = _kkt_residual(prob, x, prob.value_grad(x)[1])
    jumps = np.diff(np.clip(x, 0.0, 1.0), prepend=0.0, append=1.0)
    atoms = jumps > 0
    measure = ParisiMeasure(grid[atoms], jumps[atoms])
    boundary_mass = jumps[-1]  # weight of the atom at q_max, if any
    if boundary_mass > 1e-6:
        warnings.warn("minimizer support reached q_max "
                      f"(boundary mass {boundary_mass:.2e}); increase q_max",
                      TruncationWarning, stacklevel=2)
    return MinimizeResult(value=float(fx), measure=measure, kkt_residual=kkt,
                          converged=converged, iterations=it)


# --------------------------
# discretized objective
# --------------------------

class _CsProblem:
    """Value and analytic gradient of the fixed-endpoint objective.

    With x the CDF on grid[:-1] (grid[-1] pinned to CDF 1), lengths
    L_j = g_{j+1} - g_j and phi_j = (1 - q_max) + sum_{i >= j} x_i L_i:

        2 P(x) = beta^2 (x . dxi + xi(1) - xi(q_max)) + log(1 - q_max)
                 + sum_j (L_j / phi_{j+1}) f(u_j),    u_j = x_j L_j / phi_{j+1},

    where f(u) = log(1+u)/u. Differentiating, a shift of x_k moves phi_j for
    all j <= k in lockstep, and d seg_j / d(common phi shift) collapses to
    -L_j / (phi_j phi_{j+1}) with no cancellation. ``value`` skips the
    gradient work and returns bit for bit the value of ``value_grad``.
    ``project`` maps a vector onto the feasible CDFs.
    """

    def __init__(self, xi: MixtureFn, beta: float, grid: np.ndarray):
        # scipy loads on the first solve, so importing pspinlab does not
        from scipy.optimize import isotonic_regression
        self._isotonic = isotonic_regression
        self.L = np.diff(grid)
        self.neg_L = -self.L
        xg = evaluate(xi, np.append(grid, 1.0))  # one call gives xi(1) too
        self.dxi = np.diff(xg[:-1])
        self.b2 = beta * beta
        self.b2_dxi = self.b2 * self.dxi
        self.const = self.b2 * (xg[-1] - xg[-2]) + math.log1p(-grid[-1])
        self.phi_end = 1.0 - grid[-1]

    def project(self, v: np.ndarray) -> np.ndarray:
        # euclidean projection onto the monotone chain intersected with
        # [0, 1]; clipping the unconstrained isotonic fit is exact for box
        # bounds
        return np.clip(self._isotonic(v).x, 0.0, 1.0)

    def value(self, x: np.ndarray) -> float:
        _, ratio, u = self._segments(x)
        return self._total(x, ratio, _logratio(u))

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        phi, ratio, u = self._segments(x)
        f, df = _logratio(u, slope=True)
        dseg = ratio * ratio * df
        # prefix_k = sum_{j < k} shift_j, shift_j = -L_j / (phi_j phi_{j+1})
        prefix = np.zeros(len(x))
        np.cumsum(self.neg_L[:-1] / (phi[:-2] * phi[1:-1]), out=prefix[1:])
        grad = 0.5 * (self.b2_dxi + dseg + self.L * prefix)
        return self._total(x, ratio, f), grad

    def _segments(self, x: np.ndarray):
        """phi on the grid, ratio_j = L_j / phi_{j+1} and u_j = x_j ratio_j."""
        phi = np.empty(len(x) + 1)
        phi[-1] = self.phi_end
        phi[:-1] = self.phi_end + np.cumsum((x * self.L)[::-1])[::-1]
        ratio = self.L / phi[1:]
        return phi, ratio, x * ratio

    def _total(self, x: np.ndarray, ratio: np.ndarray, f: np.ndarray) -> float:
        return float(0.5 * (self.b2 * (x @ self.dxi) + (ratio * f).sum()
                            + self.const))


def _logratio(u: np.ndarray, slope: bool = False):
    """f(u) = log(1+u)/u and, with ``slope``, f'(u), from one log1p pass.

    Series replace the closed forms where those fail: f below 1e-6 (0/0 at
    u = 0) and f' below 1e-4 (cancellation). The closed forms divide by a
    safe denominator, equal to u (or u^2) wherever they are kept.
    """
    lg = np.log1p(u)
    f = lg / np.maximum(u, 1e-6)
    small = u < 1e-4
    any_small = small.any()
    if any_small:
        np.copyto(f, 1.0 - 0.5 * u + u * u / 3.0, where=u < 1e-6)
    if not slope:
        return f
    df = (u / (1.0 + u) - lg) / np.maximum(u * u, 1e-8)
    if any_small:
        np.copyto(df, -0.5 + 2.0 * u / 3.0 - 0.75 * u * u, where=small)
    return f, df


def _kkt_residual(prob: _CsProblem, x: np.ndarray, grad: np.ndarray) -> float:
    return float(np.max(np.abs(x - prob.project(x - grad))))
