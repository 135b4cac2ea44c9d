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

Minimization is over CDF values on a fixed grid 0 = g_0 < ... < g_m = q_top,
with q_top = ``Q_TOP`` = 1 - 1e-4 for every solve. Replacing q_hat by the
fixed endpoint q_top (integrating dt/phi up to q_top and adding
log(1 - q_top)) reproduces P exactly whenever the true q_hat is <= q_top,
because on [q_hat, q_top] the integrand is 1/(1-t) and the surplus
integral telescopes against the log; a minimizer that reaches q_top is
flagged by ``TruncationWarning``. With the endpoint fixed, the objective
is smooth and convex in the CDF vector (the first term is linear, 1/phi is
a convex decreasing function of an affine map), so projected gradient with
isotonic projection onto the monotone chain converges globally.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TruncationWarning
from .mixtures import MixtureFn, evaluate

__all__ = ["ParisiMeasure", "MinimizeResult", "cs_functional", "rs_value",
           "minimize_cs", "make_grid"]

Q_TOP = 1.0 - 1e-4  # fixed top of the solver grid, the endpoint q_top
DEFAULT_M = 512  # grid intervals of a solve unless the caller sets m
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


def _solve_error(result) -> str:
    """A row's ``error``: empty once ``result`` (a solve) converged."""
    return "" if result.converged else "solver did not converge"


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

    # phi at the atoms, top down: 1 - q_hat > 0 at q_hat, growing below
    n = len(loc)
    phi = np.empty(n)
    phi[-1] = 1.0 - q_hat
    for i in range(n - 2, -1, -1):
        phi[i] = phi[i + 1] + cum[i] * (loc[i + 1] - loc[i])

    integral = 0.0
    if loc[0] > 0.0:  # zero-CDF segment [0, loc_0]: phi constant there
        integral += loc[0] / phi[0]
    for i in range(n - 1):  # slope cum[i] > 0: closed-form log
        integral += (math.log(phi[i]) - math.log(phi[i + 1])) / cum[i]
    if q_top > q_hat:  # full-CDF segment: phi(t) = 1 - t
        integral += math.log1p(-q_hat) - math.log1p(-q_top)

    return 0.5 * (first + integral + math.log1p(-q_top))


def make_grid(m: int) -> np.ndarray:
    """Optimization grid of m intervals: uniform on [0, 0.9] plus geometric
    accumulation of 1 - g toward Q_TOP; band mixtures at large p need
    resolution near 1."""
    if m < 16:
        raise ValueError(f"grid needs at least 16 intervals, got {m!r}")
    m_u = int(0.6 * m)
    uniform = np.linspace(0.0, 0.9, m_u, endpoint=False)
    geo = 1.0 - np.exp(np.linspace(math.log(0.1), math.log(1.0 - Q_TOP),
                                   m + 1 - m_u))
    return np.unique(np.concatenate([uniform, geo]))


def _check_beta(beta) -> None:
    if not 0 < beta < math.inf:  # NaN fails this test too
        raise ValueError(f"beta must be positive and finite, got {beta!r}")


def minimize_cs(xi: MixtureFn, beta: float,
                m: int = DEFAULT_M) -> MinimizeResult:
    """Minimize the discretized functional over monotone CDF vectors on
    ``make_grid(m)``.

    Spectral projected gradient (Birgin, Martinez & Raydan 2000) with
    projection onto {0 <= x_0 <= ... <= x_{m-1} <= 1} given by clipped
    isotonic regression. The step is the Barzilai-Borwein ratio s.s / s.y of
    the last two iterates and gradients; the line search is nonmonotone
    (Armijo against the largest of the last ``SPG_MEMORY`` accepted values)
    and halves the step until a trial passes. Every trial is one
    ``value_grad`` call, and the accepted trial's gradient is kept, so an
    accepted first trial costs one gradient and one projection. Convergence
    requires both objective stagnation below ``TOL_REL`` and max KKT
    violation below ``TOL_KKT``; on budget exhaustion the best iterate is
    returned with converged=False. Mass on the grid's top node ``Q_TOP``
    warns with ``TruncationWarning``: the value is then that of a truncated
    measure. The budget runs out at low temperature (p = 3: beta = 300 at
    m = 512, KKT 1e-3; 1000 at m = 64); no default goes above beta ~ 3.
    """
    _check_beta(beta)
    grid = make_grid(m)
    prob = _CsProblem(xi, beta, grid)

    x = np.ones(len(grid) - 1)  # delta_0 start: exact in the RS phase
    fx, gx = prob.value_grad(x)
    best_x, best_f = x, fx
    recent = deque([fx], maxlen=SPG_MEMORY)
    alpha = 1.0
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        d = prob.project(x - alpha * gx)
        d -= x
        slope, f_ref, lam = SPG_SIGMA * float(gx @ d), max(recent), 1.0
        xn = x + d
        fxn, gxn = prob.value_grad(xn)
        while fxn > f_ref + lam * slope and lam > 1e-18:
            lam *= 0.5
            xn = x + lam * d
            fxn, gxn = prob.value_grad(xn)
        s, y = xn - x, gxn - gx
        rel = abs(fx - fxn) / max(abs(fxn), 1.0)
        x, fx, gx = xn, fxn, gxn
        recent.append(fx)
        if fx < best_f:
            best_x, best_f = x, fx
        sy = float(s @ y)
        alpha = (min(max(float(s @ s) / sy, SPG_ALPHA[0]), SPG_ALPHA[1])
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
    boundary_mass = jumps[-1]  # weight of the atom at q_top, if any
    if boundary_mass > 1e-6:
        warnings.warn("minimizer support reached the fixed grid endpoint "
                      f"{Q_TOP} (boundary mass {boundary_mass:.2e}); the "
                      "value is truncated", TruncationWarning, stacklevel=2)
    return MinimizeResult(value=float(fx), measure=measure, kkt_residual=kkt,
                          converged=converged, iterations=it)


# --------------------------
# discretized objective
# --------------------------

_PAVA_MODULE = "scipy.optimize._pava_pybind"


def _pava_kernel() -> Callable:
    """scipy's compiled pool-adjacent-violators kernel, ``pava``.

    Importing it by name would first run ``scipy/optimize/__init__.py``,
    hundreds of modules the kernel does not use (about 0.6 s and 49 MB on a
    2-core shared host), so its extension file is found in scipy's
    ``optimize/`` directory and loaded by itself, without executing scipy.
    It is registered in ``sys.modules``
    under its full name: later solves skip the search, and a later
    ``import scipy.optimize`` reuses the same module object.
    """
    module = sys.modules.get(_PAVA_MODULE)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "optimize"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES)).find_spec(_PAVA_MODULE)
        if spec is None:
            raise ModuleNotFoundError(
                "the band solver needs scipy >= 1.12 for its compiled PAVA "
                f"kernel {_PAVA_MODULE}, which was not found",
                name=_PAVA_MODULE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_PAVA_MODULE] = module
    return module.pava


class _CsProblem:
    """Value and analytic gradient of the fixed-endpoint objective.

    With x the CDF on grid[:-1] (grid[-1] pinned to CDF 1), lengths
    L_j = g_{j+1} - g_j and phi_j = (1 - q_top) + sum_{i >= j} x_i L_i:

        2 P(x) = beta^2 (x . dxi + xi(1) - xi(q_top)) + log(1 - q_top)
                 + sum_j (L_j / phi_{j+1}) f(u_j),    u_j = x_j L_j / phi_{j+1},

    where f(u) = log(1+u)/u. Differentiating, a shift of x_k moves phi_j for
    all j <= k in lockstep, and d seg_j / d(common phi shift) collapses to
    -L_j / (phi_j phi_{j+1}) with no cancellation. ``project`` maps a
    vector onto the feasible CDFs.

    Scratch buffers for phi, ratio, u, ratio^2, the gradient prefix and the
    projection's weights and blocks, and the views of phi and the prefix
    that ``value_grad`` reads, are made once and overwritten by every call;
    none leaves a call. ``value_grad`` returns a fresh gradient, which the
    solver keeps, and its value as a Python float: the value and every
    scalar of the solver's line search are Python floats, the same IEEE
    operations as on numpy scalars without their dispatch.
    """

    def __init__(self, xi: MixtureFn, beta: float, grid: np.ndarray):
        # the kernel's extension file loads on the first solve, alone: not
        # the scipy.optimize package, and not when pspinlab is imported
        self._pava = _pava_kernel()
        self.L = np.diff(grid)
        self.neg_L_head = -self.L[:-1]
        xg = evaluate(xi, np.append(grid, 1.0))  # one call gives xi(1) too
        self.dxi = np.diff(xg[:-1])
        self.b2 = float(beta * beta)
        self.b2_dxi = self.b2 * self.dxi
        self.const = float(self.b2 * (xg[-1] - xg[-2])
                           + math.log1p(-grid[-1]))
        self.phi_end = 1.0 - grid[-1]
        m = len(self.L)
        phi = np.full(m + 1, self.phi_end)  # phi_m stays phi_end
        # views of phi: phi_j for j < m, the same reversed (its partial sums
        # from the top), phi_{j+1}, and the pairs (phi_j, phi_{j+1}) for
        # j < m - 1 that the gradient prefix reads
        self._phi_head, self._phi_rev = phi[:-1], phi[-2::-1]
        self._phi_next = phi[1:]
        self._phi_lo, self._phi_mid = phi[:-2], phi[1:-1]
        self._ratio, self._u, self._ratio_sq, self._prefix = np.zeros((4, m))
        self._shift = self._prefix[1:]  # prefix_0 stays 0
        self._w = np.ones(m)  # PAVA weights, refilled every call
        self._r = np.full(m + 1, -1, dtype=np.intp)  # PAVA blocks

    def project(self, v: np.ndarray) -> np.ndarray:
        """Euclidean projection of ``v`` onto the monotone chain intersected
        with [0, 1], written into ``v`` and returned: ``v`` is consumed, so
        it must be a fresh contiguous float64 vector (both callers pass one).

        Clipping the unconstrained isotonic fit is exact for box bounds. The
        fit is scipy's compiled pool-adjacent-violators kernel, the routine
        that ``scipy.optimize.isotonic_regression`` wraps, loaded from its
        extension file alone (``_pava_kernel``; the solver never imports the
        ``scipy.optimize`` package) and called on the problem's weight and
        block buffers without that wrapper's copies; it pools in place and
        leaves block weights in ``w``, so ``w`` is reset to ones first. Its
        module name is private, so a test pins this projection bit for bit
        against the public function.
        """
        self._w.fill(1.0)
        self._pava(v, self._w, self._r)
        return np.minimum(np.maximum(v, 0.0, out=v), 1.0, out=v)

    def value_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        np.multiply(x, self.L, out=self._phi_head)
        np.add.accumulate(self._phi_rev, out=self._phi_rev)
        self._phi_head += self.phi_end
        ratio = np.divide(self.L, self._phi_next, out=self._ratio)
        f, grad = _logratio(np.multiply(x, ratio, out=self._u))
        f *= ratio  # f and grad are fresh arrays
        value = 0.5 * (self.b2 * float(x @ self.dxi) + float(f.sum())
                       + self.const)
        grad *= np.multiply(ratio, ratio, out=self._ratio_sq)  # dseg
        grad += self.b2_dxi
        # prefix_k = sum_{j < k} shift_j, shift_j = -L_j / (phi_j phi_{j+1})
        shift = np.multiply(self._phi_lo, self._phi_mid, out=self._shift)
        np.divide(self.neg_L_head, shift, out=shift)
        np.add.accumulate(shift, out=shift)
        prefix = self._prefix
        prefix *= self.L
        grad += prefix
        grad *= 0.5
        return value, grad


def _logratio(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(u) = log(1+u)/u and f'(u), from one log1p pass.

    Series replace the closed forms where those fail: f below 1e-6 (0/0 at
    u = 0) and f' below 1e-4 (cancellation). The closed forms divide by a
    safe denominator, equal to u (or u^2) wherever they are kept, and are
    computed in place in the two returned arrays and one temporary. The
    series run only over the span u[z:j], one Python float at a time: j is
    one past the last u < 1e-4, and the z leading exact zeros take the
    series' exact values at 0 (f = 1, f' = -1/2) by a slice fill. These are
    the IEEE operations of the series masked over every entry, in the same
    order, so the bits are equal. In the solver the small entries are a
    prefix, and the span is empty in most calls and a few entries long in
    nearly all the rest.
    """
    lg = np.log1p(u)
    f = np.maximum(u, 1e-6)
    np.divide(lg, f, out=f)
    df = np.add(u, 1.0)
    np.divide(u, df, out=df)
    df -= lg
    df /= np.maximum(np.multiply(u, u, out=lg), 1e-8, out=lg)
    (small,) = (u < 1e-4).nonzero()
    j = int(small[-1]) + 1 if small.size else 0
    (nonzero,) = u[:j].nonzero()
    z = int(nonzero[0]) if nonzero.size else j
    f[:z] = 1.0
    df[:z] = -0.5
    for i, s in enumerate(u[z:j].tolist(), z):
        if s < 1e-4:
            df[i] = -0.5 + 2.0 * s / 3.0 - 0.75 * s * s
            if s < 1e-6:
                f[i] = 1.0 - 0.5 * s + s * s / 3.0
    return f, df


def _kkt_residual(prob: _CsProblem, x: np.ndarray, grad: np.ndarray) -> float:
    return float(abs(x - prob.project(x - grad)).max())
