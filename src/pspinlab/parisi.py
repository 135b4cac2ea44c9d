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

Every solve minimizes over measures on [0, q_top], q_top = ``Q_TOP`` =
1 - 1e-4. Replacing q_hat by the fixed endpoint q_top (integrating dt/phi
up to q_top and adding log(1 - q_top)) reproduces P exactly whenever the
true q_hat is <= q_top, because on [q_hat, q_top] the integrand is
1/(1-t) and the surplus integral telescopes against the log. With the
endpoint fixed, P is convex in the CDF x (the first term is linear, 1/phi
is a convex decreasing function of an affine map).

Its first variation is g(t) = (beta^2 xi'(t) - Int_0^t ds/phi^2) / 2, and
the extreme points of the feasible CDFs are the suffix indicators
1{t >= s}, so the Frank-Wolfe gap of a measure with atoms s_i and weights
w_i (Jaggi, ICML 2013),

    gap = sum_i w_i G(s_i) - min(0, min_s G(s)),   G(s) = Int_s^{q_top} g,

bounds its value minus the minimum of P from above. ``_fw_gap`` computes
it with a rigorous lower bound on min G, for any atomic measure.

``minimize_cs`` answers in one of two ways. The atomic solve
(``_atomic_solve``) takes Newton steps on the locations and CDF levels of
at most ``MAX_ATOMS`` atoms, inserting an atom where G is least, and
answers when its gap is at most ``GAP_TOL`` and every atom lies below
q_top: at these models the minimizer has one or two atoms (the one-step
RSB form of Crisanti & Sommers, Z. Phys. B 87, 1992). Otherwise the grid
solve (``_grid_solve``) runs projected gradient with isotonic projection
on the CDF values of a fixed grid 0 = g_0 < ... < g_m = q_top, which
converges globally, and its answer carries its own gap; mass at q_top is
flagged by ``TruncationWarning``.
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

Q_TOP = 1.0 - 1e-4  # fixed endpoint q_top of every solve
DEFAULT_M = 512  # grid intervals of a grid solve unless the caller sets m
MAX_ITER = 20000  # iteration budget of the grid solve
TOL_REL = 1e-10  # relative objective stagnation the grid solve requires
TOL_KKT = 1e-7  # max KKT violation the grid solve requires
SPG_MEMORY = 10  # accepted values the nonmonotone line search looks back on
SPG_SIGMA = 1e-4  # sufficient-decrease fraction of the line search
SPG_ALPHA = (1e-10, 1e10)  # clamp of the Barzilai-Borwein step
GAP_TOL = 1e-8  # Frank-Wolfe gap at which the atomic solve answers
MAX_ATOMS = 3  # most atoms of an atomic solve
MERGE_DIST = 1e-6  # atoms closer than this merge into one
W_MIN = 1e-12  # an atom of smaller weight merges into its neighbour
NEAR_DIST = 1e-3  # an argmin of G this near an atom asks for Newton steps
NEWTON_STEPS = 60  # Newton-step budget of one atomic solve
NEWTON_TOL = 1e-15  # largest step, in any coordinate, of a converged solve
STALL_SIZE = 1e-6  # below it rounding hides a step's decrease in P
CERT_NODES = 4096  # most mesh nodes a certificate bisects up to


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
    """A solve's value and minimizing measure, with ``gap``, its
    Frank-Wolfe gap: the value lies at most ``gap`` above the minimum over
    measures on [0, Q_TOP]. From the atomic solve, ``iterations`` counts
    Newton steps, ``kkt_residual`` is the largest absolute component of
    the gradient in the atom locations and CDF levels, and ``converged``
    means certified (gap <= GAP_TOL). From the grid solve, the three
    describe its projected-gradient iterations, and an atom sits at each
    grid node where the solved CDF jumps."""

    value: float
    measure: ParisiMeasure
    kkt_residual: float
    converged: bool
    iterations: int
    gap: float


def _solve_error(result) -> str:
    """A row's ``error``: empty once ``result`` (a solve) converged."""
    return "" if result.converged else "solver did not converge"


def rs_value(t, xi: MixtureFn, beta: float):
    """Value at the single atom delta_t:
    (beta^2/2)(xi(1) - xi(t)) + t/(2(1-t)) + log(1-t)/2, elementwise over
    an array of locations."""
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t < 1.0)):
        raise ValueError(f"atom location must lie in [0, 1), got {t}")
    value = 0.5 * (beta * beta * (evaluate(xi, 1.0) - evaluate(xi, t))
                   + t / (1.0 - t) + np.log1p(-t))
    return value if t.ndim else float(value)


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
    """Optimization grid of m intervals: uniform on [0, 0.9) plus geometric
    accumulation of 1 - g from 0.9 toward Q_TOP; band mixtures at large p
    need resolution near 1. Both parts increase and the first lies below
    the second, so their concatenation is sorted."""
    if m < 16:
        raise ValueError(f"grid needs at least 16 intervals, got {m!r}")
    m_u = int(0.6 * m)
    uniform = np.linspace(0.0, 0.9, m_u, endpoint=False)
    geo = 1.0 - np.exp(np.linspace(math.log(0.1), math.log(1.0 - Q_TOP),
                                   m + 1 - m_u))
    return np.concatenate([uniform, geo])


_MESH = make_grid(64)  # start and certificate mesh of the atomic solve


def _check_beta(beta) -> None:
    if not 0 < beta < math.inf:  # NaN fails this test too
        raise ValueError(f"beta must be positive and finite, got {beta!r}")


def minimize_cs(xi: MixtureFn, beta: float,
                m: int = DEFAULT_M) -> MinimizeResult:
    """Minimize the functional over measures on [0, Q_TOP].

    The atomic solve (``_atomic_solve``) answers first: Newton steps on
    at most ``MAX_ATOMS`` atom locations and CDF levels, certified by the
    Frank-Wolfe gap ``_fw_gap``. Its answer is returned when the gap is at
    most ``GAP_TOL`` and every atom lies below ``Q_TOP``; ``iterations``
    then counts Newton steps and ``kkt_residual`` is the largest absolute
    component of the atomic gradient. Otherwise the grid solve
    (``_grid_solve``) minimizes over monotone CDF vectors on
    ``make_grid(m)`` and its answer is returned with its own gap. Both
    paths need the compiled PAVA kernel, which loads before either runs,
    so a solve without it fails the same way whichever path would answer.
    """
    _check_beta(beta)
    grid = make_grid(m)
    _pava_kernel()
    return _atomic_solve(xi, beta) or _grid_solve(xi, beta, grid)


def _grid_solve(xi: MixtureFn, beta: float,
                grid: np.ndarray) -> MinimizeResult:
    """Minimize the discretized functional over monotone CDF vectors on
    ``grid``, then certify the answer by ``_fw_gap``.

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
    m = 512, KKT 1e-3; 1000 at m = 64).
    """
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
                      "value is truncated", TruncationWarning, stacklevel=3)
    return MinimizeResult(value=float(fx), measure=measure, kkt_residual=kkt,
                          converged=converged, iterations=it,
                          gap=_fw_gap(xi, beta, measure))


# --------------------------
# atomic solve and its certificate
# --------------------------

def _atomic_solve(xi: MixtureFn, beta: float) -> MinimizeResult | None:
    """Newton solve over measures of at most MAX_ATOMS atoms below Q_TOP;
    None unless its answer is certified (gap <= GAP_TOL).

    The start is the best single atom on ``_MESH``. While the gap exceeds
    GAP_TOL, an atom goes in at the certificate's argmin of G, with the
    weight that minimizes P on the segment from the current measure to the
    new atom (P is convex there), and Newton steps then move every
    location and CDF level; an argmin within NEAR_DIST of an atom asks for
    more Newton steps instead. Atoms closer than MERGE_DIST merge.
    """
    b2 = beta * beta
    ends = evaluate(xi, np.array([Q_TOP, 1.0])).tolist()
    s, c = [float(_MESH[np.argmin(rs_value(_MESH[:-1], xi, beta))])], []
    steps = 0
    for _ in range(2 * MAX_ATOMS):
        s, c, taken, terms = _newton(xi, b2, ends, s, c,
                                     NEWTON_STEPS - steps)
        steps += taken
        if s is None:
            return None
        measure = ParisiMeasure(s, np.diff(c + [1.0], prepend=0.0))
        gap, _, t_min = _fw_bound(xi, b2, measure)
        if gap <= GAP_TOL:
            return MinimizeResult(value=terms[0], measure=measure,
                                  kkt_residual=max(map(abs, terms[1])),
                                  converged=True, iterations=steps, gap=gap)
        if t_min == Q_TOP:
            return None  # the minimizer needs mass at the endpoint
        if min(abs(t_min - t) for t in s) < NEAR_DIST:
            if taken:
                continue  # the atoms are still moving: more Newton steps
            return None
        if len(s) == MAX_ATOMS:
            return None
        s, c = _insert_atom(xi, b2, ends, s, c, t_min)
    return None


def _xi_at(xi: MixtureFn, s: list) -> tuple[list, list, list]:
    """xi, xi' and xi'' at the atoms, as lists."""
    t = np.array(s)
    return (evaluate(xi, t).tolist(), evaluate(xi, t, 1).tolist(),
            evaluate(xi, t, 2).tolist())


def _atom_terms(b2: float, ends: list, s: list, c: list, xs: tuple):
    """Value, gradient and Hessian of P at the atoms ``s`` with CDF levels
    ``c`` (the CDF between s_i and s_{i+1}, i < k - 1; it is 1 above the
    top atom), the variables ordered s_0 .. s_{k-1}, c_0 .. c_{k-2}.

    Between atoms x is constant, so phi is linear, int dt/phi^2 over a
    segment is L/(phi_a phi_b) and every other integral is a ``_tail``
    series in r = 1 - phi_b/phi_a. With g(t) = (b2 xi'(t) - I(t))/2,
    I(t) = int_0^t ds/phi^2 and G(s) = int_s^{Q_TOP} g,

        dP/ds_i = -w_i g(s_i),    dP/dc_i = G(s_i) - G(s_{i+1}),

    and the Hessian follows from d phi(u)/d s_j = -w_j 1{u < s_j} and
    d phi(u)/d c_j = (length of [max(u, s_j), s_{j+1}]), through
    Phi3(t) = int_0^t du/phi^3.
    """
    x0, x1, x2 = xs
    xi_top, xi_one = ends
    k = len(s)
    lev = c + [1.0]
    w = [lev[0]] + [lev[i] - lev[i - 1] for i in range(1, k)]
    L = [s[i + 1] - s[i] for i in range(k - 1)]
    phi = [1.0 - s[-1]] * k
    for i in range(k - 2, -1, -1):
        phi[i] = phi[i + 1] + lev[i] * L[i]
    r = [lev[i] * L[i] / phi[i] for i in range(k - 1)]
    inv = [s[0] / phi[0] ** 2]  # I at the atoms
    cube = [s[0] / phi[0] ** 3]  # Phi3 at the atoms
    for i in range(k - 1):
        a, b = phi[i], phi[i + 1]
        inv.append(inv[i] + L[i] / (a * b))
        cube.append(cube[i] + L[i] * (a + b) / (2.0 * a * a * b * b))
    g = [0.5 * (b2 * x1[i] - inv[i]) for i in range(k)]
    top = Q_TOP - s[-1]
    rt = top / phi[-1]
    G = [0.0] * k
    G[-1] = 0.5 * (b2 * (xi_top - x0[-1]) - top * inv[-1]
                   - rt * rt * _tail(rt, 2))
    step = [0.0] * (k - 1)  # G(s_i) - G(s_{i+1})
    for i in range(k - 2, -1, -1):
        a = L[i] / phi[i]
        step[i] = 0.5 * (b2 * (x0[i + 1] - x0[i]) - L[i] * inv[i]
                         - a * a * _tail(r[i], 2))
        G[i] = G[i + 1] + step[i]
    value = 0.5 * (b2 * (sum(lev[i] * (x0[i + 1] - x0[i])
                             for i in range(k - 1)) + xi_one - x0[-1])
                   + s[0] / phi[0] + math.log1p(-s[-1])
                   + sum(L[i] / phi[i] * _tail(r[i], 1)
                         for i in range(k - 1)))
    grad = [-w[i] * g[i] for i in range(k)] + step

    n = 2 * k - 1
    H = [[0.0] * n for _ in range(n)]
    for i in range(k):
        for j in range(i, k):
            H[i][j] = w[i] * w[j] * cube[i]
        H[i][i] -= 0.5 * w[i] * (b2 * x2[i] - 1.0 / phi[i] ** 2)
    # int over segment j of (s_{j+1} - u)^n / phi^3, n = 1, 2
    m1 = [L[j] * L[j] / (2.0 * phi[j] ** 2 * phi[j + 1]) for j in range(k - 1)]
    m2 = [(L[j] / phi[j]) ** 3 * _tail(r[j], 3) for j in range(k - 1)]
    for a in range(k - 1):
        H[k + a][k + a] = L[a] * L[a] * cube[a] + m2[a]
        for b in range(a + 1, k - 1):
            H[k + a][k + b] = L[b] * (L[a] * cube[a] + m1[a])
    for i in range(k):
        for j in range(k - 1):
            dg = L[j] * cube[i] if i <= j else L[j] * cube[j] + m1[j]
            dw = 1.0 if i == j else -1.0 if i == j + 1 else 0.0
            H[i][k + j] = -dw * g[i] - w[i] * dg
    for i in range(n):
        for j in range(i):
            H[i][j] = H[j][i]
    return value, grad, H, G


def _tail(r: float, m: int) -> float:
    """sum_{n >= m} r^(n - m) / n for 0 <= r < 1, that is
    (-log(1 - r) - sum_{n < m} r^n / n) / r^m, by the series below
    r = 0.1, where the closed form cancels."""
    if r < 0.1:
        total = 0.0
        for n in range(m + 17, m - 1, -1):  # 0.1^18 < 1e-17 relative
            total = total * r + 1.0 / n
        return total
    head = -math.log1p(-r)
    for n in range(1, m):
        head -= r ** n / n
    return head / r ** m


def _tail_array(r: np.ndarray, m: int) -> np.ndarray:
    """``_tail`` over an array: the same series and closed form, on each
    entry, to rounding."""
    out = np.empty_like(r)
    small = r < 0.1
    rs = r[small]
    total = np.zeros_like(rs)
    for n in range(m + 17, m - 1, -1):
        total = total * rs + 1.0 / n
    out[small] = total
    head = r[~small]
    closed = -np.log1p(-head)
    for n in range(1, m):
        closed -= head ** n / n
    out[~small] = closed / head ** m
    return out


def _newton(xi, b2, ends, s, c, budget):
    """Newton steps on (s, c) from the given atoms until a step is below
    NEWTON_TOL, or below STALL_SIZE and over half the last (rounding then
    sets the steps): (s, c, steps taken, ``_atom_terms`` there), or s None
    when the budget runs out or no step length descends.

    A step goes at most to where a weight or the gap between two atoms
    reaches 0, where ``_cleaned`` merges that atom into its neighbour, and
    it is halved until P falls enough (untested below STALL_SIZE, where
    rounding hides the fall) and the top atom stays below Q_TOP.
    The bound s_0 >= 0 is held active while it binds.
    """
    terms = _atom_terms(b2, ends, s, c, _xi_at(xi, s))
    last = math.inf
    for taken in range(budget + 1):
        value, grad, H, _ = terms
        k = len(s)
        free = [i for i in range(2 * k - 1)
                if i or s[0] > 0.0 or grad[0] < 0.0]
        d = [0.0] * (2 * k - 1)
        for i, di in zip(free, _descent_step([[H[i][j] for j in free]
                                               for i in free],
                                              [-grad[i] for i in free])):
            d[i] = di
        size = max(map(abs, d))
        if size < NEWTON_TOL or 0.5 * last <= size < STALL_SIZE:
            return s, c, taken, terms
        last = size
        if taken == budget:
            break
        alpha = _step_limit(s, c, d)
        slope = sum(gi * di for gi, di in zip(grad, d))
        for _ in range(60):  # alpha down to 1e-18
            s_new, c_new = _cleaned(*_moved(s, c, d, alpha, k))
            if s_new[-1] < Q_TOP:
                terms = _atom_terms(b2, ends, s_new, c_new,
                                    _xi_at(xi, s_new))
                if (size * alpha < STALL_SIZE
                        or terms[0] <= value + 1e-4 * alpha * slope):
                    break
            alpha *= 0.5
        else:
            break
        s, c = s_new, c_new
    return None, None, taken, None


def _descent_step(A, b):
    """Solve (A + shift I) d = b by Cholesky, the shift 0, or raised until
    A + shift I factors where A is not positive definite, so that d
    descends. Plain Python: numpy.linalg's LAPACK pages would add 0.75 MB
    to a solver run's peak memory, for matrices of at most 5 x 5."""
    n = len(b)
    shift, scale = 0.0, max((abs(A[i][i]) for i in range(n)), default=0.0)
    while (chol := _cholesky(A, shift)) is None:
        shift = max(10.0 * shift, 1e-10 * scale, 1e-300)
    d = [0.0] * n
    for i in range(n):  # chol y = b, then chol^T d = y, in place
        d[i] = (b[i] - sum(chol[i][j] * d[j] for j in range(i))) / chol[i][i]
    for i in range(n - 1, -1, -1):
        d[i] = (d[i] - sum(chol[j][i] * d[j]
                           for j in range(i + 1, n))) / chol[i][i]
    return d


def _cholesky(A, shift):
    """Lower Cholesky factor of A + shift I, or None where that is not
    positive definite."""
    n = len(A)
    chol = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = A[i][j] - sum(chol[i][m] * chol[j][m] for m in range(j))
            if j < i:
                chol[i][j] = acc / chol[j][j]
            elif acc + shift > 0.0:
                chol[i][i] = math.sqrt(acc + shift)
            else:
                return None
    return chol


def _moved(s, c, d, alpha, k):
    """The step alpha d, with the locations projected onto s >= 0."""
    return ([max(si + alpha * di, 0.0) for si, di in zip(s, d)],
            [ci + alpha * di for ci, di in zip(c, d[k:])])


def _step_limit(s, c, d):
    """The largest alpha <= 1 at which every weight and every gap between
    adjacent atoms is still >= 0."""
    k = len(s)
    lev, dlev = [0.0] + c + [1.0], [0.0] + d[k:] + [0.0]
    room = ([(lev[i + 1] - lev[i], dlev[i + 1] - dlev[i]) for i in range(k)]
            + [(s[i + 1] - s[i], d[i + 1] - d[i]) for i in range(k - 1)])
    return min([1.0] + [size / -rate for size, rate in room if rate < 0.0])


def _cleaned(s, c):
    """The atoms with each one of weight below W_MIN, or closer than
    MERGE_DIST to the atom below it, merged into that atom at their
    weighted mean location."""
    w = [b - a for a, b in zip([0.0] + c, c + [1.0])]
    if all(wi >= W_MIN for wi in w) and all(
            b - a >= MERGE_DIST for a, b in zip(s, s[1:])):
        return s, c
    out_s, out_w = [s[0]], [w[0]]
    for x, wi in zip(s[1:], w[1:]):
        if min(wi, out_w[-1]) < W_MIN or x - out_s[-1] < MERGE_DIST:
            total = out_w[-1] + wi
            out_s[-1] = (out_w[-1] * out_s[-1] + wi * x) / total
            out_w[-1] = total
        else:
            out_s.append(x)
            out_w.append(wi)
    return out_s, np.cumsum(out_w)[:-1].tolist()


def _insert_atom(xi, b2, ends, s, c, t):
    """Add an atom at t with the weight lam in (0, 1] that minimizes P on
    (1 - lam) mu + lam delta_t, by safeguarded Newton steps on dP/dlam
    (P is convex in lam); atoms left with no weight are dropped."""
    cdf = [0.0] + c + [1.0]  # cdf[j]: mu's CDF from its j-th atom on
    s_new = sorted(s + [t])
    k = len(s)  # levels of the new measure, the top atom's 1 left out
    # the new measure's levels are base + lam * direction
    base = [cdf[sum(si <= x for si in s)] for x in s_new[:k]]
    direction = [float(x >= t) - b for x, b in zip(s_new, base)]
    xs = _xi_at(xi, s_new)
    lam, lo, hi = 0.0, 0.0, 1.0
    for _ in range(NEWTON_STEPS):
        lev = [b + lam * dj for b, dj in zip(base, direction)]
        _, grad, H, _ = _atom_terms(b2, ends, s_new, lev, xs)
        slope = sum(grad[k + 1 + j] * direction[j] for j in range(k))
        if slope < 0.0:
            lo = lam
        else:
            hi = lam
        curve = sum(direction[i] * H[k + 1 + i][k + 1 + j] * direction[j]
                    for i in range(k) for j in range(k))
        new = lam - slope / curve if curve > 0.0 else hi
        if not lo < new < hi:  # past the bracket: lam = 1 once, or bisect
            new = 1.0 if new >= hi == 1.0 > lam else 0.5 * (lo + hi)
        if abs(new - lam) < 1e-14:
            break
        lam = new
    return _cleaned(s_new, [b + lam * dj for b, dj in zip(base, direction)])


def _fw_gap(xi: MixtureFn, beta: float, measure: ParisiMeasure) -> float:
    """Frank-Wolfe gap of an atomic measure on [0, Q_TOP]: an upper bound
    on its value minus the minimum of P over measures on [0, Q_TOP].

    P is convex in the CDF x, its first variation is g, and the extreme
    points of the feasible CDFs are the suffix indicators 1{t >= s}, so
    gap = sum_i w_i G(s_i) - min(0, min_s G(s)), G(s) = int_s^{Q_TOP} g.
    ``_fw_bound`` bounds min G from below, so the gap is an upper bound.
    """
    return _fw_bound(xi, beta * beta, measure)[0]


def _fw_bound(xi: MixtureFn, b2: float, measure: ParisiMeasure):
    """(the gap, the lower bound on min G over [0, Q_TOP] it uses, the mesh
    node where G is least). The gap is taken as 0 where rounding puts it
    below (the weights sum to 1 only to rounding).

    G is exact at the nodes of ``_MESH`` joined with the atoms. On a mesh
    interval [a, b], x is constant, phi falls and xi'' rises, so
    G'' = (1/phi^2 - b2 xi'')/2 lies between its values with phi(a) and
    xi''(b) and with phi(b) and xi''(a). The bound on the interval is
    min(G(a), G(b)) - (L^2/8) max(0, sup G''), and where inf G'' >= 0
    (G convex) the larger of that and the endpoint tangents' bound.
    Intervals whose bound lies below the least node value by more than a
    slack (a quarter of GAP_TOL, or an eighth of the gap the nodes show)
    are bisected, at most CERT_NODES nodes in all.
    """
    loc, w = measure.locations, measure.weights
    nodes = np.union1d(_MESH, loc)
    while True:
        G, g, phi, xi2 = _g_nodes(xi, b2, loc, w, nodes)
        L = np.diff(nodes)
        ga, gb = G[:-1], G[1:]
        hi = 0.5 * (1.0 / phi[1:] ** 2 - b2 * xi2[:-1])
        lo = 0.5 * (1.0 / phi[:-1] ** 2 - b2 * xi2[1:])
        bound = np.minimum(ga, gb) - np.maximum(hi, 0.0) * L * L / 8.0
        # convex: tangents at a (slope -g_a) and b (slope -g_b)
        da, db = -g[:-1], -g[1:]
        cross = np.clip((gb - ga - db * L) / np.minimum(da - db, -1e-300),
                        0.0, L)
        tangent = np.where(da >= 0.0, ga,
                           np.where(db <= 0.0, gb, ga + da * cross))
        bound = np.where(lo >= 0.0, np.maximum(bound, tangent), bound)
        expected = float(w @ G[np.searchsorted(nodes, loc)])
        least = int(np.argmin(G))
        slack = max(GAP_TOL / 4.0, (expected - G[least]) / 8.0)
        loose = bound < G[least] - slack
        if not loose.any() or nodes.size + loose.sum() > CERT_NODES:
            lower = float(bound.min())
            return (max(expected - min(lower, 0.0), 0.0), lower,
                    float(nodes[least]))
        nodes = np.union1d(nodes, 0.5 * (nodes[:-1][loose] + nodes[1:][loose]))


def _g_nodes(xi, b2, loc, w, nodes):
    """G, g, phi and xi'' at ``nodes`` (sorted, from 0 to Q_TOP, holding
    every atom) for the measure with atoms ``loc`` and weights ``w``."""
    L = np.diff(nodes)
    level = np.concatenate(([0.0], np.cumsum(w)))[
        np.searchsorted(loc, nodes[:-1], side="right")]
    phi = np.empty(nodes.size)
    phi[-1] = 1.0 - nodes[-1]
    phi[:-1] = phi[-1] + np.cumsum((level * L)[::-1])[::-1]
    a = L / phi[:-1]
    inv = np.concatenate(([0.0], np.cumsum(a / phi[1:])))  # I at the nodes
    # int over each interval of I: L I(a) + (L/phi_a)^2 _tail(r, 2)
    part = L * inv[:-1] + a * a * _tail_array(level * a, 2)
    suffix = np.concatenate((np.cumsum(part[::-1])[::-1], [0.0]))
    x0 = evaluate(xi, nodes)
    G = 0.5 * (b2 * (x0[-1] - x0) - suffix)
    g = 0.5 * (b2 * evaluate(xi, nodes, 1) - inv)
    return G, g, phi, evaluate(xi, nodes, 2)


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
