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

bounds its value minus the minimum of P from above. ``_fw_bound``
computes it with a rigorous lower bound on min G, for any atomic measure.

``minimize_cs`` is one solve, ``_atomic_solve``: Newton steps on the
locations and CDF levels of at most ``MAX_ATOMS`` atoms, with an atom
inserted where G is least while the gap exceeds ``GAP_TOL``. At these
models the minimizer has one or two atoms (the one-step RSB form of
Crisanti & Sommers, Z. Phys. B 87, 1992). Both ends of [0, q_top] are
bounds that the Newton steps hold; an atom at q_top means the
minimizer's support may reach past the endpoint, which
``TruncationWarning`` flags.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TruncationWarning
from .mixtures import MixtureFn, _TINY, _closed_forms, evaluate

__all__ = ["ParisiMeasure", "MinimizeResult", "cs_functional", "rs_value",
           "minimize_cs"]

Q_TOP = 1.0 - 1e-4  # fixed endpoint q_top of every solve
GAP_TOL = 1e-8  # Frank-Wolfe gap at which a solve counts as converged
MAX_ATOMS = 3  # most atoms of an atomic solve
MERGE_DIST = 1e-6  # atoms closer than this merge into one
W_MIN = 1e-12  # an atom of smaller weight merges into its neighbour
NEAR_DIST = 1e-3  # an argmin of G this near an atom asks for Newton steps
NEWTON_STEPS = 60  # Newton-step budget of one atomic solve
NEWTON_TOL = 1e-15  # largest relative step of a converged solve
REL_FLOOR = 1e-3  # a coordinate below it measures its step against it
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
    measures on [0, Q_TOP], and ``converged`` means gap <= GAP_TOL.
    ``iterations`` counts Newton steps, and ``kkt_residual`` is the largest
    absolute component of the gradient in the atom locations and CDF
    levels, over those not held at a bound."""

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


# start and certificate mesh of the atomic solve, 64 intervals: uniform on
# [0, 0.9), then geometric in 1 - t from 0.1 down to 1 - Q_TOP, since band
# mixtures at large p need resolution near 1
_MESH = np.concatenate([
    np.linspace(0.0, 0.9, 38, endpoint=False),
    1.0 - np.exp(np.linspace(math.log(0.1), math.log(1.0 - Q_TOP), 27))])


def _check_beta(beta) -> None:
    if not 0 < beta < math.inf:  # NaN fails this test too
        raise ValueError(f"beta must be positive and finite, got {beta!r}")


def minimize_cs(xi: MixtureFn, beta: float) -> MinimizeResult:
    """Minimize the functional over measures on [0, Q_TOP] by the atomic
    solve (``_atomic_solve``), certified by the Frank-Wolfe gap
    ``_fw_bound``.

    A solve that does not certify (gap above ``GAP_TOL``) still returns
    its last measure and gap, with converged=False. An atom at ``Q_TOP``
    warns with ``TruncationWarning``: the minimizer's support may reach
    past the endpoint, and the value is then that of a truncated measure.
    At p = 3 the top atom lies at 0.99989 at beta = 3000 and at Q_TOP at
    beta = 1e4.
    """
    _check_beta(beta)
    res = _atomic_solve(xi, beta)
    if res.measure.q_hat >= Q_TOP:
        warnings.warn("minimizer support reached the fixed endpoint "
                      f"{Q_TOP} (mass {res.measure.weights[-1]:.2e}); the "
                      "value is truncated", TruncationWarning, stacklevel=2)
    return res


# --------------------------
# atomic solve and its certificate
# --------------------------

def _atomic_solve(xi: MixtureFn, beta: float) -> MinimizeResult:
    """Newton solve over measures of at most MAX_ATOMS atoms in [0, Q_TOP],
    with its gap.

    The start is the best single atom on ``_MESH``. While the gap exceeds
    GAP_TOL, an atom goes in at the certificate's argmin of G, with the
    weight that minimizes P on the segment from the current measure to the
    new atom (P is convex there), and Newton steps then move every
    location and CDF level; an argmin within NEAR_DIST of an atom asks for
    more Newton steps instead. Atoms closer than MERGE_DIST merge. The
    solve stops at its last measure when the Newton steps stall or run out
    of budget, when an argmin near an atom no longer moves it, or when
    MAX_ATOMS atoms do not certify.
    """
    b2 = beta * beta
    ends = evaluate(xi, np.array([Q_TOP, 1.0])).tolist()
    s, c = [float(_MESH[np.argmin(rs_value(_MESH[:-1], xi, beta))])], []
    steps = 0
    for _ in range(2 * MAX_ATOMS):
        s, c, taken, terms, done = _newton(xi, b2, ends, s, c,
                                           NEWTON_STEPS - steps)
        steps += taken
        measure = ParisiMeasure(s, np.diff(c + [1.0], prepend=0.0))
        gap, _, t_min = _fw_bound(xi, b2, measure)
        if gap <= GAP_TOL or not done:
            break
        if min(abs(t_min - t) for t in s) < NEAR_DIST:
            if taken:
                continue  # the atoms are still moving: more Newton steps
            break
        if len(s) == MAX_ATOMS:
            break
        s, c = _insert_atom(xi, b2, ends, s, c, t_min)
    grad = terms[1]
    return MinimizeResult(
        value=terms[0], measure=measure,
        kkt_residual=max((abs(grad[i]) for i in _free(s, grad)), default=0.0),
        converged=gap <= GAP_TOL, iterations=steps, gap=gap)


def _xi_at(xi: MixtureFn, s: list) -> tuple[list, list, list]:
    """xi, xi' and xi'' at the atoms, as lists: ``mixtures._closed_forms``
    in Python floats, since numpy's set-up outweighs the work at one to
    three atoms (which lie in [0, Q_TOP], so base > 0 where q2 > 0).
    libm's pow, log1p and expm1 and numpy's differ in the last bit."""
    p, q2 = xi.p, xi.q2
    a, bottom = 1.0 - q2, q2 ** p
    c1, c2 = p * a, p * (p - 1) * a ** 2
    base = [q2 + a * t for t in s]
    return ([bottom * math.expm1(p * math.log1p(a * t / q2)) for t in s]
            if bottom >= _TINY else [b ** p - bottom for b in base],
            [c1 * b ** (p - 1) for b in base],
            [c2 * b ** (p - 2) for b in base])


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
    """Newton steps on (s, c) from the given atoms: (s, c, steps taken,
    ``_atom_terms`` there, whether the steps converged). They converge once
    a step is below NEWTON_TOL relative to each coordinate (to REL_FLOOR
    for a coordinate below it), or below STALL_SIZE and over half the last
    (rounding then sets the steps); they stop unconverged when the budget
    runs out or no step length descends.

    A step goes at most to where a weight or the gap between two atoms
    reaches 0, where ``_cleaned`` merges that atom into its neighbour, and
    it is halved until P falls enough (untested below STALL_SIZE, where
    rounding hides the fall). The locations are clipped to [0, Q_TOP], and
    a bound is held active while it binds (``_free``).
    """
    terms = _atom_terms(b2, ends, s, c, _xi_at(xi, s))
    last = math.inf
    for taken in range(budget + 1):
        value, grad, H, _ = terms
        k = len(s)
        free = _free(s, grad)
        d = [0.0] * (2 * k - 1)
        for i, di in zip(free, _descent_step([[H[i][j] for j in free]
                                               for i in free],
                                              [-grad[i] for i in free])):
            d[i] = di
        size = max(abs(di) / max(abs(x), REL_FLOOR)
                   for di, x in zip(d, s + c))
        if size < NEWTON_TOL or 0.5 * last <= size < STALL_SIZE:
            return s, c, taken, terms, True
        last = size
        if taken == budget:
            break
        alpha = _step_limit(s, c, d)
        slope = sum(gi * di for gi, di in zip(grad, d))
        for _ in range(60):  # alpha down to 1e-18
            s_new, c_new = _cleaned(*_moved(s, c, d, alpha, k))
            trial = _atom_terms(b2, ends, s_new, c_new, _xi_at(xi, s_new))
            if (size * alpha < STALL_SIZE
                    or trial[0] <= value + 1e-4 * alpha * slope):
                break
            alpha *= 0.5
        else:
            break
        s, c, terms = s_new, c_new, trial
    return s, c, taken, terms, False


def _free(s, grad):
    """The variables not held at a bound: s_0 at 0 is held while dP/ds_0
    >= 0, and the top atom at Q_TOP while its dP/ds <= 0."""
    k = len(s)
    return [i for i in range(2 * k - 1)
            if not (i == 0 and s[0] <= 0.0 and grad[0] >= 0.0
                    or i == k - 1 and s[-1] >= Q_TOP and grad[i] <= 0.0)]


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
    """The step alpha d, with the locations projected onto [0, Q_TOP]."""
    return ([min(max(si + alpha * di, 0.0), Q_TOP) for si, di in zip(s, d)],
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
            # rounding must not lift the mean above x, which may be Q_TOP
            out_s[-1] = min((out_w[-1] * out_s[-1] + wi * x) / total, x)
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


def _fw_bound(xi: MixtureFn, b2: float, measure: ParisiMeasure):
    """(the Frank-Wolfe gap of an atomic measure at b2 = beta^2, the lower
    bound on min G over [0, Q_TOP] it uses, the mesh node where G is
    least). The gap (module docstring) is taken as 0 where rounding puts
    it below (the weights sum to 1 only to rounding).

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
    every atom) for atoms ``loc`` of weights ``w``, the mixture read in
    one ``_closed_forms`` pass."""
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
    x0, x1, x2 = _closed_forms(xi, nodes)
    G = 0.5 * (b2 * (x0[-1] - x0) - suffix)
    return G, 0.5 * (b2 * x1 - inv), phi, x2
