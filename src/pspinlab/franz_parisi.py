"""Franz-Parisi potential, its bounds and derivatives, window scans.

The potential at overlap q is computed through the variational route

    V(q) = F(xi_q) + beta^2 q^p + log(1 - q^2) / 2,

where F(xi_q) is the minimized band free energy from :mod:`parisi` and
xi_q = band_mixture(p, q), which also owns the rules on p and q. The
replica-symmetric upper bound (single atom at t = q/(1+q)) has closed form

    V_RS(q) = (beta^2 / 2)(1 + q^p) + q/2 + log(1 - q)/2.

Derivatives use the envelope identity at the numerical minimizer zeta_q:

    dV/dq = -beta^2 q E_{x~zeta_q}[(1 - x) xi_q'(x)] / (1 - q^2)
            + beta^2 p q^{p-1} - q / (1 - q^2),
    dF/dbeta = beta E_{x~zeta_q}[xi_q(1) - xi_q(x)].

An increasing window of V on a grid accumulating at 1 is the numerical
signature of shattering; detection requires strict increase over at least
three consecutive grid points above a noise floor tied to the solver's KKT
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScanError
from .mixtures import MixtureFn, band_mixture, evaluate
from .parisi import DEFAULT_GRID, MinimizeResult, minimize_cs

__all__ = ["FpPoint", "FpWindow", "fp_value", "fp_rs_bound", "fp_dbeta",
           "find_window", "window_grid", "half_band_grid"]

FP_THRESHOLD = 0.9999  # window start needed for the clustering condition
MIN_WINDOW_POINTS = 3  # shortest increasing run that counts as a window
MIN_GRID_POINTS = 32  # fewest points a window scan accepts
HALF_BAND_MIN_P = 51  # smallest p whose half-band grid lies in (0.99, 1)


@dataclass(frozen=True)
class FpPoint:
    """Potential, RS bound, envelope derivative and band free energy at q."""

    q: float
    value: float
    rs_bound: float
    derivative: float
    band_free_energy: float
    kkt_residual: float
    converged: bool


@dataclass(frozen=True)
class FpWindow:
    """Maximal strictly-increasing interval found by a window scan."""

    q_under: float
    q_bar: float
    passes_fp: bool
    n_points: int

    @property
    def exists(self) -> bool:
        return self.n_points >= MIN_WINDOW_POINTS


def fp_value(p: int, beta: float, q: float,
             grid_spec: tuple[int, float] = DEFAULT_GRID) -> FpPoint:
    """Potential at overlap q via the band free energy, plus all per-point
    fields (RS bound, envelope derivative, solver diagnostics)."""
    xi_q = band_mixture(p, q)
    p, q = xi_q.p, float(q)
    res = minimize_cs(xi_q, beta, grid_spec)
    value = res.value + beta * beta * q ** p + 0.5 * math.log1p(-q * q)
    return FpPoint(
        q=q,
        value=value,
        rs_bound=fp_rs_bound(p, beta, abs(q)),
        derivative=_envelope_derivative(xi_q, beta, q, res),
        band_free_energy=res.value,
        kkt_residual=res.kkt_residual,
        converged=res.converged,
    )


def fp_rs_bound(p: int, beta: float, q: float) -> float:
    """(beta^2/2)(1 + q^p) + q/2 + log(1-q)/2 for q in [0, 1)."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"RS bound needs q in [0, 1), got {q}")
    return 0.5 * (beta * beta * (1.0 + q ** p) + q + math.log1p(-q))


def fp_dbeta(p: int, beta: float, q: float,
             grid_spec: tuple[int, float] = DEFAULT_GRID) -> float:
    """Temperature derivative of the band free energy,
    beta * E[xi_q(1) - xi_q(x)] under the minimizing measure."""
    xi_q = band_mixture(p, q)
    solution = minimize_cs(xi_q, beta, grid_spec)
    top = evaluate(xi_q, 1.0)
    exp_xi = solution.measure.expectation(lambda t: evaluate(xi_q, t))
    return beta * (top - exp_xi)


def find_window(p: int, beta: float, q_grid: np.ndarray,
                grid_spec: tuple[int, float] = DEFAULT_GRID) -> FpWindow:
    """Scan the potential on a grid in (0.99, 1) and report the maximal
    strictly increasing run of at least MIN_WINDOW_POINTS consecutive
    points.

    passes_fp is set when the run starts at or above 0.9999. Every point
    is solved; if any solve did not converge, a ScanError then lists the
    failed points and carries all points solved.
    """
    q_grid = np.asarray(q_grid, dtype=float)
    if len(q_grid) < MIN_GRID_POINTS:
        raise ValueError(f"window grid needs at least {MIN_GRID_POINTS} points")
    if np.any(np.diff(q_grid) <= 0):
        raise ValueError("window grid must be strictly increasing")
    if q_grid[0] <= 0.99 or q_grid[-1] >= 1.0:
        raise ValueError("window grid must lie inside (0.99, 1)")

    points: list[FpPoint] = []
    failures: list[tuple[float, str]] = []
    for q in q_grid:
        pt = fp_value(p, beta, q, grid_spec)
        if not pt.converged:
            failures.append((float(q), "band solver did not converge"))
        points.append(pt)
    if failures:
        raise ScanError(f"{len(failures)} window grid points failed",
                        failures=failures, partial=points)

    values = np.array([pt.value for pt in points])
    noise = 10.0 * max(pt.kkt_residual for pt in points)
    start, length = _longest_increasing_run(values, noise)
    if length < MIN_WINDOW_POINTS:
        return FpWindow(q_under=math.nan, q_bar=math.nan, passes_fp=False,
                        n_points=0)
    q_under = float(q_grid[start])
    q_bar = float(q_grid[start + length - 1])
    return FpWindow(q_under=q_under, q_bar=q_bar,
                    passes_fp=q_under >= FP_THRESHOLD, n_points=length)


def window_grid(p: int, n: int = 48, v_max: float = 5.0,
                v_min: float = 0.05) -> np.ndarray:
    """Geometric grid toward 1 parametrized by v = p(1 - q), clipped to
    stay inside (0.99, 1); for small p this degrades to a generic geometric
    grid on (0.99, 1)."""
    if p < 3:
        raise ValueError("p must be >= 3")
    hi = min(v_max / p, 0.0099)
    lo = min(v_min / p, hi / 4.0)
    one_minus_q = np.exp(np.linspace(math.log(hi), math.log(lo), n))
    return 1.0 - one_minus_q


def half_band_grid(p: int, n: int = MIN_GRID_POINTS) -> np.ndarray:
    """Grid covering [1 - 1/(2p), 1): where the potential derivative is
    provably positive for large p, beta near the static boundary."""
    if p < HALF_BAND_MIN_P:
        raise ValueError(f"half-band grid needs p >= {HALF_BAND_MIN_P}, got {p}")
    return window_grid(p, n=n, v_max=0.5, v_min=0.02)


# --------------------------
# internals
# --------------------------

def _envelope_derivative(xi_q: MixtureFn, beta: float, q: float,
                         res: MinimizeResult) -> float:
    # (1-x)(q^2 + (1-q^2)x)^{p-1} = (1-x) xi_q'(x) / (p (1-q^2))
    b2 = beta * beta
    q2 = q * q
    expect = res.measure.expectation(
        lambda x: (1.0 - x) * evaluate(xi_q, x, 1))
    return (-b2 * q * expect / (1.0 - q2) + b2 * xi_q.p * q ** (xi_q.p - 1)
            - q / (1.0 - q2))


def _longest_increasing_run(values: np.ndarray, noise: float) -> tuple[int, int]:
    """(start, n_points) of the longest run with every step > noise."""
    best_start, best_len = 0, 1
    start, length = 0, 1
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > noise:
            length += 1
        else:
            start, length = i, 1
        if length > best_len:
            best_start, best_len = start, length
    return best_start, best_len

