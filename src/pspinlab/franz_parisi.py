"""Franz-Parisi potential, its bound and q-derivative, window scans.

The potential at overlap q is computed through the variational route

    V(q) = F(xi_q) + beta^2 q^p + log(1 - q^2) / 2,

where F(xi_q) is the minimized band free energy from :mod:`parisi` and
xi_q = band_mixture(p, q), which also owns the rules on p and q. The
replica-symmetric upper bound (single atom at t = |q|/(1+|q|); xi_q depends
on q^2 only, so only the tilt beta^2 q^p sees the sign of q) is

    V_RS(q) = (beta^2 / 2)(1 + |q|^p) + |q|/2 + log(1 - |q|)/2
              + beta^2 (q^p - |q|^p).

The derivative in q uses the envelope identity at the numerical
minimizer zeta_q:

    dV/dq = -beta^2 q E_{x~zeta_q}[(1 - x) xi_q'(x)] / (1 - q^2)
            + beta^2 p q^{p-1} - q / (1 - q^2).

An increasing window of V on a grid accumulating at 1 is the numerical
signature of shattering; detection requires a run of at least three grid
points whose every step V_{i+1} - V_i exceeds gap_i + gap_{i+1}, the
Frank-Wolfe gaps of the two band solves. Each gap bounds how far that
solve's value lies above the minimum, so such a step is a rise of the
potential itself, not of the solver's error. A scan's band solves form a
chain: each point's solve starts from an extrapolation of the certified
minimizers before it, since neighbouring points have nearly the same one-
or two-atom minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScanError
from .mixtures import MixtureFn, band_mixture
from .parisi import MinimizeResult, ParisiMeasure, _xi_at, minimize_cs
from .phase import _check_p

__all__ = ["FpPoint", "FpWindow", "fp_value", "fp_rs_bound", "find_window",
           "window_grid", "half_band_grid"]

MIN_WINDOW_POINTS = 3  # shortest increasing run that counts as a window
MIN_GRID_POINTS = 32  # fewest points a window scan accepts


@dataclass(frozen=True)
class FpPoint:
    """Potential, RS bound, envelope derivative and band free energy at q,
    with the band solve's gap, convergence and minimizing ``measure``."""

    q: float
    value: float
    rs_bound: float
    derivative: float
    band_free_energy: float
    gap: float
    converged: bool
    measure: ParisiMeasure


@dataclass(frozen=True)
class FpWindow:
    """A window scan: the first longest run of at least MIN_WINDOW_POINTS
    grid points whose every step in value exceeds the sum of the two
    points' gaps, then the potential, RS bound, envelope derivative and
    the band solve's Frank-Wolfe gap (a bound on its value's error) at
    every grid point ``q``."""

    q_under: float
    q_bar: float
    n_points: int
    q: np.ndarray
    value: np.ndarray
    rs_bound: np.ndarray
    derivative: np.ndarray
    gap: np.ndarray

    @property
    def exists(self) -> bool:
        return self.n_points >= MIN_WINDOW_POINTS


def fp_value(p: int, beta: float, q: float,
             start: ParisiMeasure | None = None) -> FpPoint:
    """Potential at overlap q via the band free energy, plus all per-point
    fields (RS bound, envelope derivative, solver diagnostics). ``start``
    goes to ``minimize_cs``: the measure its Newton steps start from, with
    the cold start as the fallback."""
    xi_q = band_mixture(p, q)
    p, q = xi_q.p, float(q)
    res = minimize_cs(xi_q, beta, start=start)
    value = res.value + beta * beta * q ** p + 0.5 * math.log1p(-q * q)
    return FpPoint(
        q=q, value=value, rs_bound=fp_rs_bound(p, beta, q),
        derivative=_envelope_derivative(xi_q, beta, q, res),
        band_free_energy=res.value, gap=res.gap, converged=res.converged,
        measure=res.measure)


def fp_rs_bound(p: int, beta: float, q: float) -> float:
    """V_RS at q in (-1, 1): the bound at |q| plus beta^2 (q^p - |q|^p)."""
    if not -1.0 < q < 1.0:
        raise ValueError(f"RS bound needs q in (-1, 1), got {q}")
    a = abs(q)
    return (0.5 * (beta * beta * (1.0 + a ** p) + a + math.log1p(-a))
            + beta * beta * (q ** p - a ** p))


def find_window(p: int, beta: float, q_grid: np.ndarray) -> FpWindow:
    """Scan the potential on a strictly increasing grid inside (0, 1) and
    return every point solved, with the first longest run of at least
    MIN_WINDOW_POINTS points whose every step in value exceeds the sum of
    its two points' gaps (``_window``). The solves form a chain: each
    point's ``fp_value`` starts from ``_predicted`` of the certified
    measures before it, and the first point, or one after a point that did
    not converge, starts cold. If any solve did not converge, a ScanError
    names their count and the first failed q, and no points are returned."""
    q_grid = np.array(q_grid, dtype=float)
    if len(q_grid) < MIN_GRID_POINTS:
        raise ValueError(f"window grid needs at least {MIN_GRID_POINTS} points")
    if np.any(np.diff(q_grid) <= 0):
        raise ValueError("window grid must be strictly increasing")
    if q_grid[0] <= 0.0 or q_grid[-1] >= 1.0:
        raise ValueError("window grid must lie inside (0, 1)")

    points, chain = [], []
    for q in q_grid:
        pt = fp_value(p, beta, q, start=_predicted(chain))
        points.append(pt)
        k = pt.measure.locations.size
        chain = ([m for m in chain[-2:] if m.locations.size == k]
                 + [pt.measure]) if pt.converged else []
    failed = [float(q) for q, pt in zip(q_grid, points) if not pt.converged]
    if failed:
        raise ScanError(f"{len(failed)} of {len(q_grid)} window grid points "
                        f"did not converge, first at q = {failed[0]!r}")
    value, rs_bound, derivative, gap = (
        np.array([getattr(pt, name) for pt in points])
        for name in ("value", "rs_bound", "derivative", "gap"))
    return FpWindow(*_window(q_grid, value, gap), q=q_grid, value=value,
                    rs_bound=rs_bound, derivative=derivative, gap=gap)


def window_grid(p: int, n: int = 48, v_max: float = 5.0,
                v_min: float = 0.05) -> np.ndarray:
    """Grid toward 1, geometric in 1 - q from v = p(1 - q) = v_max down to
    v_min, the same grid in v for every p. The one guard keeps q >= 1/2:
    1 - q starts at min(v_max / p, 1/2), which binds only where
    p < 2 v_max (p < 10 at the default v_max = 5)."""
    p = _check_p(p)
    one_minus_q = np.exp(np.linspace(math.log(min(v_max / p, 0.5)),
                                     math.log(v_min / p), n))
    return 1.0 - one_minus_q


def half_band_grid(p: int, n: int = MIN_GRID_POINTS) -> np.ndarray:
    """Grid covering [1 - 1/(2p), 1), v from 0.5 down to 0.02: where the
    potential derivative is provably positive for large p, beta near the
    static boundary. Defined for every p."""
    return window_grid(p, n=n, v_max=0.5, v_min=0.02)


# --------------------------
# internals
# --------------------------

def _envelope_derivative(xi_q: MixtureFn, beta: float, q: float,
                         res: MinimizeResult) -> float:
    # (1-x)(q^2 + (1-q^2)x)^{p-1} = (1-x) xi_q'(x) / (p (1-q^2))
    b2, q2, loc = beta * beta, q * q, res.measure.locations.tolist()
    expect = sum(w * ((1.0 - x) * d1) for w, x, d1 in zip(
        res.measure.weights.tolist(), loc, _xi_at(xi_q, loc)[1]))
    return (-b2 * q * expect / (1.0 - q2) + b2 * xi_q.p * q ** (xi_q.p - 1)
            - q / (1.0 - q2))


def _predicted(chain: list) -> ParisiMeasure | None:
    """The next start of a scan from the certified measures of up to three
    points before it, of one atom count: the linear (two) or quadratic
    (three) extrapolation in the grid index of their locations and weights
    (so of the CDF levels; exact where they stay), else the last measure."""
    if len(chain) < 2:
        return chain[-1] if chain else None
    x = [m.locations.tolist() + m.weights.tolist() for m in chain]
    nxt = ([a + 3.0 * (c - b) for a, b, c in zip(*x)] if len(chain) == 3
           else [b + (b - a) for a, b in zip(*x)])
    k = chain[-1].locations.size
    try:
        return ParisiMeasure(nxt[:k], nxt[k:])
    except ValueError:
        return chain[-1]


def _window(q: np.ndarray, value: np.ndarray,
            gap: np.ndarray) -> tuple[float, float, int]:
    """(q_under, q_bar, n_points) of the longest run of grid points whose
    every step V_{i+1} - V_i exceeds gap_i + gap_{i+1}, the first of equal
    longest runs; a run of fewer than MIN_WINDOW_POINTS points is no
    window (NaN edges, 0 points)."""
    rises = np.diff(value) > gap[:-1] + gap[1:]
    # a run of rises over steps start .. stop - 1 spans points start .. stop
    edges = np.flatnonzero(np.diff(np.concatenate(([False], rises, [False]))))
    starts, stops = edges[::2], edges[1::2]
    n_points = stops - starts + 1
    if not len(n_points) or n_points.max() < MIN_WINDOW_POINTS:
        return math.nan, math.nan, 0
    best = np.argmax(n_points)
    return float(q[starts[best]]), float(q[stops[best]]), int(n_points[best])
