"""Static and dynamical phase boundaries of spherical p-spin models.

The static boundary (replica symmetric to 1-RSB) for the pure model is

    beta_c^2(p) = inf_{q in (0,1)} [ q^{-p} log(1/(1-q)) - q^{-(p-1)} ].

The dynamical (ergodicity-breaking) boundary comes from the plateau
equation beta^2 xi'(q)(1-q) = q: the smallest beta with a non-zero
solution satisfies beta_d^2 = inf_{q in (0,1)} q / (xi'(q)(1-q)), which
for xi(t) = t^p reduces to beta_d^2(p) = (p-1)^{p-1} / (p (p-2)^{p-2}).
All p-dependent products are taken in log space so p up to 1e4 is safe.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import SolverError

__all__ = ["beta_c", "beta_d_pure"]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
TOL = 1e-10  # absolute objective tolerance of the golden-section refinement


def beta_c(p: int) -> tuple[float, float]:
    """Static boundary for the pure p-spin model and the minimizing q.

    Brackets the objective minimum on a log-spaced grid accumulating near
    q = 1 (the minimizer approaches 1 as p grows), then refines by
    golden-section to absolute objective tolerance ``TOL``.
    """
    p = _check_p(p)
    obj = lambda q: _beta_c_objective(q, p)
    q, val = _bracketed_min(obj, _q_grid(), TOL)
    return math.sqrt(val), q


def beta_d_pure(p: int) -> float:
    """Dynamical boundary sqrt((p-1)^{p-1} / (p (p-2)^{p-2})) in log space."""
    p = _check_p(p)
    log_b2 = (p - 1) * math.log(p - 1) - math.log(p) - (p - 2) * math.log(p - 2)
    return math.exp(0.5 * log_b2)


# --------------------------
# internals
# --------------------------

def _beta_c_objective(q: float, p: int) -> float:
    # q^{-p} log(1/(1-q)) - q^{-(p-1)} = exp(b) * expm1(a - b) with
    # a = log(log(1/(1-q))) - p log q and b = -(p-1) log q; this form
    # avoids inf - inf when both power terms overflow at small q, large p.
    if not 0.0 < q < 1.0:
        return math.inf
    b = -(p - 1) * math.log(q)
    if b > 700.0:
        return math.inf
    lg = -math.log1p(-q)
    return math.exp(b) * math.expm1(math.log(lg) - math.log(q))


def _q_grid() -> np.ndarray:
    # uniform sweep plus dyadic-style accumulation toward 1
    return np.unique(np.concatenate([
        np.linspace(0.02, 0.9, 250),
        1.0 - np.exp(np.linspace(math.log(0.1), math.log(1e-9), 400)),
    ]))


def _bracketed_min(obj: Callable[[float], float], grid: np.ndarray,
                   tol: float, max_iter: int = 400) -> tuple[float, float]:
    """Grid bracketing followed by golden-section refinement.

    Returns (argmin, min value); raises SolverError naming the last bracket if
    the golden loop exhausts its budget before reaching ``tol``.
    """
    vals = np.array([obj(q) for q in grid])
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = obj(c), obj(d)
    for _ in range(max_iter):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = obj(d)
        if abs(fc - fd) < tol and (b - a) < 1e-12:
            break
    else:
        raise SolverError(f"golden-section refinement did not converge: "
                          f"bracket [{a}, {b}], best value {min(fc, fd)}")
    q = 0.5 * (a + b)
    return float(q), float(obj(q))


def _check_p(p) -> int:
    if int(p) != p or int(p) < 3:
        raise ValueError(f"p must be an integer >= 3, got {p!r}")
    return int(p)
