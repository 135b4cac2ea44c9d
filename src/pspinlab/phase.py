"""Static and dynamical phase boundaries of spherical p-spin models.

Both boundaries of the pure model xi(t) = t^p are readings of the plateau
function h(q) = 1 / (p q^{p-2} (1-q)), from the plateau equation
beta^2 xi'(q)(1-q) = q (Crisanti & Sommers, Z. Phys. B 87, 1992):

- the dynamical (ergodicity-breaking) boundary is its minimum,
  beta_d^2 = h((p-2)/(p-1)) = (p-1)^{p-1} / (p (p-2)^{p-2});
- the static boundary (replica symmetric to 1-RSB),
  beta_c^2 = inf_{q in (0,1)} [ q^{-p} log(1/(1-q)) - q^{-(p-1)} ],
  is h at that objective's unique stationary point q_c, where also
  beta_c^2 q^p + q + log(1-q) = 0.

h is taken in log space and q_c is found as u = -log(1-q_c), so no power
overflows and 1 - q_c = e^{-u} never rounds away: against a 60-digit
reference, beta_c is within 4e-15 relative (1e-13 above p = 1e18) and
beta_d within 1.4e-15 for p from 3 to P_MAX = 1e300.
"""

from __future__ import annotations

import math

__all__ = ["beta_c", "beta_d_pure"]

P_MAX = 10**300  # largest p: below e^709 / 709, so beta_c's root u < 709


def beta_c(p: int) -> tuple[float, float]:
    """Static boundary for the pure p-spin model and 1 - q at its minimizer.

    Bisects the objective's stationarity equation in u = -log(1-q),
    g(u) = expm1(u) - (p-1) expm1(-u) - p u = 0, down to adjacent floats.
    g(0) = 0, g' = e^u + (p-1) e^{-u} - p vanishes at u = 0 and
    u = log(p-1), so g falls on (0, log(p-1)) and then rises without
    bound; g(2 log(p-1)) > 0 for all p >= 3 (p = 3 is the tightest, at
    0.34), so [log(p-1), 2 log(p-1)] brackets the one non-zero root.
    Past u = 709, near expm1's overflow, g > e^u - p u > 0 for p <= P_MAX.
    """
    p = _check_p(p)
    lo, hi = math.log(p - 1), 2.0 * math.log(p - 1)
    while True:
        u = 0.5 * (lo + hi)
        if not lo < u < hi:
            break
        if u < 709.0 and math.expm1(u) - (p - 1) * math.expm1(-u) < p * u:
            lo = u
        else:
            hi = u
    return _plateau_beta(p, math.log1p(-math.exp(-u)), -u), math.exp(-u)


def beta_d_pure(p: int) -> float:
    """Dynamical boundary sqrt((p-1)^{p-1} / (p (p-2)^{p-2})), the plateau
    function at its minimum q = (p-2)/(p-1)."""
    p = _check_p(p)
    return _plateau_beta(p, math.log1p(-1.0 / (p - 1)), -math.log(p - 1))


def _plateau_beta(p: int, log_q: float, log_1mq: float) -> float:
    """sqrt(h(q)) = (p q^{p-2} (1-q))^{-1/2}, from log q and log(1-q)."""
    return math.exp(-0.5 * (math.log(p) + (p - 2) * log_q + log_1mq))


def _check_p(p) -> int:
    if int(p) != p or not 3 <= int(p) <= P_MAX:
        raise ValueError(f"p must be an integer in [3, {P_MAX:.0e}], got {p!r}")
    return int(p)
