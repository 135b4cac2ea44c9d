"""Band mixtures xi_q(x) = (q^2 + (1 - q^2) x)^p - q^{2p}.

A mixture function encodes the covariance of a Gaussian Hamiltonian on the
sphere, E[H(s1) H(s2)] = N xi(<s1,s2>/N). Restricting the pure p-spin model
xi(t) = t^p to the sub-sphere at overlap q from a planted direction
produces the band mixture above, and q = 0 is the pure model itself. The
band is stored as (p, q^2); ``_closed_forms`` gives xi, xi' and xi'' in
closed form in one pass, and ``evaluate`` is its checked front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MixtureFn", "band_mixture", "evaluate"]

_TINY = np.finfo(float).tiny  # smallest normal double


@dataclass(frozen=True)
class MixtureFn:
    """Band mixture of degree p at squared overlap q2; q2 = 0 is t^p."""

    p: int
    q2: float = 0.0

    def __post_init__(self):
        if int(self.p) != self.p or int(self.p) < 2:
            raise ValueError(f"degree must be an integer >= 2, got {self.p!r}")
        if not 0.0 <= self.q2 < 1.0:
            raise ValueError(f"squared band overlap must satisfy "
                             f"0 <= q2 < 1, got {self.q2!r}")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "q2", float(self.q2))


def band_mixture(p: int, q: float) -> MixtureFn:
    """Mixture of the model restricted to overlap q from a planted
    direction; depends on q only through q^2."""
    q = float(q)
    if not abs(q) < 1.0:
        raise ValueError(f"band overlap must satisfy |q| < 1, got {q}")
    return MixtureFn(p, q * q)


def evaluate(xi: MixtureFn, t, order: int = 0):
    """xi(t), xi'(t) or xi''(t) in closed form; requires |t| <= 1."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.abs(t_arr) <= 1.0):  # NaN fails this test too
        raise ValueError("mixture argument outside [-1, 1]")
    out = _closed_forms(xi, t_arr)[order]
    return out if t_arr.ndim else float(out)


def _closed_forms(xi: MixtureFn, t: np.ndarray):
    """(xi, xi', xi'') at the float array t, unchecked. Where base > 0,
    xi = base^p - q2^p is q2^p expm1(p log1p((1 - q2) t / q2)), and each
    order takes its own power of base: both keep the small differences of
    xi between nearby t that the band solver reads."""
    p, q2 = xi.p, xi.q2
    base = q2 + (1.0 - q2) * t
    bottom = q2 ** p
    value = base ** p - bottom
    if bottom >= _TINY:  # else the pure model, or q2^p below normal range
        positive = base > 0.0  # base <= 0 only at negative t
        log_ratio = np.log1p((1.0 - q2) * t / q2, where=positive,
                             out=np.zeros_like(base))
        # p log_ratio <= -log(q2^p) < 709, so expm1 stays finite
        value = np.where(positive, bottom * np.expm1(p * log_ratio), value)
    return (value, p * (1.0 - q2) * base ** (p - 1),
            p * (p - 1) * (1.0 - q2) ** 2 * base ** (p - 2))
