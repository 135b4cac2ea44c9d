"""Band mixtures xi_q(x) = (q^2 + (1 - q^2) x)^p - q^{2p}.

A mixture function encodes the covariance of a Gaussian Hamiltonian on the
sphere, E[H(s1) H(s2)] = N xi(<s1,s2>/N). Restricting the pure p-spin model
xi(t) = t^p to the sub-sphere at overlap q from a planted direction
produces the band mixture above, and q = 0 is the pure model itself. The
band is stored as (p, q^2) and evaluated in closed form.
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
    if np.any(np.abs(t_arr) > 1.0):
        raise ValueError("mixture argument outside [-1, 1]")
    p, q2 = xi.p, xi.q2
    base = q2 + (1.0 - q2) * t_arr
    if order == 0:
        out = _value(p, q2, t_arr, base)
    else:
        falling = p if order == 1 else p * (p - 1)
        out = falling * (1.0 - q2) ** order * base ** (p - order)
    return out if t_arr.ndim else float(out)


def _value(p: int, q2: float, t: np.ndarray, base: np.ndarray) -> np.ndarray:
    """base^p - q2^p without subtracting the two powers where base > 0:
    there it is q2^p expm1(p log1p((1 - q2) t / q2)), which keeps the small
    differences of xi between nearby t that the band solver reads."""
    bottom = q2 ** p
    if bottom < _TINY:  # the pure model, or q2^p below the normal range
        return base ** p - bottom
    positive = base > 0.0  # base <= 0 only at negative t
    log_ratio = np.log1p((1.0 - q2) * t / q2, where=positive,
                         out=np.zeros_like(base))
    # p log_ratio <= -log(q2^p) < 709, so expm1 stays finite
    return np.where(positive, bottom * np.expm1(p * log_ratio),
                    base ** p - bottom)
