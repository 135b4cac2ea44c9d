"""Mixture functions xi(t) = sum_k gamma_k^2 t^k.

A mixture function encodes the covariance of a Gaussian Hamiltonian on the
sphere, E[H(s1) H(s2)] = N xi(<s1,s2>/N). The pure p-spin model is
xi(t) = t^p. Restricting a planted model to the sub-sphere at overlap q from
the planted direction produces the band mixture

    xi_q(x) = (q^2 + (1 - q^2) x)^p - q^{2p},

whose degree-k coefficient is binom(p, k) q^{2(p-k)} (1 - q^2)^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MixtureFn", "pure", "band_mixture", "evaluate"]


@dataclass(frozen=True)
class MixtureFn:
    """Nonnegative coefficient vector over degrees; coeffs[k-1] = gamma_k^2."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficient vector must be non-empty and 1-d")
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise ValueError("mixture coefficients must be finite and >= 0")
        nz = np.nonzero(c)[0]
        if nz.size == 0:
            raise ValueError("mixture must have at least one positive coefficient")
        object.__setattr__(self, "coeffs", c[: nz[-1] + 1].copy())
        self.coeffs.setflags(write=False)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int) -> float:
        """gamma_k^2, zero above the top degree."""
        if k < 1:
            raise ValueError("degrees start at 1")
        return float(self.coeffs[k - 1]) if k <= self.degree else 0.0

    def __call__(self, t, order: int = 0):
        return evaluate(self, t, order)


def pure(p: int) -> MixtureFn:
    """Pure p-spin mixture xi(t) = t^p."""
    p = _check_degree(p)
    c = np.zeros(p)
    c[p - 1] = 1.0
    return MixtureFn(c)


def band_mixture(p: int, q: float) -> MixtureFn:
    """Mixture of the model restricted to overlap q from a planted direction.

    Coefficients are assembled in log space (log-binomials) so that large p
    does not overflow; each coefficient is <= 1 since they sum to
    xi_q(1) = 1 - q^{2p}. Depends on q only through q^2.
    """
    p = _check_degree(p)
    q = float(q)
    if not abs(q) < 1.0:
        raise ValueError(f"band overlap must satisfy |q| < 1, got {q}")
    if q == 0.0:
        return pure(p)
    from scipy.special import gammaln  # scipy loads on first use
    k = np.arange(1, p + 1)
    log_binom = gammaln(p + 1) - gammaln(k + 1) - gammaln(p - k + 1)
    log_c = log_binom + 2.0 * (p - k) * np.log(abs(q)) + k * np.log1p(-q * q)
    return MixtureFn(np.exp(log_c))


def evaluate(xi: MixtureFn, t, order: int = 0):
    """xi(t), xi'(t) or xi''(t) by Horner evaluation; requires |t| <= 1."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.abs(t_arr) > 1.0):
        raise ValueError("mixture argument outside [-1, 1]")
    c = xi.coeffs
    k = np.arange(1, len(c) + 1, dtype=float)
    if order == 0:
        # xi(t) = t * sum_k c_k t^(k-1)
        acc = _horner(c, t_arr)
        out = acc * t_arr
    elif order == 1:
        out = _horner(c * k, t_arr)
    else:
        d2 = (c * k * (k - 1))[1:]  # degree-1 term has no second derivative
        out = _horner(d2, t_arr) if d2.size else np.zeros_like(t_arr)
    return out if t_arr.ndim else float(out)


def _horner(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_j c[j] t^j for j = 0.. as Horner on the reversed coefficients."""
    acc = np.zeros_like(t)
    for cj in c[::-1]:
        acc = acc * t + cj
    return acc


def _check_degree(p) -> int:
    if int(p) != p or int(p) < 2:
        raise ValueError(f"degree must be an integer >= 2, got {p!r}")
    return int(p)
