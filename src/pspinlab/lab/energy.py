"""Hamiltonian and gradients for tensor disorder.

H(sigma) = N^{-(p-1)/2} <G, sigma^{(x)p}> depends on the i.i.d. entries G
only through their symmetrization S, the one tensor a Disorder holds, so
H and its gradient are one contraction chain of S: H = S[sigma, ..., sigma]
and grad H = p S[sigma,...,sigma,.]. H is taken at one configuration or at
every row of a (K, n) batch in the same call. Euler's identity
<sigma, grad H> = p H holds up to rounding.

Every chain contracts the leading slot first: the tensor is viewed as an
(n, n^(m-1)) matrix and one flat matrix-vector product removes that slot,
a single BLAS call per slot. (Contracting the trailing slot with
``tensor @ v`` instead runs a stack of n^(m-2) small products.) S is
symmetric, so which slots a chain contracts changes only rounding.
"""

from __future__ import annotations

import numpy as np

from .disorder import Configuration, Disorder

__all__ = ["hamiltonian", "gradient", "spherical_gradient"]


def hamiltonian(d: Disorder, sigma: Configuration):
    """H at one configuration (shape (n,), a float) or at each row of a
    batch (shape (K, n), a (K,) array); O(K N^p)."""
    sigma = _check_dims(d, sigma, batch=True)
    h = _scale(d) * _contract(d.entries, [sigma] * d.p)
    return float(h) if sigma.ndim == 1 else h


def gradient(d: Disorder, sigma: Configuration) -> np.ndarray:
    """Exact ambient gradient p S[sigma, ..., sigma, .]."""
    sigma = _check_dims(d, sigma)
    return (d.p * _scale(d)) * _contract(d.entries, [sigma] * (d.p - 1))


def spherical_gradient(d: Disorder, sigma: Configuration) -> np.ndarray:
    """Ambient gradient projected orthogonal to sigma."""
    g = gradient(d, sigma)
    return g - sigma * (float(sigma @ g) / d.n)


# --------------------------
# internals
# --------------------------

def _scale(d: Disorder) -> float:
    return float(d.n) ** (-(d.p - 1) / 2.0)


def _check_dims(d: Disorder, sigma: np.ndarray,
                batch: bool = False) -> np.ndarray:
    """``sigma`` as a float array of shape (n,), or also (K, n) when
    ``batch`` is set."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[-1:] != (d.n,) or sigma.ndim > (2 if batch else 1):
        want = f"({d.n},) or (K, {d.n})" if batch else f"({d.n},)"
        raise ValueError(f"configuration has shape {sigma.shape}, "
                         f"expected {want}")
    return sigma


def _contract(tensor: np.ndarray, vectors: list[np.ndarray]) -> np.ndarray:
    """Contract the leading slots of ``tensor`` with ``vectors``, the first
    slot with the first vector, each by one flat (for (K, n) batches, one
    batched) matrix-vector product; the trailing slots stay free in order,
    after a leading K axis for batches."""
    n = tensor.shape[0]
    free = (n,) * (tensor.ndim - len(vectors))
    if vectors[0].ndim == 1:
        a = tensor.reshape(n, -1)
        for v in vectors:
            a = v @ a.reshape(n, -1)
        return a.reshape(free)
    k = vectors[0].shape[0]
    a = vectors[0] @ tensor.reshape(n, -1)
    for v in vectors[1:]:
        a = (v[:, None, :] @ a.reshape(k, n, -1))[:, 0]
    return a.reshape((k,) + free)
