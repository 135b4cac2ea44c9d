"""Hamiltonian, gradients and landscape probes for tensor disorder.

H(sigma) = N^{-(p-1)/2} <G, sigma^{(x)p}> depends on the i.i.d. entries G
only through their symmetrization S (the mean over slot permutations,
cached on the Disorder), so H and every derivative are one contraction
chain of S: H = S[sigma, ..., sigma], grad H = p S[sigma,...,sigma,.], the
Hessian is p(p-1) S[sigma,...,.,.], and the third derivative along x, x is
p(p-1)(p-2) S[sigma,...,.,x,x]. H is taken at one configuration or at
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

from .disorder import Configuration, Disorder, derived_rng, sphere_project

__all__ = ["hamiltonian", "gradient", "spherical_gradient", "hessian",
           "sup_norm_estimate"]


def hamiltonian(d: Disorder, sigma: Configuration):
    """H at one configuration (shape (n,), a float) or at each row of a
    batch (shape (K, n), a (K,) array); O(K N^p)."""
    sigma = _check_dims(d, sigma, batch=True)
    h = _scale(d) * _contract(d.symmetric, [sigma] * d.p)
    return float(h) if sigma.ndim == 1 else h


def gradient(d: Disorder, sigma: Configuration) -> np.ndarray:
    """Exact ambient gradient p S[sigma, ..., sigma, .]."""
    sigma = _check_dims(d, sigma)
    return (d.p * _scale(d)) * _contract(d.symmetric, [sigma] * (d.p - 1))


def spherical_gradient(d: Disorder, sigma: Configuration) -> np.ndarray:
    """Ambient gradient projected orthogonal to sigma."""
    g = gradient(d, sigma)
    return g - sigma * (float(sigma @ g) / d.n)


def hessian(d: Disorder, sigma: Configuration) -> np.ndarray:
    """Exact ambient Hessian p(p-1) S[sigma, ..., sigma, ., .]."""
    sigma = _check_dims(d, sigma)
    p = d.p
    return (p * (p - 1) * _scale(d)) * _contract(d.symmetric,
                                                 [sigma] * (p - 2))


def sup_norm_estimate(d: Disorder, j: int, n_restarts: int = 8,
                      seed: int = 0, n_steps: int = 200) -> float:
    """Best-effort estimate of sup over the sphere of the injective norm of
    the j-th derivative tensor (j in {0, 1, 2}), by Riemannian ascent from
    random starts. A lower bound on the true supremum.
    """
    if j not in (0, 1, 2):
        raise ValueError("j must be 0, 1 or 2")
    if n_restarts < 1:
        raise ValueError("need at least one restart")
    best = -np.inf
    for k in range(n_restarts):
        sigma = sphere_project(derived_rng(seed, k).standard_normal(d.n))
        best = max(best, _ascend(d, j, sigma, n_steps))
    return best


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
    if not vectors or vectors[0].ndim == 1:
        a = tensor.reshape(n, -1)
        for v in vectors:
            a = v @ a.reshape(n, -1)
        return a.reshape(free)
    k = vectors[0].shape[0]
    a = vectors[0] @ tensor.reshape(n, -1)
    for v in vectors[1:]:
        a = (v[:, None, :] @ a.reshape(k, n, -1))[:, 0]
    return a.reshape((k,) + free)


def _objective(d: Disorder, j: int, sigma: np.ndarray):
    """Value f_j(sigma) = sup_x <D^j H, x^{(x)j}> and its ambient gradient
    in sigma (Danskin: differentiate at the maximizing x)."""
    if j == 0:
        return hamiltonian(d, sigma), gradient(d, sigma)
    if j == 1:
        g = gradient(d, sigma)
        norm = float(np.linalg.norm(g))
        if norm == 0.0:
            return 0.0, np.zeros(d.n)
        x = g / norm
        return norm, hessian(d, sigma) @ x
    m = hessian(d, sigma)
    vals, vecs = np.linalg.eigh(m)
    x = vecs[:, -1]
    return float(vals[-1]), _third_directional(d, sigma, x)


def _third_directional(d: Disorder, sigma: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    """Gradient in sigma of <Hess H(sigma) x, x>: the third-derivative
    tensor p(p-1)(p-2) S[sigma, ..., sigma, ., x, x]."""
    p = d.p
    if p < 3:
        return np.zeros(d.n)
    return (p * (p - 1) * (p - 2) * _scale(d)) \
        * _contract(d.symmetric, [x, x] + [sigma] * (p - 3))


def _ascend(d: Disorder, j: int, sigma: np.ndarray, n_steps: int) -> float:
    f, g = _objective(d, j, sigma)
    step = 0.5
    for _ in range(n_steps):
        rg = g - sigma * (float(sigma @ g) / d.n)
        scale = float(np.linalg.norm(rg))
        if scale < 1e-12:
            break
        improved = False
        while step > 1e-12:
            cand = sphere_project(sigma + (step * np.sqrt(d.n) / scale) * rg)
            fc, gc = _objective(d, j, cand)
            if fc > f:
                sigma, f, g = cand, fc, gc
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return f
