"""Gaussian tensor disorder with reproducible lineage.

A disorder is one symmetric order-p tensor S, the slot-permutation mean of
i.i.d. standard normals G (the raw draw is not kept), optionally carrying a
rank-one spike beta s^{(x)p}/N^{(p-1)/2} or a correlation (1-eps) S +
sqrt(2 eps - eps^2) sym(W) with a parent disorder. Every constructor records
its ``Lineage`` (seed; spike beta and direction; parent and epsilon), one
flat record of JSON values from which the entries are rebuilt bit for bit.

Configurations are plain numpy vectors on the sphere of radius sqrt(N).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from ..errors import SizeError

__all__ = ["Configuration", "Disorder", "Lineage", "sample_disorder", "plant",
           "correlate_disorder", "reconstruct", "random_configuration",
           "sphere_project", "sphere_check", "derived_rng", "derived_seed"]

Configuration = np.ndarray  # coords on S_N = {sigma : sum sigma_i^2 = N}

MAX_ENTRIES = 2 ** 31


@dataclass(frozen=True)
class Lineage:
    """Everything needed to regenerate a disorder deterministically, as JSON
    values that compare by value. A spiked disorder sets ``spike_beta`` and
    ``direction``; a correlated copy sets ``parent`` and ``epsilon``, and
    its ``seed`` keys the fresh noise W."""

    n: int
    p: int
    seed: int
    spike_beta: float | None = None
    direction: tuple[float, ...] | None = None
    parent: Lineage | None = None
    epsilon: float | None = None

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> Lineage:
        """The inverse of ``to_json``; an unknown key raises TypeError."""
        parent, direction = d.get("parent"), d.get("direction")
        return cls(**{**d, "parent": parent and cls.from_json(parent),
                      "direction": direction and tuple(direction)})


@dataclass(frozen=True)
class Disorder:
    """Symmetric order-p coefficient tensor, shape (n,) * p, C order."""

    n: int
    p: int
    entries: np.ndarray
    lineage: Lineage

    def __post_init__(self):
        if (self.entries.shape != (self.n,) * self.p
                or (self.lineage.n, self.lineage.p) != (self.n, self.p)):
            raise ValueError("entries and lineage must have shape (n,) * p")


def sample_disorder(n: int, p: int, seed: int) -> Disorder:
    """sym(G) for i.i.d. standard normal G, deterministic in the seed."""
    _check_budget(n, p)
    s = _symmetrize(derived_rng(seed).standard_normal((n,) * p))
    return Disorder(n=n, p=p, entries=s, lineage=Lineage(n=n, p=p, seed=seed))


def plant(n: int, p: int, beta: float, direction: Configuration,
          seed: int) -> Disorder:
    """Rank-one spike beta direction^{(x)p} / N^{(p-1)/2} plus sym(noise)."""
    _check_budget(n, p)
    direction = np.asarray(direction, dtype=float)
    sphere_check(direction)
    entries = sample_disorder(n, p, seed).entries
    spike = reduce(np.multiply.outer, [direction] * p)
    spike *= beta * float(n) ** (-(p - 1) / 2.0)
    entries += spike
    lineage = Lineage(n=n, p=p, seed=seed, spike_beta=float(beta),
                      direction=tuple(direction.tolist()))
    return Disorder(n=n, p=p, entries=entries, lineage=lineage)


def correlate_disorder(d: Disorder, epsilon: float, seed: int) -> Disorder:
    """(1-eps) S + sqrt(2 eps - eps^2) sym(W), by linearity the sym of the
    entrywise coupling of the raw draws; marginal law unchanged."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    w = _symmetrize(derived_rng(seed).standard_normal(d.entries.shape))
    w *= np.sqrt(2.0 * epsilon - epsilon * epsilon)
    w += (1.0 - epsilon) * d.entries
    lineage = Lineage(n=d.n, p=d.p, seed=int(seed), parent=d.lineage,
                      epsilon=float(epsilon))
    return Disorder(n=d.n, p=d.p, entries=w, lineage=lineage)


def reconstruct(lineage: Lineage) -> Disorder:
    """Replay a lineage; the entries match the original bit for bit."""
    if lineage.parent is not None:
        return correlate_disorder(reconstruct(lineage.parent),
                                  lineage.epsilon, lineage.seed)
    if lineage.spike_beta is not None:
        return plant(lineage.n, lineage.p, lineage.spike_beta,
                     np.array(lineage.direction), lineage.seed)
    return sample_disorder(lineage.n, lineage.p, lineage.seed)


def random_configuration(n: int, seed) -> Configuration:
    """Uniform point on the sphere of radius sqrt(n), drawn from the stream
    of ``seed``."""
    return sphere_project(derived_rng(seed).standard_normal(n))


def sphere_project(x: np.ndarray) -> Configuration:
    """Rescale to the sphere of radius sqrt(n) along the last axis, so each
    row of a (K, n) batch is projected on its own."""
    x = np.asarray(x, dtype=float)
    # what np.linalg.norm computes for real input, without its dispatch
    norm = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    if np.count_nonzero(norm) < norm.size:
        raise ValueError("cannot project the zero vector")
    return x * (math.sqrt(x.shape[-1]) / norm)


def sphere_check(sigma: Configuration) -> None:
    """Raise unless |sigma|^2 = N to 1e-9 relative."""
    n = len(sigma)
    if abs(float(sigma @ sigma) - n) > 1e-9 * n:
        raise ValueError("configuration is not on the sphere of radius sqrt(N)")


def derived_rng(*key) -> np.random.Generator:
    """Independent stream for a (seed, index, ...) key; string parts are
    folded into integers so labels can namespace a shared master seed."""
    parts = [int.from_bytes(k.encode(), "little") if isinstance(k, str) else int(k)
             for k in key]
    return np.random.default_rng(np.random.SeedSequence(parts))


def derived_seed(*key) -> int:
    """An integer seed drawn from the stream of ``key``, for interfaces
    that take a seed rather than a generator."""
    return int(derived_rng(*key).integers(2 ** 63))


def _symmetrize(g: np.ndarray) -> np.ndarray:
    """Mean of ``g`` over all slot permutations. Stage k averages the
    tensor symmetric in slots 0..k-1 over the transpositions (j k), j < k,
    and the identity, so the build costs O(p^2) tensor passes instead of
    p!. The sums of swapped views come out in a permuted memory order; C
    order spares the flat contractions in :mod:`energy` a copy per call."""
    for k in range(1, g.ndim):
        g = (g + sum(np.swapaxes(g, j, k) for j in range(k))) / (k + 1)
    return np.ascontiguousarray(g)


def _check_budget(n: int, p: int) -> None:
    """The tensor shape rule; each error names its ``simulate``/``chaos``
    key, ``n`` checked first, and a tensor over budget is blamed on ``p``."""
    if n < 1:
        raise ValueError("config key 'n': need n >= 1 and p >= 2")
    if p < 2:
        raise ValueError("config key 'p': need n >= 1 and p >= 2")
    if n ** p > MAX_ENTRIES:
        raise SizeError(f"config key 'p': tensor with {n}^{p} entries "
                        f"exceeds the budget of 2^31; reduce n or p")
