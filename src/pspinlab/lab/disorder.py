"""Gaussian tensor disorder with reproducible lineage.

A disorder is an order-p tensor of i.i.d. standard normals (not
symmetrized), optionally carrying a rank-one spike beta s^{(x)p}/N^{(p-1)/2}
or an entrywise correlation (1-eps) G + sqrt(2 eps - eps^2) W with a parent
disorder. Every constructor records its lineage (seed, spike, correlation
parent) so that the exact entries can be regenerated bit for bit.

Configurations are plain numpy vectors on the sphere of radius sqrt(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional

import numpy as np

from ..errors import SizeError

__all__ = ["Configuration", "Disorder", "Lineage", "Spike", "Correlation",
           "sample_disorder", "plant", "correlate_disorder", "reconstruct",
           "random_configuration", "sphere_project", "sphere_check",
           "derived_rng", "derived_seed", "MAX_ENTRIES"]

Configuration = np.ndarray  # coords on S_N = {sigma : sum sigma_i^2 = N}

MAX_ENTRIES = 2 ** 31


@dataclass(frozen=True)
class Spike:
    beta: float
    direction: np.ndarray

    def to_json(self) -> dict:
        return {"beta": self.beta, "direction": list(map(float, self.direction))}

    @classmethod
    def from_json(cls, d: dict) -> "Spike":
        return cls(beta=float(d["beta"]),
                   direction=np.asarray(d["direction"], dtype=float))


@dataclass(frozen=True)
class Correlation:
    parent: "Lineage"
    epsilon: float
    seed: int

    def to_json(self) -> dict:
        return {"parent": self.parent.to_json(), "epsilon": self.epsilon,
                "seed": self.seed}

    @classmethod
    def from_json(cls, d: dict) -> "Correlation":
        return cls(parent=Lineage.from_json(d["parent"]),
                   epsilon=float(d["epsilon"]), seed=int(d["seed"]))


@dataclass(frozen=True)
class Lineage:
    """Everything needed to regenerate a disorder deterministically."""

    n: int
    p: int
    seed: int
    spike: Optional[Spike] = None
    correlation: Optional[Correlation] = None

    def to_json(self) -> dict:
        return {
            "n": self.n, "p": self.p, "seed": self.seed,
            "spike": self.spike.to_json() if self.spike else None,
            "correlation": self.correlation.to_json() if self.correlation else None,
        }

    @classmethod
    def from_json(cls, d: dict) -> "Lineage":
        return cls(
            n=int(d["n"]), p=int(d["p"]), seed=int(d["seed"]),
            spike=Spike.from_json(d["spike"]) if d.get("spike") else None,
            correlation=(Correlation.from_json(d["correlation"])
                         if d.get("correlation") else None),
        )


@dataclass(frozen=True)
class Disorder:
    """Order-p coefficient tensor, shape (n,) * p, C order (row-major)."""

    n: int
    p: int
    entries: np.ndarray
    lineage: Lineage

    def __post_init__(self):
        if self.entries.shape != (self.n,) * self.p:
            raise ValueError("entries must have shape (n,) * p")

    @cached_property
    def symmetric(self) -> np.ndarray:
        """Mean of ``entries`` over all p! slot permutations, built once.

        Stage k averages the tensor symmetric in slots 0..k-1 over the
        transpositions (j k), j < k, and the identity, so the whole build
        costs O(p^2) tensor passes instead of p!. The sums of swapped views
        come out in a permuted memory order; C order spares the flat
        contractions in :mod:`energy` a copy per call.
        """
        s = self.entries
        for k in range(1, self.p):
            s = (s + sum(np.swapaxes(s, j, k) for j in range(k))) / (k + 1)
        return np.ascontiguousarray(s)


def sample_disorder(n: int, p: int, seed: int) -> Disorder:
    """i.i.d. standard normal entries, deterministic in the seed."""
    _check_budget(n, p)
    w = derived_rng(seed).standard_normal((n,) * p)
    return Disorder(n=n, p=p, entries=w, lineage=Lineage(n=n, p=p, seed=seed))


def plant(n: int, p: int, beta: float, direction: Configuration,
          seed: int) -> Disorder:
    """Rank-one spike beta direction^{(x)p} / N^{(p-1)/2} plus fresh noise."""
    _check_budget(n, p)
    direction = np.asarray(direction, dtype=float)
    sphere_check(direction)
    base = sample_disorder(n, p, seed)
    spike = _rank_one(direction, p) * (beta * float(n) ** (-(p - 1) / 2.0))
    lineage = Lineage(n=n, p=p, seed=seed,
                      spike=Spike(beta=float(beta), direction=direction.copy()))
    return Disorder(n=n, p=p, entries=spike + base.entries, lineage=lineage)


def correlate_disorder(d: Disorder, epsilon: float, seed: int) -> Disorder:
    """(1-eps) G + sqrt(2 eps - eps^2) W entrywise; marginal law unchanged."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    w = derived_rng(seed).standard_normal(d.entries.shape)
    eta = np.sqrt(2.0 * epsilon - epsilon * epsilon)
    entries = (1.0 - epsilon) * d.entries + eta * w
    lineage = Lineage(n=d.n, p=d.p, seed=seed,
                      correlation=Correlation(parent=d.lineage,
                                              epsilon=float(epsilon),
                                              seed=int(seed)))
    return Disorder(n=d.n, p=d.p, entries=entries, lineage=lineage)


def reconstruct(lineage: Lineage) -> Disorder:
    """Replay a lineage; the entries match the original bit for bit."""
    if lineage.correlation is not None:
        parent = reconstruct(lineage.correlation.parent)
        return correlate_disorder(parent, lineage.correlation.epsilon,
                                  lineage.correlation.seed)
    if lineage.spike is not None:
        return plant(lineage.n, lineage.p, lineage.spike.beta,
                     lineage.spike.direction, lineage.seed)
    return sample_disorder(lineage.n, lineage.p, lineage.seed)


def random_configuration(n: int, seed) -> Configuration:
    """Uniform point on the sphere of radius sqrt(n), drawn from the stream
    of ``seed``."""
    return sphere_project(derived_rng(seed).standard_normal(n))


def sphere_project(x: np.ndarray) -> Configuration:
    """Rescale to the sphere of radius sqrt(n) along the last axis, so each
    row of a (K, n) batch is projected on its own."""
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    if not norm.all():
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


def _rank_one(v: np.ndarray, p: int) -> np.ndarray:
    return reduce(np.multiply.outer, [v] * p)


def _check_budget(n: int, p: int) -> None:
    if n < 1 or p < 2:
        raise ValueError("need n >= 1 and p >= 2")
    if n ** p > MAX_ENTRIES:
        raise SizeError(f"tensor with {n}^{p} entries exceeds the budget "
                        f"of 2^31; reduce n or p")
