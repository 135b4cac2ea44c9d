"""Correlation functions, W2 distance, and ``chaos_scan``, the one
overlap/transport chaos estimator."""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .. import phase
from .disorder import (Configuration, Disorder, _check_budget,
                       correlate_disorder, derived_seed, sample_disorder)
from .langevin import LangevinConfig, langevin_run
from .samplers import (ReplicaExchange, _check_at_least, _check_beta,
                       _check_run, equilibrium_sample)

__all__ = ["correlation_curve", "w2_empirical", "chaos_scan"]

W2_MAX_POINTS = 1024  # one W2 call at this size takes about 0.33 s at N = 16


def correlation_curve(d: Disorder, cfg: LangevinConfig,
                      n_trajectories: int, seed: int = 0,
                      threads: int = 1) -> list[tuple[float, float, float]]:
    """C_N(t) = mean over stationary trajectories of <sigma_0, sigma_t>/N,
    with standard errors, on the monotone time grid of recorded strides.
    Starts are equilibrium draws at ``cfg.beta``, the temperature of the
    dynamics. Trajectories are independent and run on ``threads`` workers."""
    _check_at_least("n_traj", n_trajectories, 1)
    results = map_parallel(functools.partial(_one_trajectory, d, cfg, seed),
                           range(n_trajectories), threads)
    times = results[0][0]
    mean, stderr = _mean_stderr(
        np.asarray([overlaps for _, overlaps in results]))
    return list(zip(times, mean.tolist(), stderr.tolist()))


def _one_trajectory(d: Disorder, cfg: LangevinConfig, seed: int, i: int):
    sigma0, _ = equilibrium_sample(d, cfg.beta, seed=derived_seed(seed, i, 0))
    traj = langevin_run(d, sigma0, cfg, seed=derived_seed(seed, i, 1))
    times = [t for t, _ in traj]
    return times, [float(sigma0 @ s) / d.n for _, s in traj]


def map_parallel(fn, items, threads: int) -> list:
    """[fn(item) for item in items], in order, on ``threads`` worker
    processes (at most one per item) when there are two or more items."""
    if threads > 1 and len(items) > 1:
        # imported here: it loads multiprocessing, which only a pool needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(min(threads, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def w2_empirical(a: list[Configuration], b: list[Configuration]) -> float:
    """Exact normalized Wasserstein-2 distance between the two empirical
    uniform measures: optimal assignment under cost |x - y|^2 / N.

    The assignment is solved by shortest augmenting paths with dual
    potentials (Jonker & Volgenant, Computing 38, 1987; Crouse, IEEE TAES
    52, 2016), O(m^3) in the worst case for m points a side. At N = 16
    on a 2-core shared host one call takes about 0.55 ms at m = 16 and
    0.33 s at the 1024-point maximum."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.shape != b_arr.shape or a_arr.ndim != 2 or a_arr.size == 0:
        raise ValueError("need two equal-size lists of configurations")
    m = a_arr.shape[0]
    if m > W2_MAX_POINTS:
        raise ValueError(f"at most {W2_MAX_POINTS} points per side, got {m}")
    with np.errstate(over="ignore", invalid="ignore"):
        cost = _sq_distances(a_arr, b_arr) / a_arr.shape[1]
    if not np.isfinite(cost).all():
        raise ValueError("need finite configurations with finite squared "
                         "distances")
    return float(np.sqrt(cost[np.arange(m), _assignment(cost)].mean()))


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j|^2 from coordinate differences, summed one coordinate at
    a time as scipy's cdist sums them, so equal rows cost exactly 0. The
    one temporary is m x m."""
    out = np.zeros((len(a), len(b)))
    diff = np.empty_like(out)
    for x, y in zip(a.T, b.T):
        np.subtract.outer(x, y, out=diff)
        diff *= diff
        out += diff
    return out


def _assignment(cost: np.ndarray) -> np.ndarray:
    """The column of each row in a minimum-cost perfect matching of the
    finite square matrix ``cost``. Rows join one at a time; each runs one
    Dijkstra search for the shortest augmenting path in reduced costs
    cost[i, j] - u[i] - v[j], one vectorized step per scanned column, and
    then updates the dual potentials u, v so that reduced costs stay
    non-negative."""
    m = len(cost)
    # column minima: feasible duals that shorten the first searches
    u, v = np.zeros(m), cost.min(axis=0)
    row_of = np.full(m, -1)  # the row matched to each column
    col_of = np.full(m, -1)  # the column matched to each row
    for start in range(m):
        dist = np.full(m, np.inf)  # path cost to each unscanned column
        via = np.zeros(m, dtype=int)  # the row before each column on it
        offset = -v  # -v[j], and inf once column j is scanned
        scanned, final = [], []  # scanned columns and their path costs
        i, low = start, 0.0
        while True:
            reach = cost[i] + offset
            reach += low - u[i]
            closer = reach < dist
            np.putmask(dist, closer, reach)
            np.putmask(via, closer, i)
            j = int(dist.argmin())
            low = dist[j]
            scanned.append(j)
            final.append(low)
            dist[j] = offset[j] = np.inf
            i = int(row_of[j])
            if i < 0:
                break
        scanned, final = np.asarray(scanned), np.asarray(final)
        u[start] += low
        u[row_of[scanned[:-1]]] += low - final[:-1]
        v[scanned] -= low - final
        while True:  # flip the matching along the path back to start
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of


def chaos_scan(n: int, p: int, beta: float, epsilons, n_samples: int,
               n_disorders: int, burn_in: int, thin: int, seed: int = 0,
               threads: int = 1) -> list[dict]:
    """Overlap and transport chaos at each epsilon, ascending, as means
    over fresh disorders with standard errors. Per disorder, ``overlap_sq``
    is the mean of (<sigma, sigma'>/N)^2 over paired draws sigma ~
    Gibbs(G), sigma' ~ Gibbs(G^eps), and ``w2`` the W2 distance between
    the two draw sets. The draws of G are shared across epsilons, so the
    epsilon = 0 ``w2`` is the sampling floor of the estimate, the distance
    between two independent draw sets of one measure (1.07 +- 0.07 at the
    ``chaos`` defaults); W2 chaos is the rise above it.

    Disorder j is drawn from the key (seed, j, "d") and its chains run
    under keys derived from (seed, j), on ``threads`` workers. Every input
    is checked before the first draw, an error naming the ``chaos`` config
    key (the argument of the same name) at fault, and the static-boundary
    warning is given once per scan."""
    eps = sorted(_check_chaos(n, p, beta, epsilons, n_samples, burn_in,
                              thin, n_disorders, seed))
    per_disorder = map_parallel(
        functools.partial(_one_disorder, n, p, beta, eps, n_samples, seed,
                          burn_in, thin), range(n_disorders), threads)
    rows = []
    for i, e in enumerate(eps):
        ovl, ovl_err = _mean_stderr(np.asarray([r[i][0] for r in per_disorder]))
        w2, w2_err = _mean_stderr(np.asarray([r[i][1] for r in per_disorder]))
        rows.append({"epsilon": e, "overlap_sq": float(ovl),
                     "overlap_sq_stderr": float(ovl_err), "w2": float(w2),
                     "w2_stderr": float(w2_err)})
    return rows


def _mean_stderr(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the leading (sample) axis and its standard error, which
    is 0 for a single sample."""
    k = len(arr)
    mean = arr.mean(axis=0)
    stderr = (arr.std(axis=0, ddof=1) / np.sqrt(k) if k > 1
              else np.zeros_like(mean))
    return mean, stderr


def _one_disorder(n: int, p: int, beta: float, eps: list[float],
                  n_samples: int, seed: int, burn_in: int, thin: int,
                  j: int) -> list[tuple[float, float]]:
    """(overlap_sq, w2) of disorder j for each epsilon in ``eps``."""
    d = sample_disorder(n, p, seed=derived_seed(seed, j, "d"))
    base = ReplicaExchange(d, beta, seed=derived_seed(seed, j, 0)).sample(
        n_samples, burn_in=burn_in, thin=thin)
    out = []
    for e in eps:
        d_eps = correlate_disorder(
            d, e, seed=derived_seed(seed, j, "eps", _eps_key(e)))
        other = ReplicaExchange(
            d_eps, beta, seed=derived_seed(seed, j, 1, _eps_key(e))).sample(
            n_samples, burn_in=burn_in, thin=thin)
        sq = [(float(x @ y) / n) ** 2 for x, y in zip(base, other)]
        out.append((float(np.mean(sq)), w2_empirical(base, other)))
    return out


def _eps_key(e: float) -> int:
    """The integer that keys epsilon's perturbed disorder and chain."""
    return int(e * 1e9)


def _check_chaos(n: int, p: int, beta: float, epsilons, n_samples: int,
                 burn_in: int, thin: int, n_disorders: int,
                 seed: int) -> list[float]:
    """The epsilons as floats, once every chaos input is valid; warns when
    beta is at or beyond the static boundary."""
    _check_budget(n, p)
    _check_beta(beta)
    _check_run(n_samples, burn_in, thin)
    if n_samples > W2_MAX_POINTS:
        raise ValueError(f"config key 'n_samples' must be <= "
                         f"{W2_MAX_POINTS}, got {n_samples}")
    _check_at_least("n_disorders", n_disorders, 1)
    _check_at_least("seed", seed, 0)
    eps = [float(e) for e in epsilons]
    if not eps or not all(0.0 <= e <= 1.0 for e in eps):
        raise ValueError(f"config key 'epsilons' needs at least one "
                         f"epsilon, each in [0, 1], got {eps}")
    if len({_eps_key(e) for e in eps}) < len(eps):
        raise ValueError(f"config key 'epsilons' needs a seed key "
                         f"int(epsilon * 1e9) for each epsilon, got {eps}")
    _warn_if_low_temperature(p, beta)
    return eps


def _warn_if_low_temperature(p: int, beta: float) -> None:
    # beta_d < beta_c and beta_d is closed form: a beta below beta_d skips
    # the minimization behind beta_c
    try:
        if beta < phase.beta_d_pure(p):
            return
        bc, _ = phase.beta_c(p)
    except ValueError:
        return
    if beta >= bc:
        warnings.warn(f"beta = {beta} is at or beyond the static boundary "
                      f"{bc:.4f}; equilibrium sampling is unreliable",
                      stacklevel=4)
