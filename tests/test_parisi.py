import importlib.machinery
import importlib.util
import json
import math
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from pspinlab import cli, parisi
from pspinlab.errors import TruncationWarning
from pspinlab.franz_parisi import fp_value, half_band_grid, window_grid
from pspinlab.mixtures import MixtureFn, band_mixture, evaluate
from pspinlab.parisi import (ParisiMeasure, cs_functional, make_grid,
                             minimize_cs, rs_value)


def random_measure(rng, n_atoms=None, q_top=0.95):
    k = n_atoms or int(rng.integers(1, 6))
    loc = np.sort(rng.uniform(0.0, q_top, size=k))
    while np.any(np.diff(loc) <= 1e-6):
        loc = np.sort(rng.uniform(0.0, q_top, size=k))
    w = rng.uniform(0.1, 1.0, size=k)
    w /= w.sum()
    w[-1] += 1.0 - w.sum()  # exact unit mass
    return ParisiMeasure(loc, w)


def test_single_atom_hand_values():
    assert cs_functional(ParisiMeasure(0.0, 1.0), MixtureFn(3), 1.0) \
        == pytest.approx(0.5, abs=1e-15)
    assert cs_functional(ParisiMeasure(0.3, 1.0), MixtureFn(3), 1.0) \
        == pytest.approx(0.5224482, abs=1e-7)


def test_single_atom_equals_rs_value():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = int(rng.integers(2, 9))
        beta = float(rng.uniform(0.1, 3.0))
        t = float(rng.uniform(0.0, 0.98))
        got = cs_functional(ParisiMeasure(t, 1.0), MixtureFn(p), beta)
        assert abs(got - rs_value(t, MixtureFn(p), beta)) < 1e-12


def test_rs_value_edges():
    xi = band_mixture(4, 0.3)
    assert rs_value(0.0, xi, 1.7) == pytest.approx(
        1.7 ** 2 * evaluate(xi, 1.0) / 2.0, abs=1e-14)
    assert rs_value(1.0 - 1e-12, MixtureFn(3), 1.0) > 1e10  # pole at t -> 1
    with pytest.raises(ValueError):
        rs_value(1.0, MixtureFn(3), 1.0)


def test_truncation_identity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        zeta = random_measure(rng, q_top=0.9)
        beta = float(rng.uniform(0.2, 2.5))
        xi = MixtureFn(int(rng.integers(2, 7)))
        base = cs_functional(zeta, xi, beta)
        extended = cs_functional(zeta, xi, beta,
                                 q_top=float(rng.uniform(zeta.q_hat, 0.999)))
        assert abs(base - extended) < 1e-12


def test_convexity_probe():
    rng = np.random.default_rng(21)
    xi = MixtureFn(3)
    for _ in range(100):
        loc = np.sort(rng.uniform(0.0, 0.9, size=4))
        while np.any(np.diff(loc) <= 1e-6):
            loc = np.sort(rng.uniform(0.0, 0.9, size=4))
        w1 = rng.uniform(0.05, 1.0, 4)
        w1 /= w1.sum()
        w1[-1] += 1.0 - w1.sum()
        w2 = rng.uniform(0.05, 1.0, 4)
        w2 /= w2.sum()
        w2[-1] += 1.0 - w2.sum()
        lam = float(rng.uniform(0.05, 0.95))
        mix = lam * w1 + (1 - lam) * w2
        mix[-1] += 1.0 - mix.sum()
        beta = float(rng.uniform(0.3, 2.0))
        p_mix = cs_functional(ParisiMeasure(loc, mix), xi, beta)
        p1 = cs_functional(ParisiMeasure(loc, w1), xi, beta)
        p2 = cs_functional(ParisiMeasure(loc, w2), xi, beta)
        assert p_mix <= lam * p1 + (1 - lam) * p2 + 1e-12


def test_discretized_objective_matches_atomic_value():
    # a CDF that embeds an atomic measure must reproduce cs_functional
    # exactly through the fixed-endpoint (truncated) objective
    rng = np.random.default_rng(9)
    for _ in range(20):
        zeta = random_measure(rng, n_atoms=3, q_top=0.8)
        beta = float(rng.uniform(0.3, 2.0))
        xi = MixtureFn(int(rng.integers(2, 6)))
        q_max = 0.99
        grid = np.unique(np.concatenate([
            np.linspace(0.0, q_max, 40), zeta.locations, [q_max]]))
        cdf = np.searchsorted(grid, zeta.locations, side="right")
        x = np.zeros(len(grid))
        cum = np.cumsum(zeta.weights)
        for j, t in enumerate(grid):
            k = np.searchsorted(zeta.locations, t, side="right")
            x[j] = cum[k - 1] if k > 0 else 0.0
        x[-1] = 1.0
        prob = parisi._CsProblem(xi, beta, grid)
        val, _ = prob.value_grad(x[:-1])
        assert val == pytest.approx(cs_functional(zeta, xi, beta), abs=1e-12)


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    grid = make_grid(32)
    prob = parisi._CsProblem(band_mixture(3, 0.4), 1.3, grid)
    x = np.sort(rng.uniform(0.0, 1.0, len(grid) - 1))
    _, g = prob.value_grad(x)
    h = 1e-7
    for k in range(0, len(x), 5):
        e = np.zeros_like(x)
        e[k] = h
        fd = (prob.value_grad(x + e)[0] - prob.value_grad(x - e)[0]) / (2 * h)
        assert abs(g[k] - fd) / max(abs(fd), 1e-9) < 1e-5


def _f_logratio_reference(u):
    # log(1+u)/u with the series below 1e-6, as two masked halves
    out = np.empty_like(u)
    small = u < 1e-6
    us = u[small]
    out[small] = 1.0 - 0.5 * us + us * us / 3.0
    ub = u[~small]
    out[~small] = np.log1p(ub) / ub
    return out


def _df_logratio_reference(u):
    # d/du of log(1+u)/u with the series below 1e-4, as two masked halves
    out = np.empty_like(u)
    small = u < 1e-4
    us = u[small]
    out[small] = -0.5 + 2.0 * us / 3.0 - 0.75 * us * us
    ub = u[~small]
    out[~small] = (ub / (1.0 + ub) - np.log1p(ub)) / (ub * ub)
    return out


_SERIES_SWEEP = np.concatenate([[0.0, 1e-7],
                                 np.nextafter(1e-6, [0.0, 1.0]), [1e-6],
                                 np.nextafter(1e-4, [0.0, 1.0]), [1e-4],
                                 np.logspace(-3, 1, 60)])
# each series cut and one step either side of it, inside a span that starts
# after leading zeros and ends at a later small entry
_CUTS = np.concatenate([np.nextafter(1e-6, [0.0, 1.0]), [1e-6],
                        np.nextafter(1e-4, [0.0, 1.0]), [1e-4]])
_CUTS_IN_SPAN = np.concatenate([np.zeros(4), _CUTS, [1e-3], _CUTS[::-1],
                                [5e-5], np.logspace(-3, 1, 20)])
# the projection's np.maximum(-0.0, 0.0) keeps -0.0, so the solver can pass
# it, leading or inside the span
_NEGATIVE_ZEROS = np.array([-0.0, 0.0, -0.0, 3e-7, -0.0, 2e-3, -0.0, 2e-5,
                            0.5, -0.0, 1.0])
# a span over all 512 entries: small and closed-form entries interleaved,
# the last entry small
_FULL_SPAN = np.random.default_rng(3).permutation(np.logspace(-9, 1, 512))
_FULL_SPAN[-1] = 5e-5
# a span of 350 entries after 100 leading zeros, a third of them closed form
_LONG_SPAN = np.concatenate([np.zeros(100),
                             np.geomspace(1e-12, 9e-5, 350), np.ones(62)])
_LONG_SPAN[100:450:3] = np.logspace(-3, 1, 117)


# _logratio runs its series only over the span of small entries and fills
# leading exact zeros; every input must still give the masked reference's bits
@pytest.mark.parametrize("u", [
    _SERIES_SWEEP,
    np.logspace(-3, 1, 40),  # no series branch taken
    np.concatenate([np.zeros(7), np.geomspace(1e-12, 9e-7, 5),
                    np.geomspace(1e-6, 9e-5, 5), np.logspace(-3, 1, 20)]),
    np.zeros(16),
    np.concatenate([np.zeros(5), [1e-4], np.logspace(-3, 1, 20)]),
    _SERIES_SWEEP[::-1].copy(),  # small entries last, not a prefix
    np.concatenate([np.zeros(3), [1e-3, 0.0, 5e-7, 2.0, 0.0, 3e-5, 0.5]]),
    _CUTS_IN_SPAN,
    _NEGATIVE_ZEROS,
    _FULL_SPAN,
    _LONG_SPAN,
], ids=["across-series-cuts", "closed-form-only", "zeros-then-both-series",
        "all-zeros", "zeros-then-closed-form", "series-cuts-reversed",
        "small-entries-scattered", "cuts-inside-span", "negative-zeros",
        "span-of-all-512", "span-of-350"])
def test_logratio_matches_masked_reference_bit_for_bit(u):
    f, df = parisi._logratio(u)
    np.testing.assert_array_equal(f, _f_logratio_reference(u))
    np.testing.assert_array_equal(df, _df_logratio_reference(u))


class _AllocatingCsProblem:
    """``value_grad`` in the form that allocated every temporary and ran
    the series over every entry, kept as the reference for the buffered
    kernel; it reads the constants of a ``parisi._CsProblem``."""

    def __init__(self, prob):
        self.L, self.neg_L, self.phi_end = prob.L, -prob.L, prob.phi_end
        self.dxi, self.b2, self.b2_dxi = prob.dxi, prob.b2, prob.b2_dxi
        self.const = prob.const

    def value_grad(self, x):
        phi, ratio, u = self._segments(x)
        f, df = _allocating_logratio(u)
        dseg = ratio * ratio * df
        # prefix_k = sum_{j < k} shift_j, shift_j = -L_j / (phi_j phi_{j+1})
        prefix = np.zeros(len(x))
        np.cumsum(self.neg_L[:-1] / (phi[:-2] * phi[1:-1]), out=prefix[1:])
        grad = 0.5 * (self.b2_dxi + dseg + self.L * prefix)
        return self._total(x, ratio, f), grad

    def _segments(self, x):
        phi = np.empty(len(x) + 1)
        phi[-1] = self.phi_end
        phi[:-1] = self.phi_end + np.cumsum((x * self.L)[::-1])[::-1]
        ratio = self.L / phi[1:]
        return phi, ratio, x * ratio

    def _total(self, x, ratio, f):
        return float(0.5 * (self.b2 * (x @ self.dxi) + (ratio * f).sum()
                            + self.const))


def _allocating_logratio(u):
    lg = np.log1p(u)
    f = lg / np.maximum(u, 1e-6)
    small = u < 1e-4
    any_small = small.any()
    if any_small:
        np.copyto(f, 1.0 - 0.5 * u + u * u / 3.0, where=u < 1e-6)
    df = (u / (1.0 + u) - lg) / np.maximum(u * u, 1e-8)
    if any_small:
        np.copyto(df, -0.5 + 2.0 * u / 3.0 - 0.75 * u * u, where=small)
    return f, df


@pytest.mark.parametrize("n_zero", [0, 1, 40, 511])
@pytest.mark.parametrize("tiny", [False, True], ids=["sorted", "tiny-after-zeros"])
def test_buffered_objective_matches_allocating_reference_bit_for_bit(
        n_zero, tiny):
    # a window point at the default grid; with ``tiny`` the entries after
    # the zeros run from 1e-9 up, so u crosses both series cuts there
    grid = make_grid(512)
    m = len(grid) - 1
    prob = parisi._CsProblem(band_mixture(1024, window_grid(1024, 48)[10]),
                             2.8622855123888167, grid)
    reference = _AllocatingCsProblem(prob)
    rng = np.random.default_rng(n_zero)
    grads = []
    for _ in range(3):  # repeated calls reuse the scratch buffers
        x = np.sort(rng.uniform(0.0, 1.0, m))
        x[:n_zero] = 0.0
        if tiny:
            k = min(12, m - n_zero)
            x[n_zero:n_zero + k] = np.geomspace(1e-9, 1e-2, 12)[:k]
        f, g = prob.value_grad(x)
        f_ref, g_ref = reference.value_grad(x)
        assert f == f_ref
        np.testing.assert_array_equal(g, g_ref)
        grads.append((g, g.copy()))
    for g, kept in grads:  # no call wrote into a gradient returned earlier
        np.testing.assert_array_equal(g, kept)


def test_projection_equals_public_isotonic_fit_bit_for_bit(monkeypatch):
    # project calls scipy's private compiled PAVA kernel on reused weight
    # and block buffers; the public isotonic_regression wraps the same
    # kernel with fresh buffers. A scipy release that renames or changes
    # the kernel, a weight buffer left holding pooled weights, a missing
    # clip, or an argument the binding copies instead of pooling in place
    # each fail this comparison
    from scipy.optimize import isotonic_regression

    grid = make_grid(512)
    m = len(grid) - 1
    prob = parisi._CsProblem(band_mixture(128, 0.9901), 2.4529900038181776,
                             grid)
    rng = np.random.default_rng(7)
    ramp = np.linspace(-0.5, 1.5, m)
    hand = [
        np.repeat([0.3, 0.1, 0.1, 0.7, 0.7, 0.2, 0.9, 0.9], m // 8),  # ties
        np.linspace(1.0, 0.0, m),  # strictly decreasing: one block
        np.linspace(0.0, 1.0, m),  # increasing: no pooling
        ramp + rng.normal(0.0, 500.0, m),  # far outside [0, 1]
        np.sort(rng.uniform(0.0, 1.0, m))[::-1].copy(),  # pools, then ...
        ramp + rng.normal(0.0, 0.05, m),  # ... a second call on one problem
    ]
    # every vector the solver projects on the slow window point below: its
    # steps x - alpha g and its KKT checks x - g, most of which pool
    inputs = []
    project = parisi._CsProblem.project

    def recording(self, v):
        inputs.append(v.copy())
        return project(self, v)

    with monkeypatch.context() as patch:
        patch.setattr(parisi._CsProblem, "project", recording)
        parisi._grid_solve(band_mixture(128, 0.9901), 2.4529900038181776,
                           make_grid(512))
    assert len(inputs) > 144  # one per iteration, plus the KKT checks
    pooled = 0
    for v in hand + inputs:
        fit = isotonic_regression(v).x
        want = np.minimum(np.maximum(fit, 0.0), 1.0)
        got = prob.project(v.copy())
        np.testing.assert_array_equal(got, want)
        pooled += bool(np.any(fit != v))
    assert pooled > len(inputs) // 2  # most recorded inputs do pool


# runs in a fresh interpreter, since this test process has scipy.optimize
# loaded; argv[1] is "solve first" or "scipy first". Two solves, counting
# the finder's searches, then the solver's kernel, the scipy modules the
# solves loaded, and the public isotonic fit of [3, 1, 2]
LOAD_ORDER_SCRIPT = r"""
import importlib.util, json, sys

if sys.argv[1] == "scipy first":
    import scipy.optimize
from pspinlab import parisi
from pspinlab.mixtures import MixtureFn

searches = []
find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *a: (searches.append(name),
                                              find_spec(name, *a))[1]
before = set(sys.modules)
for _ in range(2):
    parisi.minimize_cs(MixtureFn(3), 1.5, 64)
kernel = parisi._CsProblem(MixtureFn(3), 1.5, parisi.make_grid(64))._pava
new = sorted(m for m in set(sys.modules) - before if m.startswith("scipy"))
searched = list(searches)
import scipy.optimize
from scipy.optimize import isotonic_regression
print(json.dumps({
    "searches": searched, "new": new,
    "same": scipy.optimize._isotonic.pava is kernel
            and sys.modules["scipy.optimize._pava_pybind"].pava is kernel,
    "fit": isotonic_regression([3.0, 1.0, 2.0]).x.tolist()}))
"""


@pytest.mark.parametrize("order", ["solve first", "scipy first"])
def test_kernel_is_the_module_scipy_optimize_uses(order):
    # the solver loads the kernel's extension file alone and registers it,
    # so scipy.optimize reuses that module whichever loads first, and the
    # search for it runs once per process at most
    src = str(Path(parisi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", LOAD_ORDER_SCRIPT, order],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["same"] and got["fit"] == [2.0, 2.0, 2.0]
    if order == "solve first":
        assert got["searches"] == ["scipy"]
        assert got["new"] == ["scipy.optimize._pava_pybind"]
    else:  # scipy.optimize already holds the kernel: nothing is searched
        assert got["searches"] == [] and got["new"] == []


@pytest.mark.parametrize("where", ["no scipy", "no kernel file"])
def test_missing_kernel_names_scipy(monkeypatch, tmp_path, capsys, where):
    (tmp_path / "optimize").mkdir()

    def find_spec(name, *args):
        assert name == "scipy"  # the search never executes scipy
        if where == "no scipy":
            return None
        # a scipy package whose optimize/ directory holds no kernel
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations.append(str(tmp_path))
        return spec

    monkeypatch.delitem(sys.modules, "scipy.optimize._pava_pybind",
                        raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", find_spec)
    with pytest.raises(ModuleNotFoundError,
                       match=r"scipy >= 1\.12 .*_pava_pybind"):
        minimize_cs(MixtureFn(3), 1.5, 64)
    out = tmp_path / "p.csv"
    assert cli.main(["parisi", "--m", "64", "--out", str(out)]) == 2
    assert "scipy >= 1.12" in capsys.readouterr().err
    assert not out.exists()


def test_minimize_slow_window_point_reproduces_reference_iterates():
    # a 1RSB-like window-grid point (p = 128, beta = 0.95 beta_c, the first
    # point of window_grid(128)); the reference iteration count and value
    # come from the spectral projected gradient loop, so any drift in the
    # iterates shows up here. The accelerated projected gradient it replaced
    # took 193 iterations to 2.1403499758487587.
    res = parisi._grid_solve(band_mixture(128, 0.9901), 2.4529900038181776,
                             make_grid(512))
    assert res.converged
    assert res.iterations == 144
    assert res.value == 2.1403499756977853
    assert abs(res.value - 2.1403499758487587) <= 1e-9
    assert res.iterations < 193


# (label, mixture, beta, value of the accelerated projected gradient solver
# that minimize_cs used before the spectral projected gradient, at m = 512,
# and the spectral projected gradient's iteration count and value)
APG_PANEL = [
    ("slow p=128", lambda: band_mixture(128, 0.9901), 2.4529900038181776,
     2.1403499758487587, 144, 2.1403499756977853),
    ("p=1024 1RSB-like", lambda: band_mixture(1024, window_grid(1024, 48)[10]),
     2.8622855123888167, 3.102055785055767, 83, 3.102055784866465),
    ("p=1024 RS-like", lambda: band_mixture(1024, window_grid(1024, 48)[30]),
     2.8622855123888167, 1.0723172482097896, 15, 1.0723172482090977),
    ("p=2048 half band", lambda: band_mixture(2048, half_band_grid(2048, 32)[16]),
     2.9828216675239876, 0.5512922592487417, 12, 0.5512922592478571),
    ("pure p=3", lambda: MixtureFn(3), 1.5, 1.0973230045906819,
     24, 1.0973230044509794),
]


@pytest.mark.parametrize("label, make_xi, beta, reference, iterations, value",
                         APG_PANEL, ids=[row[0] for row in APG_PANEL])
def test_minimize_matches_previous_solver_values(label, make_xi, beta,
                                                 reference, iterations, value):
    # window points at beta = 0.95 beta_c; a faster solver must reach the
    # same minimum: the measured spread is below 2e-10. A kernel change that
    # keeps every floating-point operation must also keep the iterates, so
    # the iteration count and the value are exact
    res = parisi._grid_solve(make_xi(), beta, make_grid(512))
    assert res.converged
    assert res.kkt_residual < parisi.TOL_KKT
    assert abs(res.value - reference) <= 5e-8
    assert res.iterations == iterations
    assert res.value == value


@pytest.mark.parametrize("label, make_xi, beta, reference, iterations, value",
                         APG_PANEL, ids=[row[0] for row in APG_PANEL])
def test_minimize_falls_back_to_the_grid_solve(monkeypatch, label, make_xi,
                                               beta, reference, iterations,
                                               value):
    # the atomic answer is certified and lies below the grid's, by no more
    # than the grid answer's own gap; with certification made impossible,
    # minimize_cs returns the grid solve's answer bit for bit, with its gap
    xi = make_xi()
    atomic = minimize_cs(xi, beta)
    assert atomic.converged and atomic.gap <= parisi.GAP_TOL
    assert len(atomic.measure.locations) <= parisi.MAX_ATOMS
    monkeypatch.setattr(parisi, "GAP_TOL", -1.0)
    res = minimize_cs(xi, beta)
    assert res.converged
    assert (res.iterations, res.value) == (iterations, value)
    grid = parisi._grid_solve(xi, beta, make_grid(512))
    for got, want in [(res.measure.locations, grid.measure.locations),
                      (res.measure.weights, grid.measure.weights)]:
        np.testing.assert_array_equal(got, want)
    assert (res.kkt_residual, res.gap) == (grid.kkt_residual, grid.gap)
    assert 0.0 < res.gap <= 1e-4
    assert 0.0 < res.value - atomic.value <= res.gap


# G on a dense uniform mesh: the certificate's lower bound on min G must lie
# at or below the least value there, to rounding. G at a node is a suffix
# sum over the mesh intervals above it; over 400k intervals it moves by up
# to 6e-12 against the certificate's mesh, so the rounding allowance is
# 1e-10, a hundredth of GAP_TOL
DENSE_NODES = 400_000
DENSE_ROUNDING = 1e-10


@pytest.mark.parametrize("label, make_xi, beta",
                         [row[:3] for row in APG_PANEL],
                         ids=[row[0] for row in APG_PANEL])
@pytest.mark.parametrize("solve", ["atomic", "grid"])
def test_certificate_bound_lies_below_a_dense_mesh_minimum(label, make_xi,
                                                           beta, solve):
    xi = make_xi()
    res = (minimize_cs(xi, beta) if solve == "atomic"
           else parisi._grid_solve(xi, beta, make_grid(512)))
    b2 = beta * beta
    gap, lower, _ = parisi._fw_bound(xi, b2, res.measure)
    loc, w = res.measure.locations, res.measure.weights
    mesh = np.union1d(np.linspace(0.0, parisi.Q_TOP, DENSE_NODES), loc)
    G = parisi._g_nodes(xi, b2, loc, w, mesh)[0]
    assert lower <= G.min() + DENSE_ROUNDING
    expected = w @ G[np.searchsorted(mesh, loc)]
    assert gap == pytest.approx(max(expected - min(lower, 0.0), 0.0),
                                abs=DENSE_ROUNDING)
    assert res.gap == gap


@pytest.mark.parametrize("label, make_xi, beta",
                         [row[:3] for row in APG_PANEL],
                         ids=[row[0] for row in APG_PANEL])
def test_gap_bounds_the_value_rise_of_a_perturbed_measure(label, make_xi,
                                                          beta):
    # the gap of any measure bounds its value minus the minimum, so it is
    # at least its value's rise above the certified answer
    xi = make_xi()
    best = minimize_cs(xi, beta)
    rng = np.random.default_rng(11)
    for _ in range(6):
        k = int(rng.integers(1, 4))
        loc = np.sort(rng.uniform(0.0, 0.995, k))
        w = rng.dirichlet(np.ones(k))
        w[-1] = 1.0 - w[:-1].sum()
        for zeta in (ParisiMeasure(loc, w),
                     ParisiMeasure(best.measure.locations
                                   + rng.uniform(0.0, 1e-3),
                                   best.measure.weights)):
            rise = cs_functional(zeta, xi, beta, q_top=parisi.Q_TOP) \
                - best.value
            assert rise > 0.0
            assert parisi._fw_gap(xi, beta, zeta) >= rise


def test_gap_is_zero_at_the_rs_atom():
    # pure p = 3 at beta = 1: g <= 0 and G is convex on [0, Q_TOP], so the
    # certificate's bound is G(0) itself
    assert parisi._fw_gap(MixtureFn(3), 1.0, ParisiMeasure(0.0, 1.0)) == 0.0
    res = minimize_cs(MixtureFn(3), 1.0)
    assert res.gap == 0.0
    assert (res.measure.locations.tolist(), res.measure.weights.tolist()) \
        == ([0.0], [1.0])


def test_low_temperature_solve_is_certified():
    # the grid solve spends its 20000-iteration budget at beta = 300; the
    # atomic solve finds the two atoms well inside the fixed endpoint
    res = minimize_cs(MixtureFn(3), 300.0)
    assert res.converged and res.gap <= parisi.GAP_TOL
    np.testing.assert_allclose(res.measure.locations, [0.0, 0.998853],
                               rtol=0, atol=1e-6)
    np.testing.assert_allclose(res.measure.weights, [0.0021, 0.9979],
                               rtol=0, atol=1e-4)
    assert res.measure.q_hat < parisi.Q_TOP


@pytest.mark.parametrize("m", [1, 2, 3])
def test_segment_tail_matches_its_series(m):
    # sum_{n >= m} r^(n-m)/n: the series below the cut at r = 0.1, the
    # closed form above it, against the series summed exactly; the array
    # form agrees entry by entry. Just above the cut the closed form
    # cancels to about 3e-14 relative at m = 3, which sets both tolerances
    r = np.concatenate([[0.0, 1e-12, 1e-3], np.nextafter(0.1, [0.0, 1.0]),
                        np.linspace(0.11, 0.5, 40)])
    want = [math.fsum(x ** (n - m) / n for n in range(m, m + 400))
            for x in r.tolist()]
    got = [parisi._tail(x, m) for x in r.tolist()]
    np.testing.assert_allclose(got, want, rtol=4e-14, atol=0)
    np.testing.assert_allclose(parisi._tail_array(r, m), got, rtol=4e-14,
                               atol=0)


def test_minimize_budget_exhaustion_returns_best_iterate(monkeypatch):
    # at MixtureFn(3), beta = 5 the nonmonotone line search accepts a third
    # iterate worse than the second, so returning the last iterate fails.
    # The accepted values are read off the line search's memory of them, so
    # a rejected trial, which also calls value_grad, is never compared
    accepted = []

    class RecordingDeque(deque):
        def __init__(self, values, maxlen):
            super().__init__(values, maxlen)
            accepted.extend(values)

        def append(self, f):
            super().append(f)
            accepted.append(f)

    monkeypatch.setattr(parisi, "MAX_ITER", 3)
    monkeypatch.setattr(parisi, "deque", RecordingDeque)
    res = parisi._grid_solve(MixtureFn(3), 5.0, make_grid(512))
    assert not res.converged
    assert res.iterations == 3
    assert len(accepted) == 4  # the start and one per iteration
    assert res.value == min(accepted)
    assert min(accepted) < accepted[-1]  # the last iterate is not the best


def test_minimize_window_scan_iteration_budget(monkeypatch):
    # counts, not time. The panel is 48 points with 1 - q geometric from
    # 0.0099 down to 0.05/128, on which the reference counts were taken. At
    # beta = 0.95 beta_c the accelerated projected gradient took 3140
    # iterations and 7072 objective evaluations (value + value_grad calls);
    # the spectral projected gradient takes 2865 iterations and 4156
    # value_grad calls, one per line-search trial. Its 1RSB-like points need
    # as many iterations as before or more, so the iteration bound is loose;
    # a solver back on slow steps fails both bounds. A kernel change that
    # keeps every floating-point operation keeps both totals exactly, over
    # the 48 points of a whole scan. beta is pinned to the float the counts
    # were taken at, 0.95 beta_c(128): a last-bit move of beta_c moves them
    evaluations = []
    value_grad = parisi._CsProblem.value_grad

    def counted(self, x):
        evaluations.append(1)
        return value_grad(self, x)

    monkeypatch.setattr(parisi._CsProblem, "value_grad", counted)
    beta = 0.95 * 2.5820947408612396
    panel = 1.0 - np.exp(np.linspace(math.log(0.0099), math.log(0.05 / 128),
                                     48))
    iterations = sum(parisi._grid_solve(band_mixture(128, q), beta,
                                        make_grid(512)).iterations
                     for q in panel)
    assert iterations <= 0.95 * 3140
    assert len(evaluations) <= 0.75 * 7072
    assert iterations == 2865
    assert len(evaluations) == 4156


def test_minimize_rs_phase():
    res = minimize_cs(MixtureFn(3), 0.8)
    assert res.converged
    assert res.value == pytest.approx(0.32, abs=1e-6)
    # minimizer is delta_0
    assert res.measure.locations[0] == 0.0
    assert res.measure.weights[0] > 1.0 - 1e-8


def test_minimize_dominated_by_single_atoms():
    for xi, beta in [(MixtureFn(3), 1.5), (band_mixture(3, 0.5), 1.0)]:
        res = minimize_cs(xi, beta)
        ts = np.linspace(0.0, 0.99, 200)
        rs_min = min(rs_value(float(t), xi, beta) for t in ts)
        assert res.value <= rs_min + 1e-9


def two_atom_value(params, xi, beta):
    """Independent oracle: closed-form functional on x delta_0 +
    (1 - x) delta_q1, the known minimizer family for pure models in the
    low-temperature phase."""
    x, q1 = params
    if not (0.0 < x < 1.0 and 0.0 < q1 < 1.0):
        return np.inf
    from pspinlab.mixtures import evaluate

    first = beta * beta * (x * evaluate(xi, q1)
                           + evaluate(xi, 1.0) - evaluate(xi, q1))
    integ = np.log((1 - q1 + x * q1) / (1 - q1)) / x
    return 0.5 * (first + integ + np.log(1 - q1))


def test_minimize_matches_two_atom_oracle_in_rsb_phase():
    # the atomic solve reaches the oracle's minimum and its minimizer: the
    # atom at 0 with weight x, and the atom at q1
    from scipy.optimize import minimize as sp_minimize

    for p, beta in [(3, 1.5), (4, 2.0)]:
        xi = MixtureFn(p)
        best = None
        for x0 in (0.1, 0.4, 0.8):
            for q0 in (0.5, 0.8, 0.95):
                r = sp_minimize(two_atom_value, [x0, q0], args=(xi, beta),
                                method="Nelder-Mead",
                                options=dict(xatol=1e-13, fatol=1e-15,
                                             maxiter=8000))
                if best is None or r.fun < best.fun:
                    best = r
        (x, q1), value = best.x, float(best.fun)
        res = minimize_cs(xi, beta, 1024)
        assert res.converged
        assert abs(res.value - value) <= 1e-9
        np.testing.assert_allclose(res.measure.locations, [0.0, q1],
                                   rtol=0, atol=1e-6)
        np.testing.assert_allclose(res.measure.weights, [x, 1.0 - x],
                                   rtol=0, atol=1e-6)


def test_minimize_grid_refinement():
    v1 = parisi._grid_solve(MixtureFn(3), 1.3, make_grid(512)).value
    v2 = parisi._grid_solve(MixtureFn(3), 1.3, make_grid(1024)).value
    assert abs(v1 - v2) < 1e-6


def test_minimizer_expectation_cases():
    delta0 = ParisiMeasure(0.0, 1.0)
    assert delta0.expectation(lambda t: np.ones_like(t)) \
        == pytest.approx(1.0, abs=1e-15)
    assert delta0.expectation(lambda t: 1.0) \
        == pytest.approx(1.0, abs=1e-15)  # scalar-returning g
    assert delta0.expectation(lambda t: t * 7.0 + 2.0) \
        == pytest.approx(2.0, abs=1e-15)  # delta_0: g(0)
    # single atom at a grid node
    node = float(make_grid(64)[40])
    assert ParisiMeasure(node, 1.0).expectation(lambda t: t) \
        == pytest.approx(node, abs=1e-15)
    two = ParisiMeasure([0.2, 0.6], [0.25, 0.75])
    assert two.expectation(lambda t: t) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("xi, beta", [
    (MixtureFn(3), 0.8),
    (MixtureFn(3), 1.5),
    (band_mixture(128, 0.9901), 2.45299),  # 1RSB-like window point
])
def test_minimizer_measure_reproduces_value(xi, beta):
    # the returned atoms, fed back through the closed form, give the
    # solver's value: nothing of the grid solution is lost in the measure
    res = minimize_cs(xi, beta)
    assert res.converged
    assert res.measure.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert cs_functional(res.measure, xi, beta, q_top=parisi.Q_TOP) \
        == pytest.approx(res.value, abs=1e-12)


def test_truncation_warning_when_support_reaches_the_endpoint():
    # at beta = 1e4 the p = 3 minimizer needs support above the fixed
    # endpoint (at beta = 300 it still lies below it, at q_hat = 0.99891)
    with pytest.warns(TruncationWarning, match="endpoint"):
        res = minimize_cs(MixtureFn(3), 1e4, 64)
    assert res.converged
    assert res.measure.q_hat == make_grid(64)[-1]  # the warned-of atom


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0])
def test_beta_rule_rejects_before_any_solve(monkeypatch, beta):
    def no_solve(*args, **kwargs):
        raise RuntimeError("solve started")

    monkeypatch.setattr(parisi, "_CsProblem", no_solve)
    monkeypatch.setattr(parisi, "_atomic_solve", no_solve)
    for call in (lambda: minimize_cs(MixtureFn(3), beta),
                 lambda: cs_functional(ParisiMeasure(0.0, 1.0), MixtureFn(3),
                                       beta),
                 lambda: fp_value(3, beta, 0.5)):
        with pytest.raises(ValueError, match="beta"):
            call()


def test_measure_validation():
    with pytest.raises(ValueError):
        ParisiMeasure([0.5, 0.3], [0.5, 0.5])  # not increasing
    with pytest.raises(ValueError):
        ParisiMeasure([0.5, 1.0], [0.5, 0.5])  # atom at 1
    with pytest.raises(ValueError):
        ParisiMeasure([0.5], [0.9])  # mass != 1
    with pytest.raises(ValueError):
        ParisiMeasure([0.2, 0.5], [1.2, -0.2])  # negative weight
    with pytest.raises(ValueError, match="matching 1-d vectors"):
        ParisiMeasure([0.2, 0.5], [1.0])  # shapes differ


@pytest.mark.parametrize("q_top", [0.3, 1.0, 1.5])
def test_cs_functional_q_top_outside_range_rejected(q_top):
    # the endpoint extends the measure's top atom, 0.5, and stays below 1
    zeta = ParisiMeasure([0.2, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"q_top must lie in \[q_hat, 1\)"):
        cs_functional(zeta, MixtureFn(3), 1.0, q_top=q_top)


def test_make_grid_shape():
    g = make_grid(512)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(parisi.Q_TOP, abs=1e-15)
    assert np.all(np.diff(g) > 0)
    # refinement accumulates near 1
    assert np.diff(g)[-1] < np.diff(g)[0]
