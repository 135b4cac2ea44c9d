import numpy as np
import pytest

from pspinlab import parisi
from pspinlab.errors import TruncationWarning
from pspinlab.franz_parisi import half_band_grid, window_grid
from pspinlab.mixtures import band_mixture, evaluate, pure
from pspinlab.parisi import (DEFAULT_GRID, ParisiMeasure, cs_functional,
                             make_grid, minimize_cs, rs_value)
from pspinlab.phase import beta_c


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
    assert cs_functional(ParisiMeasure.dirac(0.0), pure(3), 1.0) \
        == pytest.approx(0.5, abs=1e-15)
    assert cs_functional(ParisiMeasure.dirac(0.3), pure(3), 1.0) \
        == pytest.approx(0.5224482, abs=1e-7)


def test_single_atom_equals_rs_value():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = int(rng.integers(2, 9))
        beta = float(rng.uniform(0.1, 3.0))
        t = float(rng.uniform(0.0, 0.98))
        got = cs_functional(ParisiMeasure.dirac(t), pure(p), beta)
        assert abs(got - rs_value(t, pure(p), beta)) < 1e-12


def test_rs_value_edges():
    xi = band_mixture(4, 0.3)
    assert rs_value(0.0, xi, 1.7) == pytest.approx(
        1.7 ** 2 * evaluate(xi, 1.0) / 2.0, abs=1e-14)
    assert rs_value(1.0 - 1e-12, pure(3), 1.0) > 1e10  # pole at t -> 1
    with pytest.raises(ValueError):
        rs_value(1.0, pure(3), 1.0)


def test_truncation_identity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        zeta = random_measure(rng, q_top=0.9)
        beta = float(rng.uniform(0.2, 2.5))
        xi = pure(int(rng.integers(2, 7)))
        base = cs_functional(zeta, xi, beta)
        extended = cs_functional(zeta, xi, beta,
                                 q_top=float(rng.uniform(zeta.q_hat, 0.999)))
        assert abs(base - extended) < 1e-12


def test_convexity_probe():
    rng = np.random.default_rng(21)
    xi = pure(3)
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
        xi = pure(int(rng.integers(2, 6)))
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
    grid = make_grid(32, 0.99)
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


@pytest.mark.parametrize("u", [
    np.concatenate([[0.0, 1e-7],
                    np.nextafter(1e-6, [0.0, 1.0]), [1e-6],
                    np.nextafter(1e-4, [0.0, 1.0]), [1e-4],
                    np.logspace(-3, 1, 60)]),
    np.logspace(-3, 1, 40),  # no series branch taken
], ids=["across-series-cuts", "closed-form-only"])
def test_logratio_matches_masked_reference_bit_for_bit(u):
    f, df = parisi._logratio(u, slope=True)
    np.testing.assert_array_equal(f, _f_logratio_reference(u))
    np.testing.assert_array_equal(df, _df_logratio_reference(u))
    np.testing.assert_array_equal(parisi._logratio(u), f)


def test_value_equals_value_grad_value_exactly():
    rng = np.random.default_rng(31)
    grid = make_grid(128)
    prob = parisi._CsProblem(band_mixture(64, 0.995), 2.0, grid)
    m = len(grid) - 1
    for n_zero in (0, 1, 40, m - 1):
        x = np.sort(rng.uniform(0.0, 1.0, m))
        x[:n_zero] = 0.0
        assert prob.value(x) == prob.value_grad(x)[0]


def test_minimize_slow_window_point_reproduces_reference_iterates():
    # a 1RSB-like window-grid point (p = 128, beta = 0.95 beta_c, the first
    # point of window_grid(128)); the reference iteration count and value
    # come from the spectral projected gradient loop, so any drift in the
    # iterates shows up here. The accelerated projected gradient it replaced
    # took 193 iterations to 2.1403499758487587.
    res = minimize_cs(band_mixture(128, 0.9901), 2.4529900038181776)
    assert res.converged
    assert res.iterations == 144
    assert res.value == 2.1403499756977853
    assert abs(res.value - 2.1403499758487587) <= 1e-9
    assert res.iterations < 193


# (label, mixture, beta, value of the accelerated projected gradient solver
# that minimize_cs used before the spectral projected gradient, at m = 512)
APG_PANEL = [
    ("slow p=128", lambda: band_mixture(128, 0.9901), 2.4529900038181776,
     2.1403499758487587),
    ("p=1024 1RSB-like", lambda: band_mixture(1024, window_grid(1024, 48)[10]),
     2.8622855123888167, 3.102055785055767),
    ("p=1024 RS-like", lambda: band_mixture(1024, window_grid(1024, 48)[30]),
     2.8622855123888167, 1.0723172482097896),
    ("p=2048 half band", lambda: band_mixture(2048, half_band_grid(2048, 32)[16]),
     2.9828216675239876, 0.5512922592487417),
    ("pure p=3", lambda: pure(3), 1.5, 1.0973230045906819),
]


@pytest.mark.parametrize("label, make_xi, beta, reference", APG_PANEL,
                         ids=[row[0] for row in APG_PANEL])
def test_minimize_matches_previous_solver_values(label, make_xi, beta,
                                                 reference):
    # window points at beta = 0.95 beta_c; a faster solver must reach the
    # same minimum: the measured spread is below 2e-10
    res = minimize_cs(make_xi(), beta)
    assert res.converged
    assert res.kkt_residual < parisi.TOL_KKT
    assert abs(res.value - reference) <= 5e-8


def test_minimize_budget_exhaustion_returns_best_iterate(monkeypatch):
    # at pure(3), beta = 5 the nonmonotone line search accepts a third
    # iterate worse than the second, so returning the last iterate fails
    seen = []
    value_grad = parisi._CsProblem.value_grad

    def spy(self, x):
        f, g = value_grad(self, x)
        seen.append(f)
        return f, g

    monkeypatch.setattr(parisi, "MAX_ITER", 3)
    monkeypatch.setattr(parisi._CsProblem, "value_grad", spy)
    res = minimize_cs(pure(3), 5.0)
    assert not res.converged
    assert res.iterations == 3
    assert res.value == min(seen)
    assert min(seen) < seen[-2]  # the last iterate is not the best


def test_minimize_window_scan_iteration_budget(monkeypatch):
    # counts, not time. Over window_grid(128, 48) at beta = 0.95 beta_c the
    # accelerated projected gradient took 3140 iterations and 7072 objective
    # evaluations (value + value_grad calls); the spectral projected
    # gradient takes 2841 and 4524. Its 1RSB-like points need as many
    # iterations as before or more, so the iteration bound is loose; a
    # solver back on slow steps fails both bounds.
    evaluations = []
    for name in ("value", "value_grad"):
        method = getattr(parisi._CsProblem, name)

        def counted(self, x, _method=method):
            evaluations.append(1)
            return _method(self, x)

        monkeypatch.setattr(parisi._CsProblem, name, counted)
    beta = 0.95 * beta_c(128)[0]
    iterations = sum(minimize_cs(band_mixture(128, q), beta).iterations
                     for q in window_grid(128, 48))
    assert iterations <= 0.95 * 3140
    assert len(evaluations) <= 0.75 * 7072


def test_minimize_rs_phase():
    res = minimize_cs(pure(3), 0.8, (512, 0.995))
    assert res.converged
    assert res.value == pytest.approx(0.32, abs=1e-6)
    # minimizer is delta_0
    assert res.measure.locations[0] == 0.0
    assert res.measure.weights[0] > 1.0 - 1e-8


def test_minimize_dominated_by_single_atoms():
    for xi, beta in [(pure(3), 1.5), (band_mixture(3, 0.5), 1.0)]:
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
    from scipy.optimize import minimize as sp_minimize

    for p, beta in [(3, 1.5), (4, 2.0)]:
        xi = pure(p)
        best = np.inf
        for x0 in (0.1, 0.4, 0.8):
            for q0 in (0.5, 0.8, 0.95):
                r = sp_minimize(two_atom_value, [x0, q0], args=(xi, beta),
                                method="Nelder-Mead",
                                options=dict(xatol=1e-13, fatol=1e-15,
                                             maxiter=8000))
                best = min(best, float(r.fun))
        res = minimize_cs(xi, beta, (1024, 1 - 1e-4))
        assert res.converged
        assert best - 1e-9 <= res.value <= best + 5e-6


def test_minimize_grid_refinement():
    v1 = minimize_cs(pure(3), 1.3, (512, 1 - 1e-4)).value
    v2 = minimize_cs(pure(3), 1.3, (1024, 1 - 1e-4)).value
    assert abs(v1 - v2) < 1e-6


def test_minimizer_expectation_cases():
    delta0 = ParisiMeasure.dirac(0.0)
    assert delta0.expectation(lambda t: np.ones_like(t)) \
        == pytest.approx(1.0, abs=1e-15)
    assert delta0.expectation(lambda t: 1.0) \
        == pytest.approx(1.0, abs=1e-15)  # scalar-returning g
    assert delta0.expectation(lambda t: t * 7.0 + 2.0) \
        == pytest.approx(2.0, abs=1e-15)  # delta_0: g(0)
    # single atom at a grid node
    node = float(make_grid(64, 0.99)[40])
    assert ParisiMeasure.dirac(node).expectation(lambda t: t) \
        == pytest.approx(node, abs=1e-15)
    two = ParisiMeasure([0.2, 0.6], [0.25, 0.75])
    assert two.expectation(lambda t: t) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("xi, beta", [
    (pure(3), 0.8),
    (pure(3), 1.5),
    (band_mixture(128, 0.9901), 2.45299),  # 1RSB-like window point
])
def test_minimizer_measure_reproduces_value(xi, beta):
    # the returned atoms, fed back through the closed form, give the
    # solver's value: nothing of the grid solution is lost in the measure
    q_max = DEFAULT_GRID[1]
    res = minimize_cs(xi, beta)
    assert res.converged
    assert res.measure.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert cs_functional(res.measure, xi, beta, q_top=q_max) \
        == pytest.approx(res.value, abs=1e-12)


def test_truncation_warning_when_q_max_too_small():
    with pytest.warns(TruncationWarning):
        res = minimize_cs(pure(3), 1.5, (64, 0.5))
    assert res.measure.q_hat == 0.5  # the warned-of atom at q_max


def test_corrupted_measure_trips_feasibility_guard():
    from pspinlab.errors import FeasibilityError

    zeta = ParisiMeasure(np.array([0.2, 0.5]), np.array([0.5, 0.5]))
    object.__setattr__(zeta, "weights", np.array([-2.0, 3.0]))  # bypass checks
    with pytest.raises(FeasibilityError):
        cs_functional(zeta, pure(3), 1.0)


def test_measure_validation():
    with pytest.raises(ValueError):
        ParisiMeasure([0.5, 0.3], [0.5, 0.5])  # not increasing
    with pytest.raises(ValueError):
        ParisiMeasure([0.5, 1.0], [0.5, 0.5])  # atom at 1
    with pytest.raises(ValueError):
        ParisiMeasure([0.5], [0.9])  # mass != 1
    with pytest.raises(ValueError):
        ParisiMeasure([0.2, 0.5], [1.2, -0.2])  # negative weight


def test_make_grid_shape():
    g = make_grid(512, 1 - 1e-4)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(1 - 1e-4, abs=1e-15)
    assert np.all(np.diff(g) > 0)
    # refinement accumulates near 1
    assert np.diff(g)[-1] < np.diff(g)[0]
