import math

import numpy as np
import pytest

from pspinlab import franz_parisi as fp
from pspinlab.errors import ScanError
from pspinlab.mixtures import band_mixture
from pspinlab.parisi import minimize_cs, rs_value


def test_rs_bound_values():
    assert fp.fp_rs_bound(3, 1.2, 0.0) == pytest.approx(1.2 ** 2 / 2, abs=1e-15)
    hand = 0.5 * 1.125 + 0.25 + 0.5 * math.log(0.5)
    assert fp.fp_rs_bound(3, 1.0, 0.5) == pytest.approx(hand, abs=1e-12)
    assert fp.fp_rs_bound(3, 1.0, 0.5) == pytest.approx(0.4659, abs=1e-4)
    with pytest.raises(ValueError):
        fp.fp_rs_bound(3, 1.0, 1.0)


def test_rs_bound_substitution_identity():
    # the bound is the single-atom value at t = q/(1+q) plus the tilt terms
    rng = np.random.default_rng(2)
    for _ in range(25):
        p = int(rng.integers(2, 12))
        beta = float(rng.uniform(0.2, 2.5))
        q = float(rng.uniform(0.0, 0.95))
        lhs = fp.fp_rs_bound(p, beta, q)
        rhs = (rs_value(q / (1 + q), band_mixture(p, q) if q else
                        band_mixture(p, 0.0), beta)
               + beta * beta * q ** p + 0.5 * math.log1p(-q * q))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_value_at_zero_is_annealed():
    pt = fp.fp_value(3, 1.0, 0.0)
    assert pt.value == pytest.approx(0.5, abs=1e-5)
    assert pt.derivative == 0.0
    assert pt.band_free_energy == pytest.approx(0.5, abs=1e-5)


def test_value_below_annealed_and_rs_bound():
    pt = fp.fp_value(3, 1.0, 0.5)
    assert pt.value < 0.5
    assert pt.value <= pt.rs_bound + 1e-8
    assert pt.converged


def test_value_diverges_near_one():
    pt = fp.fp_value(3, 1.0, 1.0 - 1e-6)
    assert pt.value < -4.0  # log(1 - q^2)/2 dominates


def test_envelope_matches_closed_form_at_delta_zero():
    # small q keeps the band minimizer at delta_0, where the expectation
    # term reduces to q^{2p-2}
    p, beta, q = 3, 0.5, 0.2
    res = minimize_cs(band_mixture(p, q), beta)
    assert res.measure.locations[0] == 0.0
    assert res.measure.weights[0] > 1.0 - 1e-9
    got = fp.fp_value(p, beta, q).derivative
    b2 = beta * beta
    closed = -b2 * p * q ** (2 * p - 1) + b2 * p * q ** (p - 1) - q / (1 - q * q)
    assert got == pytest.approx(closed, abs=1e-12)
    assert fp.fp_dbeta(p, beta, q) == pytest.approx(
        beta * (1.0 - q ** (2 * p)), abs=1e-12)


def test_derivative_matches_finite_differences():
    h = 1e-4
    for p, beta, q, tol in [(3, 1.0, 0.5, 1e-3), (4, 1.2, 0.6, 1e-3)]:
        d = fp.fp_value(p, beta, q).derivative
        f = lambda qq: fp.fp_value(p, beta, qq).value
        d_fd = (f(q + h) - f(q - h)) / (2 * h)
        assert abs(d - d_fd) / max(abs(d_fd), 1e-12) < tol


def test_dbeta_matches_finite_differences():
    p, beta, q = 3, 1.0, 0.5
    h = 1e-5
    vp = minimize_cs(band_mixture(p, q), beta + h).value
    vm = minimize_cs(band_mixture(p, q), beta - h).value
    fd = (vp - vm) / (2 * h)
    assert fp.fp_dbeta(p, beta, q) == pytest.approx(fd, rel=1e-3)


def test_dbeta_uniformly_bounded_in_half_band():
    # temperature derivative of the band free energy stays O(1) on
    # [1 - 1/(2p), 1) even as p grows
    for p in (16, 64):
        qs = 1.0 - np.exp(np.linspace(math.log(0.5 / p), math.log(0.02 / p), 10))
        vals = [fp.fp_dbeta(p, 2.0, float(q)) for q in qs]
        assert max(vals) < 1.0


def test_derivative_positive_near_one_for_large_p():
    p = 512
    beta = 0.9 * 2.8788  # just below the p = 512 static boundary
    q = 1.0 - 0.3 / p
    assert fp.fp_value(p, beta, q).derivative > 0.0


def test_symmetry_in_q():
    even = fp.fp_value(4, 1.2, 0.3).value
    even_neg = fp.fp_value(4, 1.2, -0.3).value
    assert even == pytest.approx(even_neg, abs=1e-9)
    odd_pos = fp.fp_value(3, 1.0, 0.4).value
    odd_neg = fp.fp_value(3, 1.0, -0.4).value
    assert odd_pos > odd_neg


def test_no_window_in_deep_rs():
    win = fp.find_window(3, 0.5, fp.window_grid(3, n=32))
    assert not win.passes_fp
    assert win.n_points == 0
    assert math.isnan(win.q_under) and math.isnan(win.q_bar)


def test_window_grids():
    g = fp.window_grid(512, n=48)
    assert len(g) == 48
    assert np.all(np.diff(g) > 0)
    assert g[0] > 0.99 and g[-1] < 1.0
    hb = fp.half_band_grid(512, n=32)
    assert hb[0] == pytest.approx(1.0 - 0.5 / 512, abs=1e-12)
    assert np.all(hb >= 1.0 - 1.0 / (2 * 512))
    with pytest.raises(ValueError):
        fp.half_band_grid(10)


def test_find_window_validates_grid():
    with pytest.raises(ValueError):
        fp.find_window(3, 0.5, np.linspace(0.991, 0.999, 8))  # too few
    with pytest.raises(ValueError):
        fp.find_window(3, 0.5, np.linspace(0.5, 0.99, 40))  # outside range


def test_find_window_collects_failed_points(monkeypatch):
    grid = fp.window_grid(100, n=32)

    class Point:
        def __init__(self, q):
            self.q = q
            self.value = 0.0
            self.kkt_residual = 1e-3
            self.converged = self.q < grid[5]  # fail beyond the 5th point

    monkeypatch.setattr(fp, "fp_value",
                        lambda p, beta, q, grid_spec: Point(q))
    with pytest.raises(ScanError) as err:
        fp.find_window(100, 1.0, grid)
    assert len(err.value.failures) == len(grid) - 5
    assert len(err.value.partial) == len(grid)


def test_window_detection_on_synthetic_values(monkeypatch):
    # feed a synthetic potential curve through fp_value to isolate the
    # run detection: rise between indices 10 and 20, fall elsewhere
    grid = fp.window_grid(100, n=40)
    values = -np.abs(np.arange(40) - 20.0)

    class Point:
        def __init__(self, q, value):
            self.q = q
            self.value = value
            self.kkt_residual = 1e-12
            self.converged = True

    calls = iter(values)

    def fake_fp_value(p, beta, q, grid_spec):
        return Point(q, float(next(calls)))

    monkeypatch.setattr(fp, "fp_value", fake_fp_value)
    win = fp.find_window(100, 1.0, grid)
    assert win.n_points == 21
    assert win.q_under == pytest.approx(grid[0])
    assert win.q_bar == pytest.approx(grid[20])
