import dataclasses
import math

import numpy as np
import pytest

from pspinlab import franz_parisi as fp
from pspinlab.errors import ScanError
from pspinlab.mixtures import band_mixture
from pspinlab.parisi import Q_TOP, ParisiMeasure, minimize_cs, rs_value
from pspinlab.phase import beta_c, beta_d_pure


def test_rs_bound_values():
    assert fp.fp_rs_bound(3, 1.2, 0.0) == pytest.approx(1.2 ** 2 / 2, abs=1e-15)
    hand = 0.5 * 1.125 + 0.25 + 0.5 * math.log(0.5)
    assert fp.fp_rs_bound(3, 1.0, 0.5) == pytest.approx(hand, abs=1e-12)
    assert fp.fp_rs_bound(3, 1.0, 0.5) == pytest.approx(0.4659, abs=1e-4)
    for q in (1.0, -1.0):
        with pytest.raises(ValueError):
            fp.fp_rs_bound(3, 1.0, q)


def test_rs_bound_substitution_identity():
    # the bound is the single-atom value at t = |q|/(1+|q|) plus the tilt
    # terms; xi_q depends on q^2 only, so the same atom serves q < 0
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = int(rng.integers(2, 12))
        beta = float(rng.uniform(0.2, 2.5))
        q = float(rng.uniform(-0.95, 0.95))
        lhs = fp.fp_rs_bound(p, beta, q)
        rhs = (rs_value(abs(q) / (1 + abs(q)), band_mixture(p, q), beta)
               + beta * beta * q ** p + 0.5 * math.log1p(-q * q))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_rs_bound_keeps_the_sign_of_the_tilt_at_negative_q():
    # at odd p the tilt beta^2 q^p is negative for q < 0; a bound taken at
    # |q| lay 0.254 above the potential at q = -0.5
    pt = fp.fp_value(3, 1.0, -0.5)
    assert pt.value <= pt.rs_bound < pt.value + 0.01
    assert pt.rs_bound == pytest.approx(0.2159, abs=1e-4)
    assert fp.fp_rs_bound(3, 1.0, -0.9) == pytest.approx(-1.2948, abs=1e-4)
    for p in (2, 4, 6):  # even p: the bound is even in q
        for q in (0.3, 0.7, 0.9):
            assert fp.fp_rs_bound(p, 1.3, -q) == fp.fp_rs_bound(p, 1.3, q)


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


def test_envelope_matches_closed_form_at_one_atom():
    # small q keeps the band minimizer at one atom t, the root of the
    # plateau equation beta^2 xi_q'(t) (1 - t)^2 = t next to 0: xi_q'(0) > 0
    # at q > 0, so the atom sits above 0 (here at t = 0.00122). There the
    # expectation term is (1 - t) xi_q'(t), and the band free energy is the
    # RS value at t
    p, beta, q = 3, 0.5, 0.2
    b2, q2 = beta * beta, q * q
    res = minimize_cs(band_mixture(p, q), beta)
    [t] = res.measure.locations.tolist()
    assert res.measure.weights.tolist() == [1.0]
    base = q2 + (1.0 - q2) * t
    dxi = p * (1.0 - q2) * base ** (p - 1)
    assert b2 * dxi * (1.0 - t) ** 2 == pytest.approx(t, abs=1e-12)
    assert 0.0012 < t < 0.0013
    got = fp.fp_value(p, beta, q).derivative
    closed = (-b2 * q * (1.0 - t) * dxi / (1.0 - q2)
              + b2 * p * q ** (p - 1) - q / (1.0 - q2))
    assert got == pytest.approx(closed, abs=1e-12)
    assert fp.fp_value(p, beta, q).band_free_energy == pytest.approx(
        0.5 * (b2 * (1.0 - base ** p) + t / (1.0 - t) + math.log1p(-t)),
        abs=1e-12)


@pytest.mark.parametrize("p", [3, 4, 6, 20, 128, 1024])
def test_potential_starts_to_rise_at_the_dynamical_boundary(p):
    # at beta_d(p) the derivative vanishes at q_d = (p - 2)/(p - 1), and
    # its sign there follows beta: negative just below beta_d, positive
    # just above it
    beta_d, q_d = beta_d_pure(p), (p - 2) / (p - 1)
    assert abs(fp.fp_value(p, beta_d, q_d).derivative) <= 1e-8
    assert fp.fp_value(p, 0.999 * beta_d, q_d).derivative < 0.0
    assert fp.fp_value(p, 1.001 * beta_d, q_d).derivative > 0.0


def test_derivative_matches_finite_differences():
    h = 1e-4
    for p, beta, q, tol in [(3, 1.0, 0.5, 1e-3), (4, 1.2, 0.6, 1e-3)]:
        d = fp.fp_value(p, beta, q).derivative
        f = lambda qq: fp.fp_value(p, beta, qq).value
        d_fd = (f(q + h) - f(q - h)) / (2 * h)
        assert abs(d - d_fd) / max(abs(d_fd), 1e-12) < tol


def test_dbeta_uniformly_bounded_in_half_band():
    # temperature derivative of the band free energy, by central
    # differences, stays O(1) on [1 - 1/(2p), 1) even as p grows
    beta, h = 2.0, 1e-4
    for p in (16, 64):
        qs = 1.0 - np.exp(np.linspace(math.log(0.5 / p), math.log(0.02 / p), 10))
        vals = [(minimize_cs(band_mixture(p, float(q)), beta + h).value
                 - minimize_cs(band_mixture(p, float(q)), beta - h).value)
                / (2 * h) for q in qs]
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
    assert win.n_points == 0
    assert math.isnan(win.q_under) and math.isnan(win.q_bar)


def test_small_p_window_on_the_v_grid():
    # the grid reaches down to q = 1/2 at p = 6, where the window lies
    # (q in [0.66, 0.85])
    beta = 0.9 * beta_c(6)[0]
    win = fp.find_window(6, beta, fp.window_grid(6, n=32))
    assert win.exists
    assert 0.5 < win.q_under < win.q_bar < 0.99


def test_window_grids():
    g = fp.window_grid(512, n=48)
    assert len(g) == 48
    assert np.all(np.diff(g) > 0)
    assert g[0] > 0.99 and g[-1] < 1.0
    hb = fp.half_band_grid(512, n=32)
    assert hb[0] == pytest.approx(1.0 - 0.5 / 512, abs=1e-12)
    assert np.all(hb >= 1.0 - 1.0 / (2 * 512))
    # one rule for every p: the half band at small p, and the q >= 1/2
    # guard where v_max / p would reach below q = 1/2
    hb = fp.half_band_grid(10)
    assert np.all(hb >= 1.0 - 1.0 / 20) and np.all(hb < 1.0)
    g = fp.window_grid(3)
    assert g[0] == pytest.approx(0.5, abs=1e-15)
    assert np.all(g >= 0.5) and np.all(g < 1.0)


@pytest.mark.parametrize("make", [lambda: fp.window_grid(3.5),
                                  lambda: fp.half_band_grid(60.5)],
                         ids=["window_grid", "half_band_grid"])
def test_window_grids_take_the_phase_p_rule(make):
    # beta_c, beta_d_pure and band_mixture all reject a non-integer p
    with pytest.raises(ValueError, match="integer"):
        make()


def test_find_window_validates_grid():
    with pytest.raises(ValueError):
        fp.find_window(3, 0.5, np.linspace(0.991, 0.999, 8))  # too few
    with pytest.raises(ValueError):
        fp.find_window(3, 0.5, np.linspace(0.5, 1.0, 40))  # reaches 1
    with pytest.raises(ValueError):
        fp.find_window(3, 0.5, np.linspace(0.0, 0.99, 40))  # reaches 0
    grid = np.linspace(0.5, 0.9, 40)
    grid[[10, 11]] = grid[[11, 10]]  # one step down
    with pytest.raises(ValueError, match="strictly increasing"):
        fp.find_window(3, 0.5, grid)
    with pytest.raises(ValueError, match="strictly increasing"):
        fp.find_window(3, 0.5, np.full(40, 0.7))  # no step up


def test_find_window_collects_failed_points(monkeypatch):
    grid = fp.window_grid(100, n=32)

    class Point:
        def __init__(self, q):
            self.q = q
            self.value = 0.0
            self.gap = 1e-3
            self.converged = self.q < grid[5]  # fail beyond the 5th point
            self.measure = ParisiMeasure(0.5, 1.0)

    monkeypatch.setattr(fp, "fp_value",
                        lambda p, beta, q, start=None: Point(q))
    with pytest.raises(ScanError) as err:
        fp.find_window(100, 1.0, grid)
    # the message, which reaches a shatter-scan row's error column, names
    # the count and the first failed point
    assert str(err.value) == (f"{len(grid) - 5} of {len(grid)} window grid "
                              f"points did not converge, first at q = "
                              f"{float(grid[5])!r}")


def _window_of(values, gap=1e-12, q=None):
    values = np.asarray(values, dtype=float)
    if q is None:
        q = np.linspace(0.5, 0.9, len(values))
    return fp._window(q, values, np.broadcast_to(gap, values.shape))


def test_window_detection_on_synthetic_values():
    # rise from index 0 to 20, fall after it
    grid = fp.window_grid(100, n=40)
    assert _window_of(-np.abs(np.arange(40) - 20.0), q=grid) == (
        grid[0], grid[20], 21)


def test_window_rule_cases():
    q = np.linspace(0.5, 0.9, 8)
    # a flat step ends a run: points 0-4 rise, 4 -> 5 is flat
    assert _window_of([0, 1, 2, 3, 4, 4, 5, 6]) == (q[0], q[4], 5)
    # a step of exactly the sum of its two points' gaps (0.5 + 0.75) ends a
    # run; one just above it does not, and a larger gap elsewhere in the
    # scan does not raise the bar
    gap = np.full(8, 0.01)
    gap[[0, 1]] = 0.5, 0.75
    gap[5] = 1.9
    steps = np.array([1.25, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
    assert _window_of(np.r_[0.0, np.cumsum(steps)], gap) == (q[1], q[7], 7)
    steps[0] = np.nextafter(1.25, 2.0)
    assert _window_of(np.r_[0.0, np.cumsum(steps)], gap) == (q[0], q[7], 8)
    # of two equal longest runs the first is reported
    assert _window_of([0, 1, 2, 3, 0, 1, 2, 3]) == (q[0], q[3], 4)
    # a 2-point rise is no window
    under, bar, n = _window_of([0, 1, 0, 1, 0, 1, 0, 1])
    assert math.isnan(under) and math.isnan(bar) and n == 0


@pytest.mark.parametrize("p, n", [(6, 32), (20, 32), (128, 48), (1024, 48)])
def test_derivative_sign_agrees_with_the_window(p, n):
    # the scan's stored envelope derivatives tell the same story as its
    # values: positive inside the window, changing sign only next to its
    # edges, and elsewhere of the sign of the potential's grid steps
    win = fp.find_window(p, 0.9 * beta_c(p)[0], fp.window_grid(p, n))
    assert win.exists
    under, bar = np.searchsorted(win.q, [win.q_under, win.q_bar])
    assert (win.q[under], win.q[bar]) == (win.q_under, win.q_bar)
    d = win.derivative
    assert np.all(d[under + 1:bar] > 0)
    sign = np.sign(d)
    changes = np.flatnonzero(sign[:-1] != sign[1:])
    assert len(changes) == 2
    assert changes[0] in (under - 1, under) and changes[1] in (bar - 1, bar)
    steady = np.setdiff1d(np.arange(len(d) - 1), changes)
    assert np.array_equal(sign[steady], np.sign(np.diff(win.value))[steady])
    for arr in (win.value, win.rs_bound, win.gap):
        assert arr.shape == win.q.shape


# perfbench shatter's seed-1 beta fraction, round(uniform(0.85, 0.95), 4)
# from random.Random(1)
SHATTER_SEED_1_FRAC = 0.8634


@pytest.mark.parametrize("p", [128, 1024, 2048])
@pytest.mark.parametrize("grid", ["main", "half band"])
def test_chained_scan_agrees_with_cold_solves(p, grid):
    # each point of a scan starts from its neighbour's answer; solved cold
    # one by one, the points have the same values to their gaps and the
    # same window
    beta = SHATTER_SEED_1_FRAC * beta_c(p)[0]
    q = fp.window_grid(p, 48) if grid == "main" else fp.half_band_grid(p)
    win = fp.find_window(p, beta, q)
    cold = [fp.fp_value(p, beta, qi) for qi in q]
    value = np.array([pt.value for pt in cold])
    gap = np.array([pt.gap for pt in cold])
    assert all(pt.converged for pt in cold)
    assert np.all(np.abs(win.value - value)
                  <= np.maximum(win.gap, gap) + 1e-12)
    assert (win.q_under, win.q_bar, win.n_points) == fp._window(q, value, gap)


def _levels(measure):
    """A measure's locations, then its CDF levels between atoms."""
    w = measure.weights.tolist()
    return measure.locations.tolist() + [sum(w[:i + 1])
                                         for i in range(len(w) - 1)]


def test_scan_starts_from_predicted_measures(monkeypatch):
    # at beta = 0.9 beta_c(100) the minimizer has two atoms up to grid
    # point 12 and one from point 13 on. A scan's first point starts
    # cold, the next from the measure before it, then from the linear and
    # the quadratic extrapolation in the grid index of the last two and
    # three measures, or from the last measure where that is no measure
    # (at point 13, where the two atoms' paths would cross). A change of
    # atom count starts the chain afresh from the last measure, and a
    # point after one that did not converge (3) starts cold
    grid = fp.window_grid(100, n=32)
    fp_value = fp.fp_value
    starts, points = [], []

    def recorded(p, beta, q, start=None):
        pt = fp_value(p, beta, q, start=start)
        if q == grid[3]:
            pt = dataclasses.replace(pt, converged=False)
        starts.append(start)
        points.append(pt)
        return pt

    monkeypatch.setattr(fp, "fp_value", recorded)
    with pytest.raises(ScanError):
        fp.find_window(100, 0.9 * beta_c(100)[0], grid)
    counts = [pt.measure.locations.size for pt in points]
    assert counts == [2] * 13 + [1] * 19
    assert starts[0] is None and starts[4] is None
    # how many measures each start extrapolates from
    used = [0, 1, 2, 3, 0, 1, 2] + [3] * 7 + [1, 2] + [3] * 16
    invalid = []
    for i, n in enumerate(used):
        last = points[i - 1].measure
        if n < 2:
            assert starts[i] is (last if n else None)
            continue
        x = [_levels(pt.measure) for pt in points[i - n:i]]
        want = ([b + (b - a) for a, b in zip(*x)] if n == 2
                else [a + 3.0 * (c - b) for a, b, c in zip(*x)])
        k = counts[i - 1]
        try:
            ParisiMeasure(want[:k], np.diff([0.0, *want[k:], 1.0]))
        except ValueError:
            assert starts[i] is last
            invalid.append(i)
            continue
        assert starts[i].locations.tolist() == want[:k]
        np.testing.assert_allclose(_levels(starts[i])[k:], want[k:],
                                   rtol=0, atol=1e-15)
    assert invalid == [13]


def test_invalid_extrapolation_starts_from_the_last_measure():
    # an atom extrapolated to 1 or a level past 1 is no measure on [0, 1),
    # so the start is the last measure; steady atoms stay where they are
    rising = [ParisiMeasure(t, 1.0) for t in (0.4, 0.6, 0.8)]
    assert fp._predicted(rising) is rising[-1]
    assert fp._predicted(rising[:2]).locations.tolist() == pytest.approx(
        [0.8], abs=1e-15)
    heavier = [ParisiMeasure([0.0, 0.5], [w, 1.0 - w]) for w in (0.6, 0.9)]
    assert fp._predicted(heavier) is heavier[-1]
    steady = [ParisiMeasure([0.0, Q_TOP], [0.25, 0.75])] * 3
    assert fp._predicted(steady).locations.tolist() == [0.0, Q_TOP]
    assert fp._predicted(steady).weights.tolist() == [0.25, 0.75]
    assert fp._predicted([]) is None


@pytest.mark.parametrize("p", [128, 1024])
@pytest.mark.parametrize("frac", [0.85, 0.95])
def test_predicted_starts_certify_every_point(p, frac):
    # every chained point certifies (find_window raises otherwise), and
    # its value and the cold solve's lie within their summed gaps, plus
    # rounding: a gap that rounding puts below 0 reads 0, while values of
    # order 1 made of several terms differ by a few ulps (here up to
    # 1.8e-15, 8.9e-16 past the summed gaps)
    beta = frac * beta_c(p)[0]
    q = fp.window_grid(p, 48)
    win = fp.find_window(p, beta, q)
    cold = [fp.fp_value(p, beta, qi) for qi in q]
    assert all(pt.converged for pt in cold)
    assert np.all(np.abs(win.value - [pt.value for pt in cold])
                  <= win.gap + [pt.gap for pt in cold] + 1e-14)
