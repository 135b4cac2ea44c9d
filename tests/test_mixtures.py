import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from pspinlab.franz_parisi import half_band_grid, window_grid
from pspinlab.mixtures import MixtureFn, band_mixture, evaluate, pure
from pspinlab.parisi import make_grid


def _reference_coeffs(p, q):
    """Degree-k coefficient binom(p, k) q^{2(p-k)} (1 - q^2)^k of the band
    mixture, k = 1..p, assembled from log-binomials."""
    if q == 0.0:
        c = np.zeros(p)
        c[-1] = 1.0
        return c
    k = np.arange(1, p + 1)
    log_binom = gammaln(p + 1) - gammaln(k + 1) - gammaln(p - k + 1)
    return np.exp(log_binom + 2.0 * (p - k) * np.log(abs(q))
                  + k * np.log1p(-q * q))


def _horner(c, t):
    """sum_j c[j] t^j for j = 0.. as Horner on the reversed coefficients."""
    acc = np.zeros_like(t)
    for cj in c[::-1]:
        acc = acc * t + cj
    return acc


def _reference(p, q, t, order):
    """xi_q, xi_q' or xi_q'' of the coefficient vector by Horner's rule."""
    c = _reference_coeffs(p, q)
    k = np.arange(1, p + 1, dtype=float)
    if order == 0:
        return _horner(c, t) * t
    if order == 1:
        return _horner(c * k, t)
    return _horner((c * k * (k - 1))[1:], t)


def _rel_gap(got, want):
    keep = np.abs(want) > 1e-250
    return float(np.max(np.abs(got[keep] - want[keep]) / np.abs(want[keep]),
                        initial=0.0))


def _max_rel_gap(p, q, t):
    xi = band_mixture(p, q)
    return max(_rel_gap(evaluate(xi, t, order), _reference(p, q, t, order))
               for order in (0, 1, 2))


def test_pure_values():
    assert evaluate(pure(3), 0.5) == pytest.approx(0.125, abs=1e-15)
    assert evaluate(pure(2), 1.0) == pytest.approx(1.0, abs=1e-15)
    assert evaluate(pure(4), 1.0, order=1) == pytest.approx(4.0, abs=1e-15)
    assert evaluate(pure(3), 0.5, order=1) == pytest.approx(0.75, abs=1e-15)
    for p in (2, 3, 7):
        assert evaluate(pure(p), 0.0) == 0.0


def test_pure_rejects_bad_degree():
    for bad in (1, 0, -2, 2.5):
        with pytest.raises(ValueError):
            pure(bad)


def test_eval_domain_guard():
    with pytest.raises(ValueError):
        evaluate(pure(3), 1.0 + 1e-9)
    with pytest.raises(ValueError):
        evaluate(pure(3), -1.5)
    with pytest.raises(ValueError):
        evaluate(pure(3), 0.5, order=3)


@pytest.mark.parametrize("p", [3, 7, 128, 1024, 2048])
def test_closed_form_matches_coefficient_reference(p):
    t = make_grid(512)
    qs = list(window_grid(p)) + (list(half_band_grid(p)) if p >= 51 else [])
    for q in [0.0] + qs:
        assert _max_rel_gap(p, q, t) < 1e-11, q
        # the band solver reads the grid differences of xi; subtracting the
        # two powers directly loses 5e-9 to 1.3e-6 relative in them here
        assert _rel_gap(np.diff(evaluate(band_mixture(p, q), t)),
                        np.diff(_reference(p, q, t, 0))) < 1e-9, q


def test_closed_form_matches_coefficient_reference_random():
    rng = np.random.default_rng(17)
    t = make_grid(512)
    for _ in range(200):
        p = int(rng.integers(2, 61))
        q = float(rng.uniform(-0.999, 0.999))
        assert _max_rel_gap(p, q, t) < 1e-11, (p, q)


def test_band_mixture_hand_coefficients():
    # xi(t) = 0.140625 t + 0.421875 t^2 + 0.421875 t^3 at p = 3, q = 0.5
    bm = band_mixture(3, 0.5)
    assert (bm.p, bm.q2) == (3, 0.25)
    for t in (-0.7, 0.0, 0.3, 1.0):
        assert evaluate(bm, t) == pytest.approx(
            0.140625 * t + 0.421875 * t ** 2 + 0.421875 * t ** 3,
            rel=1e-13, abs=1e-15)
        assert evaluate(bm, t, 1) == pytest.approx(
            0.140625 + 0.84375 * t + 1.265625 * t ** 2, rel=1e-13)
        assert evaluate(bm, t, 2) == pytest.approx(0.84375 + 2.53125 * t,
                                                   rel=1e-13)
    assert evaluate(bm, 1.0) == pytest.approx(1.0 - 0.5 ** 6, abs=1e-12)


def test_band_mixture_q_zero_recovers_pure():
    assert band_mixture(2, 0.0) == pure(2)
    assert band_mixture(5, -0.0) == pure(5)


def test_band_mixture_top_value_identity():
    rng = np.random.default_rng(7)
    cases = [(5, 0.9)] + [(int(rng.integers(2, 40)), float(rng.uniform(-0.99, 0.99)))
                          for _ in range(30)]
    cases += [(300, 0.999), (2048, 1 - 1e-4)]
    for p, q in cases:
        top = evaluate(band_mixture(p, q), 1.0)
        assert top == pytest.approx(1.0 - q ** (2 * p), abs=1e-12)


def test_band_mixture_even_in_q():
    for p, q in [(3, 0.5), (7, 0.25), (12, 0.9)]:
        assert band_mixture(p, q) == band_mixture(p, -q)


def test_band_mixture_derivatives_nonnegative():
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 1.0, 101)
    for _ in range(40):
        xi = band_mixture(int(rng.integers(2, 200)),
                          float(rng.uniform(-0.999, 0.999)))
        assert np.all(evaluate(xi, t, 1) >= 0.0)
        assert np.all(evaluate(xi, t, 2) >= 0.0)


def test_band_mixture_domain_guard():
    for q in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            band_mixture(3, q)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(20):
        xi = band_mixture(int(rng.integers(2, 9)),
                          float(rng.uniform(-0.95, 0.95)))
        t = float(rng.uniform(-0.9, 0.9))
        d1 = evaluate(xi, t, 1)
        fd1 = (evaluate(xi, t + h) - evaluate(xi, t - h)) / (2 * h)
        assert abs(d1 - fd1) / max(abs(fd1), 1e-12) < 1e-6
        d2 = evaluate(xi, t, 2)
        fd2 = (evaluate(xi, t + h, 1) - evaluate(xi, t - h, 1)) / (2 * h)
        assert abs(d2 - fd2) / max(abs(fd2), 1.0) < 1e-6


def test_constructor_rejections():
    for p, q2 in [(1, 0.0), (2.5, 0.0), (3, -0.1), (3, 1.0), (3, float("nan"))]:
        with pytest.raises(ValueError):
            MixtureFn(p, q2)
    assert MixtureFn(3.0, 0.25) == band_mixture(3, 0.5)


def test_large_degree_small_overlap_finite_without_warning():
    # q^{2p} underflows at p = 2048, q = 0.3
    t = np.linspace(0.0, 1.0, 1001)
    xi = band_mixture(2048, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in (0, 1, 2):
            assert np.all(np.isfinite(evaluate(xi, t, order)))
    assert evaluate(xi, 0.0) == 0.0
    assert evaluate(xi, 1.0) == 1.0


def test_vectorized_evaluation():
    xi = band_mixture(5, 0.3)
    ts = np.linspace(0, 1, 11)
    vals = evaluate(xi, ts)
    assert vals.shape == ts.shape
    assert vals[0] == 0.0
    scalars = np.array([evaluate(xi, float(t)) for t in ts])
    np.testing.assert_allclose(vals, scalars, rtol=0, atol=0)
