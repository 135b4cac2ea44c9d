import numpy as np
import pytest

from pspinlab import mixtures
from pspinlab.mixtures import MixtureFn, band_mixture, evaluate, pure


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


def test_band_mixture_hand_coefficients():
    bm = band_mixture(3, 0.5)
    np.testing.assert_allclose(bm.coeffs, [0.140625, 0.421875, 0.421875],
                               rtol=1e-13)
    # degree-0 term cancels: value at 1 equals the coefficient sum
    assert evaluate(bm, 1.0) == pytest.approx(1.0 - 0.5 ** 6, abs=1e-12)


def test_band_mixture_q_zero_recovers_pure():
    bm = band_mixture(2, 0.0)
    np.testing.assert_array_equal(bm.coeffs, [0.0, 1.0])


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
        a = band_mixture(p, q).coeffs
        b = band_mixture(p, -q).coeffs
        np.testing.assert_array_equal(a, b)


def test_band_mixture_nonnegative_coefficients():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = int(rng.integers(2, 200))
        q = float(rng.uniform(-0.999, 0.999))
        assert np.all(band_mixture(p, q).coeffs >= 0.0)


def test_band_mixture_domain_guard():
    for q in (1.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            band_mixture(3, q)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(20):
        xi = MixtureFn(rng.uniform(0.0, 1.0, size=int(rng.integers(2, 9))))
        t = float(rng.uniform(-0.9, 0.9))
        d1 = evaluate(xi, t, 1)
        fd1 = (evaluate(xi, t + h) - evaluate(xi, t - h)) / (2 * h)
        assert abs(d1 - fd1) / max(abs(fd1), 1e-12) < 1e-6
        d2 = evaluate(xi, t, 2)
        fd2 = (evaluate(xi, t + h, 1) - evaluate(xi, t - h, 1)) / (2 * h)
        assert abs(d2 - fd2) / max(abs(fd2), 1.0) < 1e-6


def test_coefficient_vector_invariants():
    xi = MixtureFn([0.0, 1.0, 0.5, 0.0, 0.0])  # trailing zeros trimmed
    np.testing.assert_array_equal(xi.coeffs, [0.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        MixtureFn([0.0, 0.0])
    with pytest.raises(ValueError):
        MixtureFn([0.5, -0.1])


def test_vectorized_evaluation():
    xi = band_mixture(5, 0.3)
    ts = np.linspace(0, 1, 11)
    vals = evaluate(xi, ts)
    assert vals.shape == ts.shape
    assert vals[0] == 0.0
    scalars = np.array([evaluate(xi, float(t)) for t in ts])
    np.testing.assert_allclose(vals, scalars, rtol=0, atol=0)
