import math

import numpy as np
import pytest

from pspinlab import mixtures, parisi
from pspinlab.errors import TruncationWarning
from pspinlab.franz_parisi import (_envelope_derivative, fp_value,
                                   half_band_grid, window_grid)
from pspinlab.mixtures import MixtureFn, band_mixture, evaluate
from pspinlab.parisi import (ParisiMeasure, cs_functional, minimize_cs,
                             rs_value)
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


def _terms(xi, beta, zeta):
    """``parisi._atom_terms`` (value, gradient, Hessian, G at the atoms)
    at the measure ``zeta``, its variables ordered as the solve's."""
    s = zeta.locations.tolist()
    c = np.cumsum(zeta.weights)[:-1].tolist()
    ends = evaluate(xi, np.array([parisi.Q_TOP, 1.0])).tolist()
    return parisi._atom_terms(beta * beta, ends, s, c, parisi._xi_at(xi, s))


def test_atomic_objective_matches_the_functional():
    # the value the atomic solve minimizes, with its fixed endpoint Q_TOP,
    # is cs_functional on the same atoms
    rng = np.random.default_rng(9)
    for _ in range(20):
        zeta = random_measure(rng, n_atoms=3, q_top=0.8)
        beta = float(rng.uniform(0.3, 2.0))
        xi = MixtureFn(int(rng.integers(2, 6)))
        assert _terms(xi, beta, zeta)[0] == pytest.approx(
            cs_functional(zeta, xi, beta), abs=1e-12)


def test_objective_gradient_matches_finite_differences():
    # the closed-form gradient and Hessian in the atom locations and CDF
    # levels against central differences of the value and the gradient
    rng = np.random.default_rng(23)
    xi, beta = band_mixture(3, 0.4), 1.3
    zeta = random_measure(rng, n_atoms=3, q_top=0.9)
    s = zeta.locations.tolist()
    c = np.cumsum(zeta.weights)[:-1].tolist()
    ends = evaluate(xi, np.array([parisi.Q_TOP, 1.0])).tolist()

    def terms(x):
        return parisi._atom_terms(beta * beta, ends, x[:3], x[3:],
                                  parisi._xi_at(xi, x[:3]))

    x = s + c
    _, grad, H, _ = terms(x)
    h = 1e-6
    for k in range(len(x)):
        up, down = list(x), list(x)
        up[k] += h
        down[k] -= h
        (f_up, g_up, _, _), (f_down, g_down, _, _) = terms(up), terms(down)
        assert grad[k] == pytest.approx((f_up - f_down) / (2 * h), rel=1e-6,
                                        abs=1e-9)
        np.testing.assert_allclose(
            [row[k] for row in H], (np.array(g_up) - np.array(g_down)) / (2 * h),
            rtol=1e-5, atol=1e-7)


# p in {3, 4, 128, 1024, 2048} at q^2 = 0, and q^2 on both sides of the
# q2^p < tiny branch of the value: base^p - q2^p at p = 2048, q = 0.5, the
# expm1 form at p = 128, q = 0.99 and at the other q > 0 here
FLOAT_PATH_CASES = [(3, 0.0), (4, 0.0), (128, 0.0), (1024, 0.0), (2048, 0.0),
                    (2048, 0.5), (128, 0.99), (3, 0.5), (128, 0.3),
                    (1024, 0.999), (2048, 0.9), (2048, 0.9995)]


@pytest.mark.parametrize("p, q", FLOAT_PATH_CASES)
def test_float_path_at_the_atoms_agrees_with_evaluate(p, q):
    # _xi_at takes the closed forms in Python floats, through libm, whose
    # pow, log1p and expm1 differ from numpy's in the last bit on some
    # inputs. Each form agrees to 4 ulp relative, with an absolute floor of
    # 4 subnormal steps where it underflows, save that the expm1 form of
    # the value magnifies a last-bit move of its argument
    # y = p log1p((1 - q2) t / q2) by the condition number 1 + y of e^y
    # (256 ulp at p = 2048, q = 0.9), so its 4 ulp are times 1 + y
    t = parisi._MESH
    assert t[0] == 0.0 and t[-1] == parisi.Q_TOP
    xi = band_mixture(p, q)
    got = parisi._xi_at(xi, t.tolist())
    expm1_form = xi.q2 ** p >= np.finfo(float).tiny
    assert expm1_form == ((p, q) != (2048, 0.5) and q > 0.0)
    y = p * np.log1p((1.0 - xi.q2) * t / xi.q2) if expm1_form else 0.0 * t
    for order in (0, 1, 2):
        want = evaluate(xi, t, order)
        cond = 1.0 + y if order == 0 else 1.0
        tol = 4 * np.finfo(float).eps * cond * np.abs(want) + 4 * 5e-324
        assert np.all(np.abs(np.array(got[order]) - want) <= tol)
    # t = 0 gives xi = 0 and, at q = 0, xi' = 0 exactly
    assert got[0][0] == 0.0 and (q > 0.0 or got[1][0] == 0.0)


# (label, mixture, beta, value and Frank-Wolfe gap of the projected-gradient
# solve on a 512-interval grid that answered these window points before the
# atomic solve did). Each grid value is that of a feasible measure, so the
# minimum lies in [value - gap, value]
PANEL = [
    ("slow p=128", lambda: band_mixture(128, 0.9901), 2.4529900038181776,
     2.1403499756977853, 6.576731768070943e-07),
    ("p=1024 1RSB-like", lambda: band_mixture(1024, window_grid(1024, 48)[10]),
     2.8622855123888167, 3.102055784866465, 1.0478910793754181e-05),
    ("p=1024 RS-like", lambda: band_mixture(1024, window_grid(1024, 48)[30]),
     2.8622855123888167, 1.0723172482090977, 1.656871382316183e-06),
    ("p=2048 half band", lambda: band_mixture(2048, half_band_grid(2048, 32)[16]),
     2.9828216675239876, 0.5512922592478571, 8.943593203802891e-07),
    ("pure p=3", lambda: MixtureFn(3), 1.5, 1.0973230044509794,
     2.1767131568317666e-06),
]


@pytest.mark.parametrize("label, make_xi, beta, value, gap", PANEL,
                         ids=[row[0] for row in PANEL])
def test_minimize_matches_previous_solver_values(label, make_xi, beta, value,
                                                 gap):
    # window points at beta = 0.95 beta_c: the certified value lies in the
    # grid answer's own bracket, to GAP_TOL above
    res = minimize_cs(make_xi(), beta)
    assert res.converged and res.gap <= parisi.GAP_TOL
    assert len(res.measure.locations) <= parisi.MAX_ATOMS
    assert value - gap <= res.value <= value + parisi.GAP_TOL


@pytest.mark.parametrize("label, make_xi, beta",
                         [row[:3] for row in PANEL],
                         ids=[row[0] for row in PANEL])
def test_uncertified_solve_returns_its_last_measure(monkeypatch, label,
                                                    make_xi, beta):
    # with certification made impossible the solve still answers: its last
    # measure, with that measure's value and gap, and converged=False
    xi = make_xi()
    certified = minimize_cs(xi, beta)
    monkeypatch.setattr(parisi, "GAP_TOL", -1.0)
    res = minimize_cs(xi, beta)
    assert not res.converged
    assert len(res.measure.locations) <= parisi.MAX_ATOMS
    assert res.gap == parisi._fw_bound(xi, beta * beta, res.measure)[0]
    assert res.value == pytest.approx(
        cs_functional(res.measure, xi, beta, q_top=parisi.Q_TOP), abs=1e-12)
    assert res.value <= certified.value + certified.gap + 1e-12


# G on a dense uniform mesh: the certificate's lower bound on min G must lie
# at or below the least value there, to rounding. G at a node is a suffix
# sum over the mesh intervals above it; over 400k intervals it moves by up
# to 6e-12 against the certificate's mesh, so the rounding allowance is
# 1e-10, a hundredth of GAP_TOL
DENSE_NODES = 400_000
DENSE_ROUNDING = 1e-10


def _on_grids(measure, nodes=20, step=2e-4):
    """``measure`` with each atom spread evenly over a grid of ``nodes``
    points ``step`` apart, starting at the atom (ending at it where the
    grid would pass Q_TOP)."""
    offsets = step * np.arange(nodes)
    loc = np.concatenate([t + offsets if t + offsets[-1] < parisi.Q_TOP
                          else t - offsets[::-1]
                          for t in measure.locations])
    w = np.repeat(measure.weights / nodes, nodes)
    w[-1] = 1.0 - w[:-1].sum()
    return ParisiMeasure(loc, w)


@pytest.mark.parametrize("label, make_xi, beta",
                         [row[:3] for row in PANEL],
                         ids=[row[0] for row in PANEL])
@pytest.mark.parametrize("solve", ["atomic", "grid"])
def test_certificate_bound_lies_below_a_dense_mesh_minimum(label, make_xi,
                                                           beta, solve):
    # the solve's answer, and a measure of 20 or more atoms near it: the
    # answer's atoms each spread over a grid of 20 nodes
    xi = make_xi()
    res = minimize_cs(xi, beta)
    measure = _on_grids(res.measure) if solve == "grid" else res.measure
    b2 = beta * beta
    gap, lower, _ = parisi._fw_bound(xi, b2, measure)
    loc, w = measure.locations, measure.weights
    mesh = np.union1d(np.linspace(0.0, parisi.Q_TOP, DENSE_NODES), loc)
    G = parisi._g_nodes(xi, b2, loc, w, mesh)[0]
    assert lower <= G.min() + DENSE_ROUNDING
    expected = w @ G[np.searchsorted(mesh, loc)]
    assert gap == pytest.approx(max(expected - min(lower, 0.0), 0.0),
                                abs=DENSE_ROUNDING)
    if solve == "grid":
        assert len(loc) >= 20
    else:
        assert res.gap == gap


@pytest.mark.parametrize("label, make_xi, beta",
                         [row[:3] for row in PANEL],
                         ids=[row[0] for row in PANEL])
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
            assert parisi._fw_bound(xi, beta * beta, zeta)[0] >= rise


def test_gap_is_zero_at_the_rs_atom():
    # pure p = 3 at beta = 1: g <= 0 and G is convex on [0, Q_TOP], so the
    # certificate's bound is G(0) itself
    assert parisi._fw_bound(MixtureFn(3), 1.0,
                            ParisiMeasure(0.0, 1.0))[0] == 0.0
    res = minimize_cs(MixtureFn(3), 1.0)
    assert res.gap == 0.0
    assert (res.measure.locations.tolist(), res.measure.weights.tolist()) \
        == ([0.0], [1.0])


def _fw_bound_reference(xi, b2, measure):
    """The certificate pass in its earlier form, through np.union1d,
    np.diff, np.cumsum, np.clip and np.concatenate, that ``_fw_bound``
    must reproduce bit for bit: same mesh, bisection rule and bound, in
    the same order of arithmetic."""
    loc, w = measure.locations, measure.weights
    nodes = np.union1d(parisi._MESH, loc)
    while True:
        G, g, phi, xi2 = _g_nodes_reference(xi, b2, loc, w, nodes)
        L = np.diff(nodes)
        ga, gb = G[:-1], G[1:]
        hi = 0.5 * (1.0 / phi[1:] ** 2 - b2 * xi2[:-1])
        lo = 0.5 * (1.0 / phi[:-1] ** 2 - b2 * xi2[1:])
        bound = np.minimum(ga, gb) - np.maximum(hi, 0.0) * L * L / 8.0
        da, db = -g[:-1], -g[1:]
        cross = np.clip((gb - ga - db * L) / np.minimum(da - db, -1e-300),
                        0.0, L)
        tangent = np.where(da >= 0.0, ga,
                           np.where(db <= 0.0, gb, ga + da * cross))
        bound = np.where(lo >= 0.0, np.maximum(bound, tangent), bound)
        expected = float(w @ G[np.searchsorted(nodes, loc)])
        least = int(np.argmin(G))
        slack = max(parisi.GAP_TOL / 4.0, (expected - G[least]) / 8.0)
        loose = bound < G[least] - slack
        if not loose.any() or nodes.size + loose.sum() > parisi.CERT_NODES:
            lower = float(bound.min())
            return (max(expected - min(lower, 0.0), 0.0), lower,
                    float(nodes[least]), nodes.size)
        nodes = np.union1d(nodes, 0.5 * (nodes[:-1][loose] + nodes[1:][loose]))


def _g_nodes_reference(xi, b2, loc, w, nodes):
    L = np.diff(nodes)
    level = np.concatenate(([0.0], np.cumsum(w)))[
        np.searchsorted(loc, nodes[:-1], side="right")]
    phi = np.empty(nodes.size)
    phi[-1] = 1.0 - nodes[-1]
    phi[:-1] = phi[-1] + np.cumsum((level * L)[::-1])[::-1]
    a = L / phi[:-1]
    inv = np.concatenate(([0.0], np.cumsum(a / phi[1:])))
    r = level * a
    tail = np.empty_like(r)
    small = r < 0.1
    rs = r[small]
    total = np.zeros_like(rs)
    for n in range(19, 1, -1):
        total = total * rs + 1.0 / n
    tail[small] = total
    head = r[~small]
    tail[~small] = (-np.log1p(-head) - head) / head ** 2
    part = L * inv[:-1] + a * a * tail
    suffix = np.concatenate((np.cumsum(part[::-1])[::-1], [0.0]))
    x0, x1, x2 = mixtures._closed_forms(xi, nodes)
    G = 0.5 * (b2 * (x0[-1] - x0) - suffix)
    return G, 0.5 * (b2 * x1 - inv), phi, x2


def test_certificate_pass_matches_its_reference_bit_for_bit():
    # at each panel point: the solve's answer, measures of one to three
    # atoms near it and anywhere in [0, Q_TOP], and atoms at the ends and
    # on a mesh node. Gap, lower bound and argmin node equal the
    # reference's exactly, bisection rounds included
    rng = np.random.default_rng(5)
    bisected = 0
    for _, make_xi, beta, *_ in PANEL:
        xi, b2 = make_xi(), beta * beta
        best = minimize_cs(xi, beta).measure
        panel = [best, ParisiMeasure(0.0, 1.0),
                 ParisiMeasure(parisi.Q_TOP, 1.0),
                 ParisiMeasure([0.0, parisi._MESH[40], parisi.Q_TOP],
                               [0.2, 0.3, 0.5])]
        for _ in range(12):
            panel.append(random_measure(rng, int(rng.integers(1, 4)),
                                        q_top=parisi.Q_TOP))
            panel.append(ParisiMeasure(
                np.minimum(best.locations + rng.uniform(0.0, 1e-4),
                           parisi.Q_TOP), best.weights))
        for zeta in panel:
            *want, size = _fw_bound_reference(xi, b2, zeta)
            assert parisi._fw_bound(xi, b2, zeta) == tuple(want)
            bisected += size > parisi._MESH.size + zeta.locations.size
    assert bisected >= 10


def test_low_temperature_solve_is_certified():
    # low temperature: the two atoms lie well inside the fixed endpoint
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
    # atom at 0 with weight x, and the atom at q1. The package runs without
    # scipy; this oracle uses it where it is installed
    sp_minimize = pytest.importorskip("scipy.optimize").minimize

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
        res = minimize_cs(xi, beta)
        assert res.converged
        assert abs(res.value - value) <= 1e-9
        np.testing.assert_allclose(res.measure.locations, [0.0, q1],
                                   rtol=0, atol=1e-6)
        np.testing.assert_allclose(res.measure.weights, [x, 1.0 - x],
                                   rtol=0, atol=1e-6)


@pytest.mark.parametrize("locations, weights", [
    ([0.0], [1.0]),  # delta_0: the term is xi_q'(0)
    ([float(parisi._MESH[40])], [1.0]),  # an atom on the solve's mesh
    ([0.2, 0.6], [0.25, 0.75]),
    ([0.0, 0.5, parisi.Q_TOP], [0.2, 0.3, 0.5]),
], ids=["delta0", "mesh node", "two atoms", "three atoms"])
def test_envelope_derivative_cases(locations, weights):
    # the envelope derivative reads the minimizer at its atoms in Python
    # floats; against its closed form with the expectation through
    # evaluate, to the last bits in which libm and numpy differ
    p, beta, q = 128, 2.4, 0.99
    xi_q, b2, q2 = band_mixture(p, q), beta * beta, q * q
    measure = ParisiMeasure(locations, weights)
    res = parisi.MinimizeResult(value=0.0, measure=measure, kkt_residual=0.0,
                                converged=True, iterations=0, gap=0.0)
    t = np.array(locations)
    expect = float(measure.weights @ ((1.0 - t) * evaluate(xi_q, t, 1)))
    closed = (-b2 * q * expect / (1.0 - q2) + b2 * p * q ** (p - 1)
              - q / (1.0 - q2))
    assert _envelope_derivative(xi_q, beta, q, res) == pytest.approx(
        closed, rel=1e-14)


@pytest.mark.parametrize("xi, beta", [
    (MixtureFn(3), 0.8),
    (MixtureFn(3), 1.5),
    (band_mixture(128, 0.9901), 2.45299),  # 1RSB-like window point
])
def test_minimizer_measure_reproduces_value(xi, beta):
    # the returned atoms, fed back through the closed form, give the
    # solver's value: nothing of the solution is lost in the measure
    res = minimize_cs(xi, beta)
    assert res.converged
    assert res.measure.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert cs_functional(res.measure, xi, beta, q_top=parisi.Q_TOP) \
        == pytest.approx(res.value, abs=1e-12)


def test_truncation_warning_when_support_reaches_the_endpoint():
    # at beta = 1e4 the p = 3 minimizer needs support above the fixed
    # endpoint (at beta = 300 it still lies below it, at q_hat = 0.99885):
    # the answer is the atom at Q_TOP, held there as a bound, with gap 0
    with pytest.warns(TruncationWarning, match="endpoint"):
        res = minimize_cs(MixtureFn(3), 1e4)
    assert res.converged and res.gap == 0.0
    assert (res.measure.locations.tolist(), res.measure.weights.tolist()) \
        == ([parisi.Q_TOP], [1.0])


def test_endpoint_atom_beside_a_light_atom_at_zero():
    # p = 4 at beta = 3843.667: atoms at both bounds, the one at 0 of weight
    # 1.4e-4. Certifying it needs Newton steps of about 1e-17 on that CDF
    # level, far below an absolute stop rule's 1e-15, so the stop rule
    # measures each step relative to its coordinate
    with pytest.warns(TruncationWarning, match="endpoint"):
        res = minimize_cs(MixtureFn(4), 3843.667)
    assert res.converged and res.gap <= parisi.GAP_TOL
    assert res.measure.locations.tolist() == [0.0, parisi.Q_TOP]
    assert res.measure.weights[0] == pytest.approx(1.4153289e-4, abs=1e-10)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0])
def test_beta_rule_rejects_before_any_solve(monkeypatch, beta):
    def no_solve(*args, **kwargs):
        raise RuntimeError("solve started")

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


@pytest.mark.parametrize("locations, weights", [
    ([math.nan], [1.0]),
    ([0.5], [math.nan]),
    ([0.2, math.nan], [0.5, 0.5]),
    ([math.inf], [1.0]),
    ([0.5], [math.inf]),
    ([0.2, 0.5], [math.inf, -math.inf]),
])
def test_measure_rejects_nan_and_inf(locations, weights):
    # every check is one that NaN fails, so no entry slips through it
    with pytest.raises(ValueError):
        ParisiMeasure(locations, weights)


def test_start_with_too_many_atoms_is_rejected(monkeypatch):
    def no_solve(*args, **kwargs):
        raise RuntimeError("solve started")

    monkeypatch.setattr(parisi, "_atomic_solve", no_solve)
    k = parisi.MAX_ATOMS + 1
    start = ParisiMeasure(np.linspace(0.1, 0.9, k), np.full(k, 1.0 / k))
    with pytest.raises(ValueError, match="start"):
        minimize_cs(MixtureFn(3), 1.0, start=start)


@pytest.mark.parametrize("label, make_xi, beta",
                         [row[:3] for row in PANEL],
                         ids=[row[0] for row in PANEL])
def test_start_that_does_not_certify_restarts_cold(monkeypatch, label,
                                                   make_xi, beta):
    # with certification made impossible the solve from the start fails,
    # so the cold solve answers, bit for bit as it does with no start, and
    # the steps of both attempts are counted
    xi = make_xi()
    start = ParisiMeasure([0.3, 0.8], [0.4, 0.6])
    monkeypatch.setattr(parisi, "GAP_TOL", -1.0)
    cold = minimize_cs(xi, beta)
    attempts = []
    solve_from = parisi._solve_from

    def recorded(*args):
        attempts.append(solve_from(*args))
        return attempts[-1]

    monkeypatch.setattr(parisi, "_solve_from", recorded)
    res = minimize_cs(xi, beta, start=start)
    assert len(attempts) == 2 and not attempts[0].converged
    assert res.value == cold.value and not res.converged
    assert res.measure.locations.tolist() == cold.measure.locations.tolist()
    assert res.measure.weights.tolist() == cold.measure.weights.tolist()
    assert attempts[1].iterations == cold.iterations
    assert res.iterations == attempts[0].iterations + cold.iterations


@pytest.mark.parametrize("p", [128, 1024, 2048])
def test_certified_answer_as_start_certifies_at_once(p):
    # at each window point the cold answer, given back as the start, is
    # certified again within 3 Newton steps, at the same value to the gap
    beta = 0.9 * beta_c(p)[0]
    for q in window_grid(p, 48):
        xi = band_mixture(p, q)
        cold = minimize_cs(xi, beta)
        res = minimize_cs(xi, beta, start=cold.measure)
        assert res.converged and res.iterations <= 3
        assert abs(res.value - cold.value) <= max(res.gap, cold.gap) + 1e-12


def test_start_above_the_endpoint_is_clipped(monkeypatch):
    # the solve works on [0, Q_TOP]: atoms of a start above it move to
    # Q_TOP, where two merge, and the solve from there finds the RS atom
    starts = []
    solve_from = parisi._solve_from

    def recorded(xi, b2, ends, s, c):
        starts.append((s, c))
        return solve_from(xi, b2, ends, s, c)

    monkeypatch.setattr(parisi, "_solve_from", recorded)
    start = ParisiMeasure([0.5, 0.99995, 0.99999], [0.2, 0.3, 0.5])
    res = minimize_cs(MixtureFn(3), 1.0, start=start)
    [(s, c)] = starts
    assert s[0] == 0.5 and s[1] == pytest.approx(parisi.Q_TOP, abs=1e-15)
    assert s[1] <= parisi.Q_TOP and c == pytest.approx([0.2], abs=1e-15)
    assert res.converged and res.gap == 0.0
    assert res.measure.locations.tolist() == [0.0]


@pytest.mark.parametrize("q_top", [0.3, 1.0, 1.5, math.nan])
def test_cs_functional_q_top_outside_range_rejected(q_top):
    # the endpoint extends the measure's top atom, 0.5, and stays below 1;
    # NaN is no such endpoint
    zeta = ParisiMeasure([0.2, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"q_top must lie in \[q_hat, 1\)"):
        cs_functional(zeta, MixtureFn(3), 1.0, q_top=q_top)


def test_mesh_shape():
    # the start and certificate mesh: 64 intervals from 0 to exactly Q_TOP,
    # where G is 0, refined toward 1
    g = parisi._MESH
    assert len(g) == 65
    assert (g[0], g[-1]) == (0.0, parisi.Q_TOP)
    assert np.all(np.diff(g) > 0)
    assert np.diff(g)[-1] < np.diff(g)[0]
