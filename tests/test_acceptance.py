"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Monte Carlo checks use a 3-standard-error tolerance unless the
criterion states otherwise; seeds are fixed so the suite is deterministic.
"""

import json
import math

import numpy as np
import pytest

from pspinlab import cli, franz_parisi, lab, phase
from pspinlab.lab import LangevinConfig
from pspinlab.lab.observables import chaos_scan
from pspinlab.lab.samplers import ReplicaExchange
from pspinlab.mixtures import MixtureFn, band_mixture, evaluate
from pspinlab.parisi import ParisiMeasure, cs_functional, minimize_cs, rs_value

SQRT_E = math.sqrt(math.e)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


# ----------------------------------------------------------------------
# 1. closed-form dynamical boundary
# ----------------------------------------------------------------------

def test_criterion_01_dynamical_boundary():
    assert phase.beta_d_pure(3) == pytest.approx(1.1547005, abs=1e-7)
    assert phase.beta_d_pure(4) == pytest.approx(1.2990381, abs=1e-7)
    vals = np.array([phase.beta_d_pure(p) for p in range(3, 10001)])
    assert np.all(vals > 1.0) and np.all(vals < 2.0)
    b10, b100, b1000 = (phase.beta_d_pure(p) for p in (10, 100, 1000))
    assert b10 < b100 < b1000
    assert abs(b1000 - SQRT_E) < 0.05
    _report(1, "beta_d closed forms, (1,2) range on p in [3,1e4], "
               f"sqrt(e) approach (beta_d(1e3) = {b1000:.6f})")


# ----------------------------------------------------------------------
# 2. static boundary
# ----------------------------------------------------------------------

def test_criterion_02_static_boundary():
    # independent brute-force oracle on a dense composite grid
    q = np.concatenate([np.linspace(1e-4, 0.95, 2_000_000),
                        1.0 - np.exp(np.linspace(np.log(0.05), np.log(1e-8),
                                                 2_000_000))])
    vals = np.power(q, -3.0) * (-np.log1p(-q)) - np.power(q, -2.0)
    oracle = math.sqrt(float(vals.min()))
    bc3, _ = phase.beta_c(3)
    assert bc3 == pytest.approx(oracle, abs=1e-6)

    for p in range(3, 51):
        assert phase.beta_d_pure(p) < phase.beta_c(p)[0]

    ratios = [phase.beta_c(p)[0] / math.sqrt(math.log(p))
              for p in (100, 1000, 10000)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    _report(2, f"beta_c(3) = {bc3:.8f} matches brute force to 1e-6; "
               f"beta_d < beta_c on [3,50]; ratios {np.round(ratios, 4)} "
               "decrease toward 1")


# ----------------------------------------------------------------------
# 3. functional identities on atomic measures
# ----------------------------------------------------------------------

def _random_measure(rng, q_top):
    k = int(rng.integers(1, 6))
    loc = np.sort(rng.uniform(0.0, q_top, size=k))
    while np.any(np.diff(loc) <= 1e-6):
        loc = np.sort(rng.uniform(0.0, q_top, size=k))
    w = rng.uniform(0.1, 1.0, size=k)
    w /= w.sum()
    w[-1] += 1.0 - w.sum()
    return ParisiMeasure(loc, w)


def test_criterion_03_functional_identities():
    rng = np.random.default_rng(101)
    for _ in range(100):  # single-atom identity
        p = int(rng.integers(2, 9))
        beta = float(rng.uniform(0.1, 3.0))
        t = float(rng.uniform(0.0, 0.98))
        diff = cs_functional(ParisiMeasure(t, 1.0), MixtureFn(p), beta) \
            - rs_value(t, MixtureFn(p), beta)
        assert abs(diff) < 1e-12
    for _ in range(100):  # truncation identity
        zeta = _random_measure(rng, q_top=0.9)
        beta = float(rng.uniform(0.2, 2.5))
        xi = MixtureFn(int(rng.integers(2, 7)))
        q_top = float(rng.uniform(zeta.q_hat, 0.999))
        assert abs(cs_functional(zeta, xi, beta)
                   - cs_functional(zeta, xi, beta, q_top=q_top)) < 1e-12
    for _ in range(100):  # convexity probe on a common atom set
        loc = np.sort(rng.uniform(0.0, 0.9, size=4))
        while np.any(np.diff(loc) <= 1e-6):
            loc = np.sort(rng.uniform(0.0, 0.9, size=4))
        w = []
        for _ in range(2):
            wi = rng.uniform(0.05, 1.0, 4)
            wi /= wi.sum()
            wi[-1] += 1.0 - wi.sum()
            w.append(wi)
        lam = float(rng.uniform(0.05, 0.95))
        mix = lam * w[0] + (1 - lam) * w[1]
        mix[-1] += 1.0 - mix.sum()
        beta = float(rng.uniform(0.3, 2.0))
        xi = MixtureFn(int(rng.integers(2, 6)))
        lhs = cs_functional(ParisiMeasure(loc, mix), xi, beta)
        rhs = lam * cs_functional(ParisiMeasure(loc, w[0]), xi, beta) \
            + (1 - lam) * cs_functional(ParisiMeasure(loc, w[1]), xi, beta)
        assert lhs <= rhs + 1e-12
    _report(3, "single-atom identity, truncation identity and convexity "
               "probe hold to 1e-12 on 100 random cases each")


# ----------------------------------------------------------------------
# 4. replica-symmetric free energy
# ----------------------------------------------------------------------

def test_criterion_04_rs_free_energy():
    for p, beta in [(3, 0.8), (4, 1.0), (3, 1.1)]:
        res = minimize_cs(MixtureFn(p), beta)
        assert res.converged
        assert res.value == pytest.approx(beta * beta / 2.0, abs=1e-5)
    low = minimize_cs(MixtureFn(3), 1.5)
    assert low.value < 1.5 ** 2 / 2.0 - 1e-3
    _report(4, "free energy equals beta^2/2 below the static boundary and "
               f"drops to {low.value:.6f} < 1.125 at (3, 1.5)")


# ----------------------------------------------------------------------
# 5. Franz-Parisi structure
# ----------------------------------------------------------------------

def test_criterion_05_franz_parisi_structure():
    p, beta = 3, 1.0
    annealed = beta * beta / 2.0

    at_zero = franz_parisi.fp_value(p, beta, 0.0)
    assert at_zero.value == pytest.approx(annealed, abs=1e-5)

    qs = np.linspace(0.0, 1.0 - 1e-3, 100)
    points = [franz_parisi.fp_value(p, beta, float(q)) for q in qs]
    for pt in points:
        assert pt.value <= pt.rs_bound + 1e-8
        assert pt.value <= annealed + 1e-8
        if abs(pt.q) >= 0.05:
            assert pt.value < annealed - 1e-6
    for q in (-0.05, -0.3, -0.7):
        assert franz_parisi.fp_value(p, beta, q).value < annealed - 1e-6

    h = 1e-4
    checks = [(0.2, 1e-3), (0.5, 1e-3), (0.8, 1e-3),
              (0.95, 1e-2), (0.99, 1e-2), (0.995, 1e-2)]
    worst = 0.0
    for q, tol in checks:
        d = franz_parisi.fp_value(p, beta, q).derivative
        fd = (franz_parisi.fp_value(p, beta, q + h).value
              - franz_parisi.fp_value(p, beta, q - h).value) / (2 * h)
        rel = abs(d - fd) / max(abs(fd), 1e-12)
        worst = max(worst, rel)
        assert rel < tol
    _report(5, "potential maximized at q=0 (value beta^2/2), dominated by "
               "the RS bound on a 100-point grid; envelope derivative "
               f"matches finite differences (worst rel err {worst:.2e})")


# ----------------------------------------------------------------------
# 6. shattering window existence
# ----------------------------------------------------------------------

def test_criterion_06_shattering_window():
    config = dict(cli.DEFAULTS["shatter-scan"])
    config.update({"command": "shatter-scan", "seed": 0, "out": None,
                   "threads": 1, "version": "test"})
    rows = list(cli._run_command(config))
    assert all(not r["error"] for r in rows)
    # a window starts inside its grid, not at the grid's first point
    for r in rows:
        if r["n_points"]:
            assert r["q_under"] > franz_parisi.window_grid(r["p"],
                                                          config["n_q"])[0]
    witnesses = [r for r in rows if r["hb_window"]]
    assert witnesses, "no (p, beta) produced an increasing window inside " \
                      "[1 - 1/(2p), 1)"
    for r in witnesses:
        assert r["hb_q_under"] >= 1.0 - 1.0 / (2 * r["p"])
        assert r["hb_q_under"] < r["hb_q_bar"] < 1.0
    w = witnesses[0]
    _report(6, f"{len(witnesses)}/{len(rows)} scanned (p, beta) pairs show "
               "a strictly increasing potential window inside "
               f"[1-1/(2p), 1); e.g. p={w['p']}, beta={w['beta']:.4f} "
               f"(beta_c={w['beta_c']:.4f}), window "
               f"[{w['hb_q_under']:.6f}, {w['hb_q_bar']:.6f}]")


# ----------------------------------------------------------------------
# 7. finite-N Gaussian laws
# ----------------------------------------------------------------------

def _overlap_pair(n, q, seed):
    rng = np.random.default_rng(seed)
    a = lab.sphere_project(rng.standard_normal(n))
    u = rng.standard_normal(n)
    u -= a * (float(a @ u) / n)
    u = lab.sphere_project(u)
    return a, lab.sphere_project(q * a + math.sqrt(1 - q * q) * u)


def test_criterion_07_finite_n_laws():
    n, p, trials = 8, 3, 2000

    # Hamiltonian covariance at fixed overlaps
    for q in (0.0, 0.5, -0.5, 1.0):
        s1, s2 = _overlap_pair(n, abs(q) if q >= 0 else -q, seed=17)
        if q < 0:
            s2 = -s2
        if q == 1.0:
            s2 = s1
        prods = np.empty(trials)
        for i in range(trials):
            d = lab.sample_disorder(n, p, seed=100000 + i)
            prods[i] = lab.hamiltonian(d, s1) * lab.hamiltonian(d, s2) / n
        se = prods.std(ddof=1) / math.sqrt(trials)
        assert abs(prods.mean() - q ** p) <= 3 * se, f"overlap {q}"

    # planted mean energy per spin equals the spike strength
    beta_spike, n_pl = 1.3, 600
    direction = lab.random_configuration(n, 5)
    energies = np.empty(n_pl)
    for i in range(n_pl):
        d = lab.plant(n, p, beta_spike, direction, seed=200000 + i)
        energies[i] = lab.hamiltonian(d, direction) / n
    se = energies.std(ddof=1) / math.sqrt(n_pl)
    assert abs(energies.mean() - beta_spike) <= 3 * se

    # band restriction has the band-mixture covariance
    q_band, n_band = 0.5, 4000
    sigma = lab.random_configuration(n, 23)
    # the right singular vectors of sigma as a row, less the first, are an
    # orthonormal basis of its complement, n x (n-1)
    basis = np.linalg.svd(sigma.reshape(1, -1))[2][1:].T
    rng = np.random.default_rng(29)
    t1 = rng.standard_normal(n - 1)
    t1 *= math.sqrt(n) / np.linalg.norm(t1)
    u = rng.standard_normal(n - 1)
    u -= t1 * (float(t1 @ u) / n)
    u *= math.sqrt(n) / np.linalg.norm(u)
    t2 = 0.5 * t1 + math.sqrt(1 - 0.25) * u
    rho = float(t1 @ t2) / n  # = 0.5 up to rounding; use the realized value
    lift = math.sqrt(1 - q_band ** 2)
    x1 = q_band * sigma + lift * (basis @ t1)
    x2 = q_band * sigma + lift * (basis @ t2)
    prods = np.empty(n_band)
    for i in range(n_band):
        d = lab.plant(n, p, 1.0, sigma, seed=300000 + i)
        h0 = lab.hamiltonian(d, q_band * sigma)
        prods[i] = (lab.hamiltonian(d, x1) - h0) * (lab.hamiltonian(d, x2) - h0)
    target = n * evaluate(band_mixture(p, q_band), rho)
    se = prods.std(ddof=1) / math.sqrt(n_band)
    assert abs(prods.mean() - target) <= 3 * se

    # entrywise correlation of correlated disorder
    eps = 0.3
    xs, ys = [], []
    for seed in (31, 37):
        d = lab.sample_disorder(16, 4, seed=seed)
        c = lab.correlate_disorder(d, eps, seed=seed + 1)
        xs.append(d.entries.ravel())
        ys.append(c.entries.ravel())
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    r = float(np.corrcoef(x, y)[0, 1])
    # se for independent entries; the entries are symmetric tensors, each
    # value repeated up to p! times, so the true se is larger and this
    # bound is stricter than stated
    se = (1 - (1 - eps) ** 2) / math.sqrt(len(x))
    assert abs(r - (1 - eps)) <= 3 * se
    _report(7, "covariance N q^p at overlaps {0, +-0.5, 1}; planted energy "
               f"per spin {energies.mean():.4f} ~ {beta_spike}; band "
               f"covariance {prods.mean():.4f} ~ {target:.4f}; entrywise "
               f"correlation {r:.4f} ~ {1 - eps}")


# ----------------------------------------------------------------------
# 8. dynamics sanity
# ----------------------------------------------------------------------

def _time_below(curve, level):
    for t, c in curve:
        if c < level:
            return t
    return curve[-1][0]


def test_criterion_08_dynamics():
    # gradient versus finite differences and Euler identity
    d10 = lab.sample_disorder(10, 3, seed=77)
    rng = np.random.default_rng(3)
    h = 1e-5
    eye = np.eye(10)
    for _ in range(20):
        s = lab.sphere_project(rng.standard_normal(10))
        g = lab.gradient(d10, s)
        fd = np.array([(lab.hamiltonian(d10, s + h * e)
                        - lab.hamiltonian(d10, s - h * e)) / (2 * h)
                       for e in eye])
        assert np.max(np.abs(g - fd)) / np.max(np.abs(g)) < 1e-6
        hval = lab.hamiltonian(d10, s)
        assert abs(float(s @ g) - 3 * hval) <= 1e-9 * max(abs(3 * hval), 1.0)

    # sphere constraint post-retraction
    d16 = lab.sample_disorder(16, 3, seed=11)
    traj = lab.langevin_run(d16, lab.random_configuration(16, 0),
                            LangevinConfig(beta=0.8, step=0.005, n_steps=100,
                                           record_every=10), seed=1)
    for _, s in traj:
        assert abs(float(s @ s) - 16.0) <= 1e-12 * 16.0

    # free diffusion decorrelates
    finals = []
    for i in range(100):
        start = lab.random_configuration(16, 5000 + i)
        tr = lab.langevin_run(d16, start,
                              LangevinConfig(beta=0.0, step=0.01,
                                             n_steps=500, record_every=500),
                              seed=i)
        finals.append(float(start @ tr[-1][1]) / 16.0)
    assert abs(np.mean(finals)) < 0.1

    # cross-sampler agreement of the mean energy per spin
    d12 = lab.sample_disorder(12, 3, seed=4)
    lg_means = []
    for i in range(8):
        start, _ = lab.equilibrium_sample(d12, 0.5, seed=900 + i,
                                          burn_in=200)
        tr = lab.langevin_run(d12, start,
                              LangevinConfig(beta=0.5, step=0.01,
                                             n_steps=3000, record_every=50),
                              seed=1000 + i)
        es = [lab.hamiltonian(d12, s) / 12.0 for t, s in tr if t > 5.0]
        lg_means.append(np.mean(es))
    re_means = []
    for i in range(8):
        sampler = ReplicaExchange(d12, 0.5, seed=2000 + i)
        draws = sampler.sample(40, burn_in=300, thin=10)
        re_means.append(np.mean([lab.hamiltonian(d12, s) / 12.0
                                 for s in draws]))
    m1, s1 = np.mean(lg_means), np.std(lg_means, ddof=1) / math.sqrt(8)
    m2, s2 = np.mean(re_means), np.std(re_means, ddof=1) / math.sqrt(8)
    assert abs(m1 - m2) <= 3 * math.hypot(s1, s2)

    # slowdown: time to fall below C = 0.5 grows with beta
    t_half = {}
    for beta in (0.5, 1.0, 1.5):
        times = []
        for i in range(32):
            start, _ = lab.equilibrium_sample(d16, beta,
                                              seed=3000 + 100 * i, burn_in=250)
            tr = lab.langevin_run(d16, start,
                                  LangevinConfig(beta=beta, step=0.01,
                                                 n_steps=3000,
                                                 record_every=10),
                                  seed=4000 + i)
            curve = [(t, float(start @ s) / 16.0) for t, s in tr]
            times.append(_time_below(curve, 0.5))
        t_half[beta] = float(np.mean(times))
    assert t_half[0.5] < t_half[1.0] < t_half[1.5]
    _report(8, "gradient/Euler/retraction checks pass; free diffusion "
               f"decorrelates; samplers agree ({m1:.4f} vs {m2:.4f}); "
               f"time below C=0.5 grows: {t_half}")


# ----------------------------------------------------------------------
# 9. chaos trends
# ----------------------------------------------------------------------

def test_criterion_09_chaos_trends():
    # overlap chaos shrinks with n at fixed (p, beta, eps)
    means = {}
    for n in (8, 16, 24):
        [row] = chaos_scan(n, 3, 0.5, [0.5], n_samples=12, n_disorders=32,
                           seed=7000, burn_in=250, thin=20)
        means[n] = row["overlap_sq"]
    assert means[8] > means[16] > means[24]

    # transport distance is non-decreasing in eps (3 SE slack per step,
    # strict growth overall)
    rows = chaos_scan(16, 3, 1.0, [0.0, 0.25, 0.5, 1.0], n_samples=48,
                      n_disorders=20, seed=555, burn_in=300, thin=12)
    w2 = [r["w2"] for r in rows]
    se = [r["w2_stderr"] for r in rows]
    for a, b, sa, sb in zip(w2, w2[1:], se, se[1:]):
        assert b - a >= -3 * math.hypot(sa, sb)
    assert w2[-1] - w2[0] > 3 * math.hypot(se[0], se[-1])
    _report(9, f"overlap chaos decreases in n: {means}; W2 trend over "
               f"eps {[r['epsilon'] for r in rows]}: "
               f"{np.round(w2, 4).tolist()}")


# ----------------------------------------------------------------------
# 10. reproducibility
# ----------------------------------------------------------------------

def test_criterion_10_reproducibility(tmp_path):
    for args in (["phase", "--p-max", "5"],
                 ["simulate", "--n", "8", "--n-steps", "80",
                  "--record-every", "20", "--n-traj", "2", "--seed", "13"]):
        out1 = tmp_path / f"{args[0]}1.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        cfg = tmp_path / f"{args[0]}.json"
        cfg.write_text(out1.read_text().splitlines()[0] + "\n")
        out2 = tmp_path / f"{args[0]}2.csv"
        assert cli.main([args[0], "--config", str(cfg),
                         "--out", str(out2)]) == 0
        body1 = out1.read_bytes().split(b"\r\n", 1)[1]
        body2 = out2.read_bytes().split(b"\r\n", 1)[1]
        assert body1 == body2

    direction = lab.random_configuration(8, 3)
    planted = lab.plant(8, 3, 1.2, direction, seed=77)
    chained = lab.correlate_disorder(planted, 0.4, seed=78)
    blob = json.dumps(chained.lineage.to_json())
    rebuilt = lab.reconstruct(lab.Lineage.from_json(json.loads(blob)))
    assert np.array_equal(rebuilt.entries, chained.entries)
    _report(10, "CSV bodies reproduce byte-for-byte from embedded configs; "
                "lineage reconstruction through JSON is bit-exact")
