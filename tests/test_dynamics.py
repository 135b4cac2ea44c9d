import math
import warnings

import numpy as np
import pytest

from pspinlab import lab
from pspinlab.errors import DivergenceError, MixingWarning, StabilityWarning
from pspinlab.lab import LangevinConfig
from pspinlab.lab.disorder import derived_rng, sphere_project
from pspinlab.lab.energy import hamiltonian
from pspinlab.lab.samplers import ReplicaExchange


def test_retraction_keeps_sphere():
    d = lab.sample_disorder(12, 3, seed=0)
    start = lab.random_configuration(12, 1)
    cfg = LangevinConfig(beta=0.8, step=0.005, n_steps=200, record_every=20,
                         seed=2)
    traj = lab.langevin_run(d, start, cfg)
    assert len(traj) == 11
    for _, s in traj:
        assert abs(float(s @ s) - 12.0) < 1e-12 * 12.0


def test_langevin_determinism():
    d = lab.sample_disorder(10, 3, seed=3)
    start = lab.random_configuration(10, 4)
    cfg = LangevinConfig(beta=0.5, step=0.01, n_steps=100, record_every=10,
                         seed=77)
    t1 = lab.langevin_run(d, start, cfg)
    t2 = lab.langevin_run(d, start, cfg)
    for (ta, sa), (tb, sb) in zip(t1, t2):
        assert ta == tb
        np.testing.assert_array_equal(sa, sb)


def test_langevin_divergence_reports_step():
    # the renormalization retraction keeps ordinary runs finite, so the
    # overflow guard only trips when step*beta reaches float range
    d = lab.sample_disorder(8, 4, seed=5)
    start = lab.random_configuration(8, 6)
    cfg = LangevinConfig(beta=1e160, step=1e160, n_steps=5, seed=0)
    with pytest.warns(StabilityWarning):
        with pytest.raises(DivergenceError) as err:
            lab.langevin_run(d, start, cfg)
    assert err.value.step == 1


def test_langevin_norm_overflow_is_divergence():
    # every entry stays finite, but |sigma|^2 overflows: the retraction must
    # not rescale by sqrt(n)/inf to the zero vector and carry on
    d = lab.sample_disorder(32, 3, seed=5)
    start = lab.random_configuration(32, 6)
    cfg = LangevinConfig(beta=1.0, step=1e160, n_steps=4, seed=0)
    with pytest.warns(StabilityWarning):
        with pytest.raises(DivergenceError) as err:
            lab.langevin_run(d, start, cfg)
    assert err.value.step == 1


def test_stability_warning():
    d = lab.sample_disorder(8, 3, seed=1)
    start = lab.random_configuration(8, 2)
    with pytest.warns(StabilityWarning):
        lab.langevin_run(d, start,
                         LangevinConfig(beta=5.0, step=0.5, n_steps=1, seed=0))


def test_free_diffusion_decorrelates():
    d = lab.sample_disorder(16, 3, seed=9)
    overlaps = []
    for i in range(20):
        start = lab.random_configuration(16, 1000 + i)
        cfg = LangevinConfig(beta=0.0, step=0.01, n_steps=200,
                             record_every=200, seed=i)
        traj = lab.langevin_run(d, start, cfg)
        overlaps.append(float(start @ traj[-1][1]) / 16.0)
    assert abs(np.mean(overlaps)) < 0.3  # E C(2) ~ e^-2 ~ 0.14


def test_equilibrium_sample_interface():
    d = lab.sample_disorder(8, 3, seed=21)
    s, diag = lab.equilibrium_sample(d, 0.5, seed=3, burn_in=100)
    lab.sphere_check(s)
    assert "swap_acceptance" in diag and "acceptance" in diag


def test_sample_is_run_draw_then_mixing_check():
    d = lab.sample_disorder(6, 3, seed=2)
    ref = ReplicaExchange(d, 1.0, seed=5)
    for _ in range(30):
        ref.sweep(adapt=True)
    want = []
    for _ in range(4):
        for _ in range(3):
            ref.sweep()
        want.append(ref.configs[-1].copy())
    sampler = ReplicaExchange(d, 1.0, seed=5)
    got = sampler.sample(4, burn_in=30, thin=3)
    np.testing.assert_array_equal(np.array(got), np.array(want))
    np.testing.assert_array_equal(sampler.steps, ref.steps)
    assert sampler.n_sweeps == 30 + 4 * 3
    sampler._swap_accepts[:] = 0.0  # dead swaps: the check must fire
    sampler.n_sweeps = 100
    with pytest.warns(MixingWarning):
        sampler.sample(1, burn_in=0, thin=1)


@pytest.mark.parametrize("make", [
    lambda: ReplicaExchange(lab.sample_disorder(6, 3, seed=2), math.nan),
    lambda: LangevinConfig(beta=math.nan, step=0.01, n_steps=1),
    lambda: LangevinConfig(beta=1.0, step=math.nan, n_steps=1),
])
def test_nan_sampler_settings_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_equilibrium_beta_zero_is_uniform():
    d = lab.sample_disorder(8, 3, seed=30)
    sampler = ReplicaExchange(d, 0.0, seed=4)
    draws = sampler.sample(800, burn_in=50, thin=2)
    coord = np.array([s[0] for s in draws])
    # coordinates have unit variance on the sphere
    assert abs(coord.mean()) < 4.0 / np.sqrt(len(draws))


def test_mixing_warning_on_dead_swaps():
    d = lab.sample_disorder(6, 3, seed=2)
    sampler = ReplicaExchange(d, 1.0, seed=0)
    sampler.n_sweeps = 100
    sampler._swap_accepts[:] = 0.0
    with pytest.warns(MixingWarning):
        sampler.check_mixing()


class _PerRungReplicaExchange:
    """Replica exchange updating one rung at a time, kept as the reference
    that the batched ``ReplicaExchange.sweep`` must reproduce. A sweep reads
    the random stream as the batched one does: all proposal normals, then
    the acceptance uniforms, then the swap uniforms."""

    def __init__(self, d, beta, n_rungs=8, seed=0, target_accept=0.4,
                 initial_step=0.5):
        self.d = d
        ratio = (1.0 / 8.0) ** (1.0 / (n_rungs - 1))
        self.betas = beta * ratio ** np.arange(n_rungs - 1, -1, -1)
        self.rng = derived_rng(seed, "replica-exchange")
        self.configs = [sphere_project(self.rng.standard_normal(d.n))
                        for _ in range(n_rungs)]
        self.energies = [hamiltonian(d, s) for s in self.configs]
        self.steps = np.full(n_rungs, float(initial_step))
        self.target_accept = target_accept
        self._accepts = np.zeros(n_rungs)
        self._proposals = np.zeros(n_rungs)
        self._swap_accepts = np.zeros(n_rungs - 1)
        self._swap_attempts = np.zeros(n_rungs - 1)
        self.energy_trace = []

    def sweep(self, adapt=False):
        n_rungs = len(self.betas)
        noise = self.rng.standard_normal((n_rungs, self.d.n))
        u_accept = self.rng.random(n_rungs)
        u_swap = self.rng.random(n_rungs - 1)
        for k, bk in enumerate(self.betas):
            prop = sphere_project(self.configs[k] + self.steps[k] * noise[k])
            e_prop = hamiltonian(self.d, prop)
            self._proposals[k] += 1
            accepted = np.log(u_accept[k]) < bk * (e_prop - self.energies[k])
            if accepted:
                self.configs[k] = prop
                self.energies[k] = e_prop
                self._accepts[k] += 1
            if adapt:
                # stochastic approximation toward the target acceptance rate
                move = (1.0 - self.target_accept) if accepted \
                    else -self.target_accept
                self.steps[k] *= math.exp(0.1 * move)
        for k in range(n_rungs - 1):
            self._swap_attempts[k] += 1
            log_r = (self.betas[k + 1] - self.betas[k]) \
                * (self.energies[k] - self.energies[k + 1])
            if np.log(u_swap[k]) < log_r:
                self.configs[k], self.configs[k + 1] = \
                    self.configs[k + 1], self.configs[k]
                self.energies[k], self.energies[k + 1] = \
                    self.energies[k + 1], self.energies[k]
                self._swap_accepts[k] += 1
        self.energy_trace.append(self.energies[-1])


@pytest.mark.parametrize("n, p", [(8, 3), (6, 4)])
def test_batched_sweep_matches_per_rung_reference(n, p):
    d = lab.sample_disorder(n, p, seed=17)
    batched = ReplicaExchange(d, 1.0, seed=3)
    ref = _PerRungReplicaExchange(d, 1.0, seed=3)
    for i in range(300):
        adapt = i < 150  # adaptive burn-in, then plain sweeps
        batched.sweep(adapt=adapt)
        ref.sweep(adapt=adapt)
    np.testing.assert_allclose(batched.configs, np.array(ref.configs),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(batched.energies, ref.energies,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(batched.energy_trace, ref.energy_trace,
                               rtol=0, atol=1e-12)
    for name in ("_accepts", "_swap_accepts"):
        assert np.array_equal(getattr(batched, name), getattr(ref, name))
    # every rung proposes and every pair tries a swap once per sweep
    assert batched.n_sweeps == 300
    assert np.all(ref._proposals == 300) and np.all(ref._swap_attempts == 300)
    np.testing.assert_allclose(batched.steps, ref.steps, rtol=1e-15, atol=0)
    # the comparison only means something if both kinds of move were mixed:
    # some proposals rejected, some swaps accepted
    assert 0 < ref._accepts.sum() < ref._proposals.sum()
    assert 0 < ref._swap_accepts.sum() < ref._swap_attempts.sum()


# each bad length comes with a burn-in that would sweep if it ran first
@pytest.mark.parametrize("call", [
    lambda s: s.sample(1, burn_in=-1, thin=1),
    lambda s: s.sample(0, burn_in=5, thin=1),
    lambda s: s.sample(2, burn_in=5, thin=0)])
def test_sampler_rejects_bad_run_lengths(call):
    sampler = ReplicaExchange(lab.sample_disorder(6, 3, seed=2), 1.0)
    with pytest.raises(ValueError):
        call(sampler)
    assert sampler.n_sweeps == 0


def test_correlation_curve_shape():
    d = lab.sample_disorder(10, 3, seed=8)
    cfg = LangevinConfig(beta=0.5, step=0.01, n_steps=100, record_every=25,
                         seed=0)
    curve = lab.correlation_curve(d, cfg, n_trajectories=3, seed=5)
    times = [t for t, _, _ in curve]
    assert times == sorted(times)
    assert curve[0][0] == 0.0
    assert curve[0][1] == pytest.approx(1.0, abs=1e-12)  # C(0) = 1
    assert all(se >= 0 for _, _, se in curve)


def test_chaos_config_invariants():
    d = lab.sample_disorder(6, 3, seed=1)
    lab.chaos_one_disorder(d, 0.5, [0.3], n_samples=4, key=(0,),
                           burn_in=20, thin=2)
    # the eta = sqrt(2 eps - eps^2) mixing weight lives in correlate_disorder
    eps = 0.3
    mixed = lab.correlate_disorder(d, eps, seed=2)
    w = derived_rng(2).standard_normal(d.entries.shape)
    np.testing.assert_array_equal(
        mixed.entries,
        (1.0 - eps) * d.entries + np.sqrt(2.0 * eps - eps * eps) * w)
    with pytest.raises(ValueError):
        lab.chaos_one_disorder(d, 0.5, [1.5], n_samples=4, key=(0,),
                               burn_in=20, thin=2)
    with pytest.raises(ValueError):
        lab.chaos_one_disorder(d, 0.5, [0.5], n_samples=0, key=(0,),
                               burn_in=20, thin=2)


def test_overlap_chaos_warns_beyond_static_boundary():
    d = lab.sample_disorder(6, 3, seed=50)
    with pytest.warns(UserWarning, match="static boundary"):
        lab.chaos_one_disorder(d, 1.5, [0.5], n_samples=2, key=(0,),
                               burn_in=20, thin=2)


def test_chaos_scan_checks_and_warns_once(monkeypatch):
    # the static-boundary check needs beta_c(p), a minimization: one per
    # scan, not one more per disorder
    from pspinlab import phase
    from pspinlab.lab.observables import chaos_scan

    calls = []
    beta_c = phase.beta_c

    def counted(*args, **kwargs):
        calls.append(args)
        return beta_c(*args, **kwargs)

    monkeypatch.setattr(phase, "beta_c", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = chaos_scan(4, 3, 1.5, [0.0, 1.0], n_samples=2, n_disorders=3,
                          burn_in=10, thin=1)
    assert len(rows) == 2
    assert len(calls) == 1
    assert sum("static boundary" in str(w.message) for w in caught) == 1


def test_overlap_chaos_bounds():
    d = lab.sample_disorder(8, 3, seed=33)
    [(val, w2)] = lab.chaos_one_disorder(d, 0.5, [0.5], n_samples=6,
                                         key=(0,), burn_in=60, thin=5)
    assert 0.0 <= val <= 1.0
    assert w2 >= 0.0


def test_overlap_chaos_eps_zero_is_two_replica_statistic():
    # eps = 0 keeps the disorder identical, so the estimator reduces to the
    # plain two-replica overlap of one Gibbs measure, which shrinks with n
    means = {}
    for n in (8, 16):
        vals = []
        for j in range(12):
            d = lab.sample_disorder(n, 3, seed=600 + j)
            [(m, _)] = lab.chaos_one_disorder(
                d, 0.5, [0.0], n_samples=8, key=(660 + j,),
                burn_in=150, thin=15)
            vals.append(m)
        means[n] = float(np.mean(vals))
    assert means[8] > means[16]


def test_equilibrium_energy_matches_annealed_slope():
    # <H>/N at (n=20, p=3, beta=0.5) should track beta * xi(1) = 0.5
    # up to finite-size corrections (10%); 400 draws put the sampling sd
    # near 0.015, so the check does not hang on one lucky stream
    d = lab.sample_disorder(20, 3, seed=45)
    sampler = ReplicaExchange(d, 0.5, seed=9)
    draws = sampler.sample(400, burn_in=300, thin=10)
    mean_e = np.mean([lab.hamiltonian(d, s) / 20.0 for s in draws])
    assert abs(mean_e - 0.5) < 0.05
