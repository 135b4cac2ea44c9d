import math
import warnings

import numpy as np
import pytest

from pspinlab import lab
from pspinlab.errors import DivergenceError, MixingWarning, StabilityWarning
from pspinlab.lab import LangevinConfig
from pspinlab.lab import samplers
from pspinlab.lab.disorder import derived_rng, sphere_project
from pspinlab.lab.energy import hamiltonian
from pspinlab.lab.observables import chaos_scan
from pspinlab.lab.samplers import ReplicaExchange


def test_retraction_keeps_sphere():
    d = lab.sample_disorder(12, 3, seed=0)
    start = lab.random_configuration(12, 1)
    cfg = LangevinConfig(beta=0.8, step=0.005, n_steps=200, record_every=20)
    traj = lab.langevin_run(d, start, cfg, seed=2)
    assert len(traj) == 11
    for _, s in traj:
        assert abs(float(s @ s) - 12.0) < 1e-12 * 12.0


def test_langevin_determinism():
    d = lab.sample_disorder(10, 3, seed=3)
    start = lab.random_configuration(10, 4)
    cfg = LangevinConfig(beta=0.5, step=0.01, n_steps=100, record_every=10)
    t1 = lab.langevin_run(d, start, cfg, seed=77)
    t2 = lab.langevin_run(d, start, cfg, seed=77)
    for (ta, sa), (tb, sb) in zip(t1, t2):
        assert ta == tb
        np.testing.assert_array_equal(sa, sb)
    # the seed keys the noise stream
    t3 = lab.langevin_run(d, start, cfg, seed=78)
    assert not np.array_equal(t1[-1][1], t3[-1][1])


def test_langevin_divergence_reports_step():
    # the renormalization retraction keeps ordinary runs finite, so the
    # overflow guard only trips when step*beta reaches float range
    d = lab.sample_disorder(8, 4, seed=5)
    start = lab.random_configuration(8, 6)
    cfg = LangevinConfig(beta=1e160, step=1e160, n_steps=5)
    with pytest.warns(StabilityWarning):
        with pytest.raises(DivergenceError) as err:
            lab.langevin_run(d, start, cfg, seed=0)
    assert "at step 1;" in str(err.value)


def test_langevin_norm_overflow_is_divergence():
    # every entry stays finite, but |sigma|^2 overflows: the retraction must
    # not rescale by sqrt(n)/inf to the zero vector and carry on
    d = lab.sample_disorder(32, 3, seed=5)
    start = lab.random_configuration(32, 6)
    cfg = LangevinConfig(beta=1.0, step=1e160, n_steps=4)
    with pytest.warns(StabilityWarning):
        with pytest.raises(DivergenceError) as err:
            lab.langevin_run(d, start, cfg, seed=0)
    assert "at step 1;" in str(err.value)


def test_stability_warning():
    d = lab.sample_disorder(8, 3, seed=1)
    start = lab.random_configuration(8, 2)
    with pytest.warns(StabilityWarning):
        lab.langevin_run(d, start,
                         LangevinConfig(beta=5.0, step=0.5, n_steps=1), seed=0)


def test_free_diffusion_decorrelates():
    d = lab.sample_disorder(16, 3, seed=9)
    overlaps = []
    for i in range(20):
        start = lab.random_configuration(16, 1000 + i)
        cfg = LangevinConfig(beta=0.0, step=0.01, n_steps=200,
                             record_every=200)
        traj = lab.langevin_run(d, start, cfg, seed=i)
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
    lambda: ReplicaExchange(lab.sample_disorder(6, 3, seed=2), math.inf),
    lambda: LangevinConfig(beta=math.inf, step=0.01, n_steps=1),
])
def test_nan_sampler_settings_rejected(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("record_every", [0, 11])
def test_record_stride_outside_the_run_rejected(record_every):
    # a stride above n_steps would record t = 0 alone after every step ran
    want = ">= 1, got 0" if record_every < 1 else "<= 10, got 11"
    with pytest.raises(ValueError, match=f"'record_every' must be {want}"):
        LangevinConfig(beta=0.5, step=0.01, n_steps=10,
                       record_every=record_every)
    LangevinConfig(beta=0.5, step=0.01, n_steps=10, record_every=10)


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


@pytest.mark.parametrize("n, p", [(8, 3), (6, 4)])
def test_batched_sweep_matches_per_rung_reference(n, p):
    d = lab.sample_disorder(n, p, seed=17)
    batched = ReplicaExchange(d, 1.0, seed=3)
    ref = _PerRungReplicaExchange(d, 1.0, seed=3)
    for i in range(300):
        adapt = i < 150  # adaptive burn-in, then plain sweeps
        batched.sweep(adapt=adapt)
        ref.sweep(adapt=adapt)
        # the cold rung's energy after every sweep
        assert abs(batched.energies[-1] - ref.energies[-1]) <= 1e-12
    np.testing.assert_allclose(batched.configs, np.array(ref.configs),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(batched.energies, ref.energies,
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


def _norm_sphere_project(x):
    """``sphere_project`` in its ``np.linalg.norm`` form, kept as the
    reference for the form without that function's dispatch."""
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    if not norm.all():
        raise ValueError("cannot project the zero vector")
    return x * (math.sqrt(x.shape[-1]) / norm)


class _AllocatingReplicaExchange(ReplicaExchange):
    """``sweep`` in the form that allocated every array afresh, drew the
    acceptance and swap uniforms in two calls and had no cap on the
    proposal scale, kept as the reference for the in-place sweep."""

    def sweep(self, adapt=False):
        n_rungs = len(self.configs)
        noise = self.rng.standard_normal(self.configs.shape)
        log_u_accept = np.log(self.rng.random(n_rungs))
        log_u_swap = np.log(self.rng.random(n_rungs - 1)).tolist()

        prop = _norm_sphere_project(self.configs + self.steps[:, None] * noise)
        e_prop = hamiltonian(self.d, prop)
        accepted = log_u_accept < self.betas * (e_prop - self.energies)
        self.configs = np.where(accepted[:, None], prop, self.configs)
        self.energies = np.where(accepted, e_prop, self.energies)
        self.n_sweeps += 1
        self._accepts += accepted
        if adapt:
            self.steps *= np.where(accepted, samplers._GROW,
                                   samplers._SHRINK)

        # each swap sees the energies left by the one before it
        energies = self.energies.tolist()
        order = list(range(n_rungs))
        swapped = np.zeros(n_rungs - 1, dtype=bool)
        for k, (dbeta, log_u) in enumerate(zip(self._swap_dbetas,
                                               log_u_swap)):
            if log_u < dbeta * (energies[k] - energies[k + 1]):
                energies[k], energies[k + 1] = energies[k + 1], energies[k]
                order[k], order[k + 1] = order[k + 1], order[k]
                swapped[k] = True
        self._swap_accepts += swapped
        self.configs = self.configs[order]
        self.energies = np.array(energies)


@pytest.mark.parametrize("n, p", [(16, 3), (8, 4)])
def test_in_place_sweep_matches_allocating_reference_bit_for_bit(n, p):
    d = lab.sample_disorder(n, p, seed=17)
    sampler = ReplicaExchange(d, 1.0, seed=3)
    ref = _AllocatingReplicaExchange(d, 1.0, seed=3)
    for i in range(300):
        adapt = i < 150  # adaptive burn-in, then plain sweeps
        sampler.sweep(adapt=adapt)
        ref.sweep(adapt=adapt)
        assert np.array_equal(sampler.energies, ref.energies)
    for name in ("configs", "energies", "steps", "_accepts",
                 "_swap_accepts"):
        assert np.array_equal(getattr(sampler, name), getattr(ref, name))
    # both kinds of move were mixed
    assert 0 < ref._accepts.sum() < 300 * samplers.N_RUNGS
    assert ref._swap_accepts.sum() > 0


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_sphere_project_matches_linalg_norm_form_bit_for_bit(scale):
    rng = np.random.default_rng(11)
    for shape in [(8, 16), (5, 3), (8, 32), (32,)]:
        x = scale * rng.standard_normal(shape)
        assert np.array_equal(sphere_project(x), _norm_sphere_project(x))


def test_adaptive_proposal_scale_is_capped():
    # at beta = 0 every proposal is accepted, so each adaptive sweep grows
    # every rung's scale: uncapped, s^2 n overflows near sweep 5900 and
    # the scale itself near sweep 11800, and the suite makes the overflow
    # warning an error
    sampler = ReplicaExchange(lab.sample_disorder(4, 3, seed=2), 0.0, seed=1)
    for _ in range(12000):
        sampler.sweep(adapt=True)
    assert np.all(sampler.steps == samplers._MAX_STEP)
    assert np.isfinite(sampler.energies).all()
    for sigma in sampler.configs:
        lab.sphere_check(sigma)


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


def test_correlation_curve_rejects_no_trajectories():
    # the one trajectory-count rule, stated in samplers._check_range
    d = lab.sample_disorder(6, 3, seed=8)
    cfg = LangevinConfig(beta=0.5, step=0.01, n_steps=10, record_every=5)
    with pytest.raises(ValueError, match="'n_traj'"):
        lab.correlation_curve(d, cfg, 0)


def test_correlation_curve_shape():
    d = lab.sample_disorder(10, 3, seed=8)
    cfg = LangevinConfig(beta=0.5, step=0.01, n_steps=100, record_every=25)
    curve = lab.correlation_curve(d, cfg, n_trajectories=3, seed=5)
    times = [t for t, _, _ in curve]
    assert times == sorted(times)
    assert curve[0][0] == 0.0
    assert curve[0][1] == pytest.approx(1.0, abs=1e-12)  # C(0) = 1
    assert all(se >= 0 for _, _, se in curve)


def test_chaos_config_invariants():
    chaos_scan(6, 3, 0.5, [0.3], n_samples=4, n_disorders=1, seed=1,
               burn_in=20, thin=2)
    d = lab.sample_disorder(6, 3, seed=1)
    # the eta = sqrt(2 eps - eps^2) mixing weight lives in correlate_disorder
    eps = 0.3
    mixed = lab.correlate_disorder(d, eps, seed=2)
    # sym(W) for the noise W of seed 2 is the disorder sampled at seed 2
    sym_w = lab.sample_disorder(6, 3, seed=2).entries
    np.testing.assert_array_equal(
        mixed.entries,
        (1.0 - eps) * d.entries + np.sqrt(2.0 * eps - eps * eps) * sym_w)
    with pytest.raises(ValueError, match="'epsilons'"):
        chaos_scan(6, 3, 0.5, [1.5], n_samples=4, n_disorders=1, seed=1,
                   burn_in=20, thin=2)
    with pytest.raises(ValueError, match="'n_samples'"):
        chaos_scan(6, 3, 0.5, [0.5], n_samples=0, n_disorders=1, seed=1,
                   burn_in=20, thin=2)


def test_chaos_scan_checks_and_warns_once(monkeypatch):
    # the static-boundary check needs beta_c(p): one call per scan, not
    # one more per disorder
    from pspinlab import phase

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


@pytest.mark.parametrize("n, p, key", [(0, 3, "n"), (4, 1, "p"),
                                       (2000, 3, "p")])
def test_chaos_scan_rejects_tensor_keys_before_work(monkeypatch, n, p, key):
    # beta = 1.2 lies inside (beta_d, beta_c) at p = 3, so a scan that
    # checked the tensor late would first compute beta_c
    from pspinlab import phase
    from pspinlab.lab import observables

    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("work started")

    monkeypatch.setattr(phase, "beta_c", record)
    monkeypatch.setattr(observables, "sample_disorder", record)
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        chaos_scan(n, p, 1.2, [0.0, 0.5], n_samples=2, n_disorders=1,
                   burn_in=10, thin=1)
    assert calls == []


def test_overlap_chaos_bounds():
    [row] = chaos_scan(8, 3, 0.5, [0.5], n_samples=6, n_disorders=1,
                       seed=33, burn_in=60, thin=5)
    assert 0.0 <= row["overlap_sq"] <= 1.0
    assert row["w2"] >= 0.0


def test_overlap_chaos_eps_zero_is_two_replica_statistic():
    # eps = 0 keeps the disorder identical, so the estimator reduces to the
    # plain two-replica overlap of one Gibbs measure, which shrinks with n
    means = {}
    for n in (8, 16):
        [row] = chaos_scan(n, 3, 0.5, [0.0], n_samples=8, n_disorders=12,
                           seed=600, burn_in=150, thin=15)
        means[n] = row["overlap_sq"]
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
