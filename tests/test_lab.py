import concurrent.futures
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from pspinlab import lab
from pspinlab.lab import observables
from pspinlab.lab.disorder import derived_rng
from pspinlab.errors import SizeError


def overlap_pair(n, q, seed):
    """Two configurations with exact overlap q."""
    rng = np.random.default_rng(seed)
    a = lab.sphere_project(rng.standard_normal(n))
    u = rng.standard_normal(n)
    u -= a * (float(a @ u) / n)
    u = lab.sphere_project(u)
    b = q * a + np.sqrt(1 - q * q) * u
    return a, lab.sphere_project(b)


def test_sampling_determinism():
    d1 = lab.sample_disorder(6, 3, seed=123)
    d2 = lab.sample_disorder(6, 3, seed=123)
    np.testing.assert_array_equal(d1.entries, d2.entries)
    d3 = lab.sample_disorder(6, 3, seed=124)
    assert not np.array_equal(d1.entries, d3.entries)


def test_entry_moments():
    d = lab.sample_disorder(16, 3, seed=5)
    assert d.entries.size == 16 ** 3
    assert abs(d.entries.mean()) < 4.0 / np.sqrt(16 ** 3)


@pytest.mark.parametrize("shape, lineage_np", [
    ((4, 4), (4, 3)), ((4, 4, 3), (4, 3)), ((4, 4, 4, 4), (4, 3)),
    # replay would build a (5, 5) tensor from this lineage
    ((4, 4, 4), (5, 2)),
], ids=["shape0", "shape1", "shape2", "lineage"])
def test_disorder_rejects_entries_of_another_shape(shape, lineage_np):
    lineage = lab.Lineage(*lineage_np, seed=0)
    with pytest.raises(ValueError, match=r"shape \(n,\) \* p"):
        lab.Disorder(n=4, p=3, entries=np.zeros(shape), lineage=lineage)


def test_size_budget():
    with pytest.raises(SizeError):
        lab.sample_disorder(2 ** 11, 3, seed=0)


def test_hamiltonian_small_cases():
    d = lab.sample_disorder(1, 3, seed=9)
    g = float(d.entries.ravel()[0])
    assert lab.hamiltonian(d, np.array([1.0])) == pytest.approx(g, abs=0)

    d2 = lab.sample_disorder(2, 2, seed=0)
    object.__setattr__(d2, "entries", np.eye(2))
    s = np.array([np.sqrt(2.0), 0.0])
    assert lab.hamiltonian(d2, s) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_homogeneity_sign():
    for p in (2, 3, 4):
        d = lab.sample_disorder(5, p, seed=p)
        s = lab.random_configuration(5, p + 10)
        assert lab.hamiltonian(d, -s) == pytest.approx(
            (-1.0) ** p * lab.hamiltonian(d, s), abs=1e-12)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_hamiltonian_batch_matches_single_rows(p):
    d = lab.sample_disorder(5, p, seed=40 + p)
    batch = lab.sphere_project(
        np.random.default_rng(p).standard_normal((7, 5)))
    energies = lab.hamiltonian(d, batch)
    assert energies.shape == (7,)
    for k in range(7):
        single = lab.hamiltonian(d, batch[k])
        assert type(single) is float
        assert energies[k] == pytest.approx(single, rel=1e-12, abs=0)


@pytest.mark.parametrize("shape", [(3, 6), (2, 3, 5), (4,)])
def test_hamiltonian_rejects_bad_shapes(shape):
    d = lab.sample_disorder(5, 3, seed=1)
    with pytest.raises(ValueError):
        lab.hamiltonian(d, np.ones(shape))


def test_sphere_project_batch_rows():
    x = np.random.default_rng(0).standard_normal((6, 9))
    rows = lab.sphere_project(x)
    assert rows.shape == (6, 9)
    np.testing.assert_allclose((rows ** 2).sum(axis=1), 9.0, rtol=1e-14)
    for k in range(6):
        np.testing.assert_allclose(rows[k], lab.sphere_project(x[k]),
                                   rtol=1e-15)
    x[3] = 0.0
    with pytest.raises(ValueError):
        lab.sphere_project(x)


def test_euler_identity_and_projection():
    rng = np.random.default_rng(31)
    for p in (2, 3, 4):
        d = lab.sample_disorder(10, p, seed=p)
        for _ in range(5):
            s = lab.sphere_project(rng.standard_normal(10))
            h = lab.hamiltonian(d, s)
            g = lab.gradient(d, s)
            assert abs(float(s @ g) - p * h) <= 1e-9 * max(abs(p * h), 1.0)
            gs = lab.spherical_gradient(d, s)
            assert abs(float(s @ gs)) <= 1e-9 * np.linalg.norm(g)


def test_gradient_matches_finite_differences():
    d = lab.sample_disorder(10, 3, seed=77)
    rng = np.random.default_rng(8)
    h = 1e-5
    eye = np.eye(10)
    for _ in range(20):
        s = lab.sphere_project(rng.standard_normal(10))
        g = lab.gradient(d, s)
        fd = np.array([(lab.hamiltonian(d, s + h * e)
                        - lab.hamiltonian(d, s - h * e)) / (2 * h)
                       for e in eye])
        assert np.max(np.abs(g - fd)) / np.max(np.abs(g)) < 1e-6


def slot_sum_reference(d, sigma, roles):
    """Brute force over the raw entries: sum over ordered tuples of distinct
    slots, the k-th slot of a tuple taking roles[k] (a vector, or None to
    stay a free index, free indices in tuple order), every other slot
    contracted with sigma."""
    letters = "abcdefgh"[:d.p]
    n_free = sum(r is None for r in roles)
    total = np.zeros((d.n,) * n_free)
    for slots in itertools.permutations(range(d.p), len(roles)):
        subs, operands, out = [letters], [d.entries], ""
        for slot in range(d.p):
            role = roles[slots.index(slot)] if slot in slots else sigma
            if role is not None:
                subs.append(letters[slot])
                operands.append(role)
        for slot, role in zip(slots, roles):
            if role is None:
                out += letters[slot]
        total += np.einsum(",".join(subs) + "->" + out, *operands)
    return float(d.n) ** (-(d.p - 1) / 2.0) * total


def test_derivatives_match_slot_sum_reference():
    rng = np.random.default_rng(12)
    for p in (2, 3, 4, 5):
        for n in (1, 2, 4, 6):
            d = lab.sample_disorder(n, p, seed=100 * p + n)
            s = lab.sphere_project(rng.standard_normal(n))
            got = lab.gradient(d, s)
            want = slot_sum_reference(d, s, (None,))
            assert got.shape == want.shape
            scale = max(np.max(np.abs(want)), 1e-300)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


def einsum_contract(tensor, vectors):
    """Reference contraction by one np.einsum: the trailing slots of
    ``tensor`` take ``vectors`` (last slot, first vector), the leading
    slots stay free."""
    letters = "abcdefgh"[:tensor.ndim]
    free = tensor.ndim - len(vectors)
    subs = [letters] + [letters[tensor.ndim - 1 - k]
                        for k in range(len(vectors))]
    return np.einsum(",".join(subs) + "->" + letters[:free], tensor,
                     *vectors)


def assert_close_rel(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


# the sizes the benchmark runs, where BLAS blocks the flat products
BENCHMARK_SIZES = [(32, 3), (16, 4)]


def raw_draw(n, p, seed):
    """The i.i.d. draw that ``sample_disorder(n, p, seed)`` symmetrizes."""
    return derived_rng(seed).standard_normal((n,) * p)


def permutation_mean(g):
    perms = list(itertools.permutations(range(g.ndim)))
    return sum(g.transpose(perm) for perm in perms) / len(perms)


@pytest.mark.parametrize("n, p", BENCHMARK_SIZES)
def test_derivatives_match_einsum_at_benchmark_sizes(n, p):
    seed = 7 * n + p
    d = lab.sample_disorder(n, p, seed=seed)
    # the flat contractions reshape S on every call; in a permuted memory
    # layout each reshape would be a full copy
    assert d.entries.flags.c_contiguous
    g = raw_draw(n, p, seed)
    assert_close_rel(d.entries, permutation_mean(g), rel=1e-14)
    rng = np.random.default_rng(n + p)
    scale = float(n) ** (-(p - 1) / 2.0)
    for _ in range(3):
        s = lab.sphere_project(rng.standard_normal(n))
        # d/dsigma of <G, sigma^p>: slot k of G free, the others take sigma
        want = scale * sum(einsum_contract(np.moveaxis(g, k, 0),
                                           [s] * (p - 1)) for k in range(p))
        assert_close_rel(lab.gradient(d, s), want)


@pytest.mark.parametrize("n, p", BENCHMARK_SIZES)
def test_hamiltonian_matches_einsum_at_benchmark_sizes(n, p):
    seed = 11 * n + p
    d = lab.sample_disorder(n, p, seed=seed)
    batch = lab.sphere_project(
        np.random.default_rng(n * p).standard_normal((8, n)))
    letters = "abcdefgh"[:p]
    # H(S) = H(G): the reference contracts the raw draw
    want = float(n) ** (-(p - 1) / 2.0) * np.einsum(
        letters + "," + ",".join("k" + c for c in letters) + "->k",
        raw_draw(n, p, seed), *[batch] * p)
    assert_close_rel(lab.hamiltonian(d, batch), want)
    assert_close_rel([lab.hamiltonian(d, row) for row in batch], want)


def test_symmetric_tensor_is_permutation_mean():
    for p in (2, 3, 4, 5):
        d = lab.sample_disorder(4, p, seed=p)
        assert d.entries.flags.c_contiguous
        mean = permutation_mean(raw_draw(4, p, p))
        tol = 1e-14 * np.max(np.abs(mean))
        assert np.max(np.abs(d.entries - mean)) <= tol
        planted = lab.plant(4, p, 1.5, lab.random_configuration(4, p), seed=p)
        for sym in (d.entries, planted.entries,
                    lab.correlate_disorder(planted, 0.3, seed=p).entries):
            for perm in itertools.permutations(range(p)):
                assert np.max(np.abs(sym.transpose(perm) - sym)) <= tol


def test_disorder_holds_one_tensor():
    d = lab.sample_disorder(48, 4, seed=0)
    s = lab.random_configuration(48, 1)
    lab.hamiltonian(d, s)
    lab.gradient(d, s)
    arrays = [v for v in vars(d).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == 8 * 48 ** 4


def test_spike_and_correlation_build_in_place():
    # drawing and symmetrizing a tensor peaks near two tensors; the spike
    # and the correlated mix are added into that draw, not beside it
    n, p = 24, 4
    parent = lab.sample_disorder(n, p, seed=0)
    direction = lab.random_configuration(n, 1)
    for build in (lambda: lab.plant(n, p, 1.5, direction, seed=2),
                  lambda: lab.correlate_disorder(parent, 0.3, seed=3)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * 8 * n ** p


def test_derivatives_leave_entries_lineage_exact():
    direction = lab.random_configuration(6, 5)
    planted = lab.plant(6, 3, 0.8, direction, seed=3)
    chained = lab.correlate_disorder(planted, 0.25, seed=4)
    before = chained.entries.copy()
    s = lab.random_configuration(6, 9)
    lab.gradient(chained, s)
    np.testing.assert_array_equal(chained.entries, before)
    np.testing.assert_array_equal(
        lab.reconstruct(chained.lineage).entries, chained.entries)


def test_plant_decomposition_and_lineage():
    direction = lab.random_configuration(8, 3)
    planted = lab.plant(8, 3, 1.5, direction, seed=11)
    noise_only = lab.sample_disorder(8, 3, seed=11)
    got = lab.hamiltonian(planted, direction) - 1.5 * 8
    want = lab.hamiltonian(noise_only, direction)
    assert got == pytest.approx(want, rel=1e-9)
    rebuilt = lab.reconstruct(planted.lineage)
    np.testing.assert_array_equal(rebuilt.entries, planted.entries)


def test_plant_beta_zero_is_plain_noise():
    direction = lab.random_configuration(6, 1)
    planted = lab.plant(6, 3, 0.0, direction, seed=2)
    np.testing.assert_array_equal(planted.entries,
                                  lab.sample_disorder(6, 3, seed=2).entries)


def test_plant_requires_sphere():
    with pytest.raises(ValueError):
        lab.plant(6, 3, 1.0, 2.0 * np.ones(6), seed=0)


def test_correlate_endpoints_and_lineage():
    d = lab.sample_disorder(8, 3, seed=42)
    same = lab.correlate_disorder(d, 0.0, seed=1)
    np.testing.assert_array_equal(same.entries, d.entries)
    indep = lab.correlate_disorder(d, 1.0, seed=1)
    r = np.corrcoef(d.entries.ravel(), indep.entries.ravel())[0, 1]
    assert abs(r) < 4.0 / np.sqrt(d.entries.size)
    mid = lab.correlate_disorder(d, 0.3, seed=1)
    rebuilt = lab.reconstruct(mid.lineage)
    np.testing.assert_array_equal(rebuilt.entries, mid.entries)
    with pytest.raises(ValueError):
        lab.correlate_disorder(d, 1.2, seed=0)


def test_correlation_coefficient_matches_one_minus_eps():
    d = lab.sample_disorder(16, 4, seed=7)
    c = lab.correlate_disorder(d, 0.3, seed=8)
    x = d.entries.ravel()
    y = c.entries.ravel()
    r = np.corrcoef(x, y)[0, 1]
    se = (1 - 0.7 ** 2) / np.sqrt(x.size)
    assert abs(r - 0.7) < 4 * se


def test_lineage_json_round_trip():
    direction = lab.random_configuration(6, 5)
    planted = lab.plant(6, 3, 0.8, direction, seed=3)
    chained = lab.correlate_disorder(planted, 0.25, seed=4)
    blob = chained.lineage.to_json()
    rebuilt = lab.reconstruct(lab.Lineage.from_json(blob))
    np.testing.assert_array_equal(rebuilt.entries, chained.entries)


@pytest.mark.parametrize("kind", ["sampled", "planted", "correlated"])
def test_lineage_json_round_trip_compares_equal(kind):
    d = lab.sample_disorder(6, 3, seed=3)
    if kind != "sampled":
        d = lab.plant(6, 3, 0.8, lab.random_configuration(6, 5), seed=3)
    if kind == "correlated":
        d = lab.correlate_disorder(d, 0.25, seed=4)
    text = json.dumps(d.lineage.to_json())
    lineage = lab.Lineage.from_json(json.loads(text))
    assert lineage == d.lineage
    np.testing.assert_array_equal(lab.reconstruct(lineage).entries, d.entries)


def test_lineage_from_json_rejects_unknown_key():
    blob = lab.sample_disorder(4, 3, seed=0).lineage.to_json()
    with pytest.raises(TypeError):
        lab.Lineage.from_json({**blob, "sede": 1})


def test_covariance_law_quick():
    # empirical E[H(s1)H(s2)]/N ~ q^p at one overlap as a cheap version of
    # the full acceptance check
    n, p, q, trials = 8, 3, 0.5, 1500
    s1, s2 = overlap_pair(n, q, seed=0)
    k1 = np.einsum("i,j,k->ijk", s1, s1, s1).ravel()
    k2 = np.einsum("i,j,k->ijk", s2, s2, s2).ravel()
    rng = np.random.default_rng(10)
    ent = rng.standard_normal((trials, n ** p))
    scale = float(n) ** (-(p - 1) / 2.0)
    h1 = scale * ent @ k1
    h2 = scale * ent @ k2
    prods = h1 * h2 / n
    se = prods.std(ddof=1) / np.sqrt(trials)
    assert abs(prods.mean() - q ** p) < 3 * se


def test_w2_basics():
    a = [lab.random_configuration(8, i) for i in range(12)]
    assert lab.w2_empirical(a, list(a)) == 0.0
    assert lab.w2_empirical(a, a[::-1]) == 0.0
    assert lab.w2_empirical([a[0]], [-a[0]]) == pytest.approx(2.0, abs=1e-12)
    b = [lab.random_configuration(8, 100 + i) for i in range(12)]
    assert lab.w2_empirical(a, b) == pytest.approx(lab.w2_empirical(b, a),
                                                   abs=1e-12)
    with pytest.raises(ValueError):
        lab.w2_empirical(a, b[:-1])
    with pytest.raises(ValueError):
        lab.w2_empirical(np.empty((0, 8)), np.empty((0, 8)))
    big = [np.ones(4)] * 1025
    with pytest.raises(ValueError):
        lab.w2_empirical(big, big)


def brute_force_min_cost(cost):
    m = len(cost)
    perms = np.array(list(itertools.permutations(range(m))))
    return cost[np.arange(m), perms].sum(axis=1).min()


@pytest.mark.parametrize("kind", ["random", "integer ties", "constant"])
def test_assignment_matches_brute_force(kind):
    rng = np.random.default_rng(17)
    for m in range(1, 7):
        for _ in range(20):
            cost = {"random": rng.random((m, m)),
                    "integer ties": rng.integers(0, 3, (m, m)).astype(float),
                    "constant": np.full((m, m), 2.5)}[kind]
            cols = observables._assignment(cost)
            assert sorted(cols.tolist()) == list(range(m))
            got = cost[np.arange(m), cols].sum()
            assert got == pytest.approx(brute_force_min_cost(cost), rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 16, 64, 257])
def test_w2_matches_scipy_reference(m):
    # scipy's cdist and linear_sum_assignment, the path the numpy solver
    # replaced, kept here as the reference where scipy is installed (the
    # package does not need it)
    linear_sum_assignment = pytest.importorskip(
        "scipy.optimize").linear_sum_assignment
    cdist = pytest.importorskip("scipy.spatial.distance").cdist
    n = 16
    a = np.array([lab.random_configuration(n, i) for i in range(m)])
    b = np.array([lab.random_configuration(n, 10_000 + i) for i in range(m)])
    cost = cdist(a, b, "sqeuclidean") / n
    rows, want = linear_sum_assignment(cost)
    # random sphere points have a unique optimal matching
    np.testing.assert_array_equal(observables._assignment(cost), want)
    assert lab.w2_empirical(a, b) == pytest.approx(
        math.sqrt(cost[rows, want].mean()), rel=1e-12)


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_w2_rejects_non_finite_costs(bad, side):
    pair = [[lab.random_configuration(8, 10 * s + i) for i in range(4)]
            for s in range(2)]
    pair[side][2][3] = bad
    with pytest.raises(ValueError):
        lab.w2_empirical(*pair)


def test_configuration_helpers():
    s = lab.random_configuration(16, 3)
    lab.sphere_check(s)
    with pytest.raises(ValueError):
        lab.sphere_check(1.5 * s)
    with pytest.raises(ValueError):
        lab.sphere_project(np.zeros(4))


def test_derived_seed_is_first_draw_of_derived_rng():
    # every seeded stream in the lab is keyed this way; changing the draw
    # would change every simulate and chaos body
    from pspinlab.lab.disorder import derived_rng, derived_seed
    for key in [(0,), (3, 1, 0), (5, 2, "d"), (1, "eps", 250000000)]:
        seed = derived_seed(*key)
        assert type(seed) is int and 0 <= seed < 2 ** 63
        assert seed == int(derived_rng(*key).integers(2 ** 63))
    assert derived_seed(3, 1, 0) != derived_seed(3, 1, 1)


def test_map_parallel_starts_no_more_workers_than_items(monkeypatch):
    # a pool that records its size and maps in this process, so the test
    # starts no process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert observables.map_parallel(lambda x: -x, [1, 2], threads=64) \
        == [-1, -2]
    assert sizes == [2]
