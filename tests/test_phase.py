import csv
import math

import numpy as np
import pytest

from pspinlab import cli, phase


def brute_force_beta_c(p, n_grid=400000):
    """Independent oracle: dense grid argmin of the boundary objective."""
    q = np.concatenate([np.linspace(1e-4, 0.95, n_grid // 2),
                        1.0 - np.exp(np.linspace(np.log(0.05), np.log(1e-8),
                                                 n_grid // 2))])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.power(q, -float(p)) * (-np.log1p(-q)) - np.power(q, -(p - 1.0))
    vals = np.where(np.isfinite(vals), vals, np.inf)
    i = int(np.argmin(vals))
    return math.sqrt(vals[i]), float(q[i])


def test_beta_d_closed_forms():
    assert phase.beta_d_pure(3) == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)
    assert phase.beta_d_pure(4) == pytest.approx(math.sqrt(27.0 / 16.0), abs=1e-12)


def test_beta_d_bounded_and_monotone_to_sqrt_e():
    ps = list(range(3, 200)) + [500, 1000, 5000, 10000]
    vals = [phase.beta_d_pure(p) for p in ps]
    assert all(1.0 < v < 2.0 for v in vals)
    b10, b100, b1000 = (phase.beta_d_pure(p) for p in (10, 100, 1000))
    sq_e = math.sqrt(math.e)
    assert b10 < b100 < b1000 < sq_e
    assert abs(b1000 - sq_e) < 0.05


def test_beta_c_against_brute_force():
    bc, q = phase.beta_c(3, tol=1e-10)
    bc_oracle, q_oracle = brute_force_beta_c(3)
    assert bc == pytest.approx(bc_oracle, abs=1e-6)
    assert q == pytest.approx(0.645, abs=5e-3)
    assert q_oracle == pytest.approx(q, abs=1e-3)


def test_beta_c_increasing_in_p():
    vals = [phase.beta_c(p)[0] for p in (3, 4, 5, 8, 12, 20, 50)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_beta_c_ratio_decreases_toward_one():
    ratios = [phase.beta_c(p)[0] / math.sqrt(math.log(p))
              for p in (100, 1000, 10000)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_beta_d_pure_matches_plateau_infimum():
    # the plateau equation's infimum sqrt(inf_q q / (xi'(q)(1-q))) for
    # xi(t) = t^p, found numerically, against the closed form
    for p in range(3, 21):
        q, val = phase._bracketed_min(
            lambda q: q / (p * q ** (p - 1) * (1.0 - q)), phase._q_grid(),
            1e-12)
        assert math.sqrt(val) == pytest.approx(phase.beta_d_pure(p), abs=1e-8)
        assert q == pytest.approx((p - 2) / (p - 1), abs=1e-4)


def test_phase_scan_invariants(tmp_path):
    out = tmp_path / "phase.csv"
    assert cli.main(["phase", "--p-min", "3", "--p-max", "12",
                     "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert [int(row["p"]) for row in rows] == list(range(3, 13))
    for row in rows:
        beta_d, beta_c = float(row["beta_d"]), float(row["beta_c"])
        assert beta_d < beta_c
        assert 1.0 < beta_d < 2.0
        assert 0.0 < float(row["argmin_q_c"]) < 1.0


def test_bracketed_min_budget_error_carries_bracket():
    from pspinlab.errors import SolverError

    with pytest.raises(SolverError) as err:
        phase._bracketed_min(lambda q: (q - 0.5) ** 2,
                             np.linspace(0.1, 0.9, 9), tol=1e-13, max_iter=2)
    assert err.value.bracket is not None
    assert err.value.best is not None


def test_input_validation():
    with pytest.raises(ValueError):
        phase.beta_c(2)
    with pytest.raises(ValueError):
        phase.beta_c(3, tol=-1.0)
    with pytest.raises(ValueError):
        phase.beta_d_pure(2)
