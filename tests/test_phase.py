import csv
import math
from fractions import Fraction

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
    bc, one_minus_q = phase.beta_c(3)
    q = 1.0 - one_minus_q
    bc_oracle, q_oracle = brute_force_beta_c(3)
    assert bc == pytest.approx(bc_oracle, abs=1e-6)
    assert q == pytest.approx(0.645, abs=5e-3)
    assert q_oracle == pytest.approx(q, abs=1e-3)


def test_beta_c_increasing_in_p():
    vals = [phase.beta_c(p)[0] for p in (3, 4, 5, 8, 12, 20, 50)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_beta_c_ratio_decreases_toward_one():
    # beta_c ~ sqrt(log p) from above; a q grid that stops short of the
    # minimizer's 1 - q ~ 1 / (p log p) reads a larger beta_c at large p,
    # and the ratio turns up
    ratios = [phase.beta_c(p)[0] / math.sqrt(math.log(p))
              for p in (100, 1000, 10**4, 10**6, 10**8, 10**10)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 1.0


def test_beta_d_pure_matches_plateau_infimum():
    # the plateau equation's infimum sqrt(inf_q q / (xi'(q)(1-q))) for
    # xi(t) = t^p, found on a dense grid, against the closed form
    q = np.linspace(1e-3, 1.0 - 1e-7, 2_000_001)
    for p in range(3, 21):
        vals = q / (p * q ** (p - 1) * (1.0 - q))
        i = int(np.argmin(vals))
        assert math.sqrt(vals[i]) == pytest.approx(phase.beta_d_pure(p),
                                                   abs=1e-8)
        assert q[i] == pytest.approx((p - 2) / (p - 1), abs=1e-4)


@pytest.mark.parametrize("p", list(range(3, 13)) + [128, 1024, 2048, 10**4])
def test_beta_c_satisfies_both_identities(p):
    # at the objective's stationary point q_c, beta_c^2 q^p + q + log(1-q)
    # = 0 (the complexity vanishes) and beta_c^2 = 1 / (p q^{p-2} (1-q))
    # (the plateau function). The first is stationary in q, so rounding
    # q = 1 - (returned 1 - q) moves it only to second order; the second
    # moves by that rounding over 1 - q, measured below 4e-13 at these p
    bc, one_minus_q = phase.beta_c(p)
    q, log_1mq = 1.0 - one_minus_q, math.log(one_minus_q)
    sigma = bc * bc * math.exp(p * math.log(q)) + q + log_1mq
    assert abs(sigma) <= 1e-12 * abs(log_1mq)
    plateau = math.expm1(2.0 * math.log(bc) + math.log(p)
                         + (p - 2) * math.log(q) + log_1mq)
    assert abs(plateau) <= 1e-12


@pytest.mark.parametrize("p", list(range(3, 21)) + [10**4])
def test_beta_d_pure_matches_exact_rational(p):
    # beta_d^2 = (p-1)^{p-1} / (p (p-2)^{p-2}) as a fraction of Python
    # ints; its square root to 2^-80 by integer square root
    square = Fraction((p - 1) ** (p - 1), p * (p - 2) ** (p - 2))
    bits = 80
    exact = Fraction(math.isqrt(square.numerator * 4 ** bits
                                // square.denominator), 2 ** bits)
    assert abs(Fraction(phase.beta_d_pure(p)) / exact - 1) <= 1e-15


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
        assert 0.0 < float(row["one_minus_q_c"]) < 1.0


def test_input_validation():
    with pytest.raises(ValueError):
        phase.beta_c(2)
    with pytest.raises(ValueError):
        phase.beta_d_pure(2)


@pytest.mark.parametrize("p, want", [(10**100, 15.353143737213736),
                                     (10**200, 21.602350563919313),
                                     (10**205, 21.867759917678566),
                                     (3 * 10**205, 21.892917532344768)])
def test_beta_c_bits_below_the_expm1_range(p, want):
    # the sign test skips expm1 at u >= 709, where g > 0; up to p = 3.2e205,
    # where expm1 does not overflow at any midpoint, evaluating g there
    # gave the same sign (the first midpoint at 3e205 is u = 709.69), so
    # beta_c keeps the bits it had when it evaluated g at every midpoint
    bc, one_minus_q = phase.beta_c(p)
    assert bc == want
    assert_one_minus_q_c(p, one_minus_q)


@pytest.mark.parametrize("p, want", [
    (10**210, 22.12997318257317009666),
    (10**250, 24.12492288225728279496),
    (phase.P_MAX, 26.40685626024649268187),
])
def test_beta_c_above_the_expm1_range(p, want):
    # from p = 3.2e205 on the bracket's first midpoint 1.5 log(p - 1)
    # passes u = 709.78, where expm1 overflows; there g > 0 without it.
    # Each want is an 80-digit mpmath bisection of the same equation
    bc, one_minus_q = phase.beta_c(p)
    assert bc == pytest.approx(want, rel=1e-13)
    assert_one_minus_q_c(p, one_minus_q)
    assert phase.beta_d_pure(p) == pytest.approx(math.sqrt(math.e),
                                                 rel=1e-15)


# 1 - q_c = e^{-u} at the root u of g(u) = expm1(u) - (p-1) expm1(-u)
# - p u, from an mpmath bisection at 60 + digits(p) digits
ONE_MINUS_Q_C = {
    3: 0.3549925486654156017661,
    10**9: 4.375923623618505941752e-11,
    10**15: 2.691511570505192509564e-17,
    10**18: 2.260598532524007016415e-20,
    10**100: 4.260451826546212728642e-103,
    10**200: 2.147487392391095326176e-203,
    10**205: 2.095566748632418060326e-208,
    3 * 10**205: 6.96914437009561785943e-209,
    10**210: 2.046099902188166615121e-213,
    10**250: 1.721137682367931446445e-253,
    phase.P_MAX: 1.43611856162011769148e-303,
}


def assert_one_minus_q_c(p, got):
    # the bisection stops at adjacent floats, and its sign test is rounded,
    # so u lies a few ulps from the root (2.5 at most over 900 p from 3 to
    # 1e300); e^{-u} carries that absolute error in u as relative error
    want = ONE_MINUS_Q_C[p]
    assert got == pytest.approx(want, rel=4 * math.ulp(-math.log(want)))


@pytest.mark.parametrize("p", [3, 10**9, 10**15, 10**18, phase.P_MAX])
def test_one_minus_q_c_against_mpmath(p):
    # q_c itself reads 0.9999999999562408 at p = 1e9 (1 - q_c to 4e-7
    # relative) and rounds to 1 from 1e15 on; 1 - q_c keeps every digit
    assert_one_minus_q_c(p, phase.beta_c(p)[1])


@pytest.mark.parametrize("p", [phase.P_MAX + 1, 10**320])
def test_p_above_p_max_refused(p):
    for fn in (phase.beta_c, phase.beta_d_pure):
        with pytest.raises(ValueError, match=r"integer in \[3, 1e\+300\]"):
            fn(p)
