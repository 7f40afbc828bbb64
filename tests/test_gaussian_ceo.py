"""Tests for the Gaussian CEO closed forms."""

import math

import numpy as np
import pytest

from mtsc_bounds import (
    GaussianParams,
    InfeasibleError,
    RatePoint,
    gaussian_bt_counterexample,
    gaussian_min_sum_rate,
    gaussian_region_contains,
    oohama_gap,
    search_bt_counterexample,
)

LN2 = math.log(2.0)


def test_params_validation():
    with pytest.raises(InfeasibleError):
        GaussianParams(0.0, (1.0,))
    with pytest.raises(InfeasibleError):
        GaussianParams(1.0, (1.0, -0.5))
    with pytest.raises(InfeasibleError):
        GaussianParams(1.0, ())
    for bad in (math.nan, math.inf):
        with pytest.raises(InfeasibleError, match="sigma2"):
            GaussianParams(bad, (1.0,))
        with pytest.raises(InfeasibleError, match="noise variance"):
            GaussianParams(1.0, (1.0, bad))


def test_d_min():
    params = GaussianParams(1.0, (1.0, 1.0))
    assert params.d_min == pytest.approx(1.0 / 3.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def test_membership_zero_witness_high_distortion():
    params = GaussianParams(1.0, (1.0, 1.0))
    point = RatePoint((0.0, 0.0), (1.0,))
    assert gaussian_region_contains(params, point, (0.0, 0.0))
    point2 = RatePoint((0.3, 0.9), (1.2,))
    assert gaussian_region_contains(params, point2, (0.0, 0.0))


def test_membership_tight_point():
    params = GaussianParams(1.0, (1.0, 1.0))
    r = (0.5 * LN2, 0.5 * LN2)
    # distortion-tight witness: 1/D = 1/sigma^2 + sum (1 - e^{-2r})/noise
    assert 1.0 / 0.5 == pytest.approx(1.0 + 2 * (1 - math.exp(-LN2)), abs=1e-12)
    point = RatePoint((0.75 * LN2, 0.75 * LN2), (0.5,))
    assert gaussian_region_contains(params, point, r)


def test_membership_fails_below_sum_rate():
    params = GaussianParams(1.0, (1.0, 1.0))
    r = (0.5 * LN2, 0.5 * LN2)
    point = RatePoint((0.7 * LN2, 0.7 * LN2), (0.5,))
    assert not gaussian_region_contains(params, point, r)


def test_membership_validation():
    params = GaussianParams(1.0, (1.0, 1.0))
    with pytest.raises(InfeasibleError):
        gaussian_region_contains(params, RatePoint((1.0, 1.0), (0.0,)), (0.1, 0.1))
    with pytest.raises(ValueError):
        gaussian_region_contains(params, RatePoint((1.0, 1.0), (0.5,)), (0.1,))
    with pytest.raises(ValueError):
        gaussian_region_contains(params, RatePoint((1.0, 1.0), (0.5,)), (-0.1, 0.1))
    with pytest.raises(ValueError, match="witness"):
        gaussian_region_contains(params, RatePoint((1.0, 1.0), (0.5,)), (math.nan, 0.0))
    with pytest.raises(InfeasibleError, match="D > 0"):
        gaussian_region_contains(params, RatePoint((0.0, 0.0), (math.nan,)), (0.3, 0.3))


# ---------------------------------------------------------------------------
# Minimum sum rate
# ---------------------------------------------------------------------------


def test_min_sum_rate_symmetric_two_encoders():
    params = GaussianParams(1.0, (1.0, 1.0))
    assert gaussian_min_sum_rate(params, 0.5) == pytest.approx(1.5 * LN2, abs=1e-9)


def test_min_sum_rate_equal_noises_match_the_tight_witness():
    # Test-only copy of the closed form for equal noise variances v: the
    # tight witness solves L (1 - e^{-2r}) / v = theta.
    rng = np.random.default_rng(7)
    for _ in range(250):
        L = int(rng.integers(1, 9))
        s2, v = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.1, 3.0))
        params = GaussianParams(s2, (v,) * L)
        D = params.d_min + float(rng.uniform(1e-3, 1.0)) * (s2 - params.d_min)
        theta = 1.0 / D - 1.0 / s2
        want = 0.5 * math.log(s2 / D) - 0.5 * L * math.log(1.0 - theta * v / L)
        assert gaussian_min_sum_rate(params, D) == pytest.approx(want, abs=1e-12)


def test_min_sum_rate_at_source_variance_is_zero():
    params = GaussianParams(1.0, (1.0, 1.0))
    assert gaussian_min_sum_rate(params, 1.0) == 0.0
    assert gaussian_min_sum_rate(params, 1.5) == 0.0


def test_min_sum_rate_single_encoder():
    # 1/0.6 = 1 + (1 - e^{-2r})  =>  r = ln(3)/2; plus half log(1/0.6).
    params = GaussianParams(1.0, (1.0,))
    want = 0.5 * math.log(3.0) + 0.5 * math.log(1.0 / 0.6)
    got = gaussian_min_sum_rate(params, 0.6)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(0.8047189562170503, abs=1e-12)


def test_min_sum_rate_asymmetric_against_grid_oracle():
    # Independent oracle: exhaust r_1 on a fine grid, solve r_2 in closed form
    # from the tight feasibility condition, keep the best total.
    params = GaussianParams(1.5, (0.7, 2.3))
    D = 0.5
    theta = 1.0 / D - 1.0 / params.sigma2
    best = math.inf
    for r1 in np.linspace(0.0, 6.0, 400_001):
        c1 = (1.0 - math.exp(-2.0 * r1)) / params.noise_vars[0]
        rem = theta - c1
        if rem <= 0.0:
            best = min(best, r1)
            continue
        frac = 1.0 - rem * params.noise_vars[1]
        if frac <= 0.0:
            continue
        best = min(best, r1 - 0.5 * math.log(frac))
    want = best + 0.5 * math.log(params.sigma2 / D)
    got = gaussian_min_sum_rate(params, D)
    assert got == pytest.approx(want, abs=1e-8)


def test_min_sum_rate_infeasible_distortion():
    params = GaussianParams(1.0, (1.0, 1.0))
    with pytest.raises(InfeasibleError):
        gaussian_min_sum_rate(params, params.d_min)
    with pytest.raises(InfeasibleError):
        gaussian_min_sum_rate(params, 0.2)
    with pytest.raises(ValueError, match="D must be a number"):
        gaussian_min_sum_rate(params, math.nan)


def test_min_sum_rate_monotone_in_d():
    params = GaussianParams(1.0, (1.0, 1.0))
    values = [gaussian_min_sum_rate(params, d) for d in np.linspace(0.4, 1.0, 50)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# The single-letter inequality
# ---------------------------------------------------------------------------


def test_oohama_gap_singletons_are_tight():
    params = GaussianParams(1.0, (1.0, 1.0))
    for q1 in (0.1, 1.0, 7.3):
        assert abs(oohama_gap(params, (q1, 1.0), (1,))) <= 1e-12


def test_oohama_gap_vanishing_information():
    params = GaussianParams(1.0, (1.0, 1.0))
    gap = oohama_gap(params, (1e9, 1e9), (1, 2))
    assert abs(gap) <= 1e-7


def test_oohama_gap_fuzz():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        L = int(rng.integers(1, 5))
        params = GaussianParams(
            float(rng.uniform(0.2, 3.0)), tuple(rng.uniform(0.2, 3.0, L))
        )
        q = tuple(rng.uniform(0.05, 10.0, L))
        mask = int(rng.integers(1, 1 << L))
        members = [l + 1 for l in range(L) if mask & (1 << l)]
        gap = oohama_gap(params, q, members)
        worst = min(worst, gap)
        if len(members) == 1:
            assert abs(gap) <= 1e-9
    assert worst >= -1e-10


def test_oohama_gap_validation():
    params = GaussianParams(1.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        oohama_gap(params, (1.0, -1.0), (1,))
    with pytest.raises(ValueError, match="positive test-noise variances"):
        oohama_gap(params, (math.nan, 1.0), (1, 2))
    with pytest.raises(ValueError):
        oohama_gap(params, (1.0, 1.0), ())
    with pytest.raises(ValueError):
        oohama_gap(params, (1.0, 1.0), (3,))


# ---------------------------------------------------------------------------
# The antithetic-common-noise looseness construction
# ---------------------------------------------------------------------------


def test_counterexample_at_zero_common_noise():
    ce = gaussian_bt_counterexample(0.0)
    assert ce.i_joint == pytest.approx(1.5 * LN2, abs=1e-12)
    assert 2 * ce.i_cond == pytest.approx(3 * LN2 - math.log(3.0), abs=1e-12)
    assert 2 * ce.i_cond == pytest.approx(0.980829253011726, abs=1e-12)
    assert ce.distortion == 0.5


def test_counterexample_frozen_point():
    ce = gaussian_bt_counterexample(0.1)
    assert ce.i_joint == pytest.approx(0.9962150823, abs=1e-9)
    assert 2 * ce.i_cond == pytest.approx(0.9563382334, abs=1e-9)
    assert ce.distortion == 0.5


def test_counterexample_validation():
    with pytest.raises(InfeasibleError):
        gaussian_bt_counterexample(-0.01)
    with pytest.raises(InfeasibleError, match="sigma_w2 >= 0"):
        gaussian_bt_counterexample(math.nan)


def test_search_finds_margin():
    ce = search_bt_counterexample()
    assert ce.sigma_w2 == 0.095
    assert ce.classical_outer_sum_rate <= 1.5 * LN2 - 0.04
    assert ce.distortion == 0.5
    # The grid point before it falls short of the margin.
    before = float(np.linspace(2.0 / 400, 2.0, 400)[17])
    assert gaussian_bt_counterexample(before).classical_outer_sum_rate > 1.5 * LN2 - 0.04
