"""Tests for the Gaussian CEO closed forms."""

import decimal
import math
import random
from fractions import Fraction

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
    for D in (math.nan, math.inf, -math.inf):
        with pytest.raises(InfeasibleError, match="D > 0"):
            gaussian_region_contains(params, RatePoint((0.0, 0.0), (D,)), (0.3, 0.3))


def test_membership_at_the_ends_of_the_float_range():
    # D (1/sigma^2) overflows or underflows, or 1/sigma^2 overflows: no log+
    # may see a ratio of 0 or inf.
    for sigma2, noise, D, r, R in (
        (5e-324, (1.0, 1.0), 0.5, (0.3, 0.3), (0.8, 0.8)),
        (1e-10, (1.0,), 1e308, (0.0,), (0.0,)),
        (1e308, (1.0, 1.0), 5e-324, (0.3, 0.3), (0.8, 0.8)),
    ):
        point = RatePoint(R, (D,))
        assert gaussian_region_contains(GaussianParams(sigma2, noise), point, r) == (sigma2 < 1)
    # The tight witness at sigma^2 = 1e308 (see the sum-rate test below): the
    # full set needs (1/2) log(sigma^2 / D) + sum_l r_l, about 356 nats.
    params = GaussianParams(1e308, (1.0, 0.5, 2.0))
    r = (0.5 * LN2, LN2, 0.0)
    base = 0.5 * (math.log(1e308) - math.log(0.5))
    assert gaussian_region_contains(params, RatePoint([v + base for v in r], (0.5,)), r)
    assert not gaussian_region_contains(params, RatePoint([base / 3] * 3, (0.5,)), r)


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
    for D in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="D must be a number"):
            gaussian_min_sum_rate(params, D)


def _bisection_min_sum_rate(params, D):
    """Test-only copy of the water-filling bisection that the active-set
    solve replaced: a doubling bracket on mu, then 200 halvings."""
    theta = 1.0 / D - 1.0 / params.sigma2
    vs = params.noise_vars

    def filled(mu):
        return sum(max(0.0, (1.0 - v / (2.0 * mu))) / v for v in vs)

    lo = hi = min(vs) / 2.0
    while filled(hi) < theta:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if filled(mid) < theta else (lo, mid)
    mu = 0.5 * (lo + hi)
    base = 0.5 * max(math.log(params.sigma2 / D), 0.0)
    return base + sum(max(0.0, 0.5 * math.log(2.0 * mu / v)) for v in vs)


def test_min_sum_rate_matches_the_bisection_oracle():
    rng = np.random.default_rng(24)
    worst = 0.0
    for i in range(300):
        L = int(rng.integers(1, 9))
        s2 = float(rng.uniform(0.2, 3.0))
        if i % 3 == 0:  # tied variances, drawn from a smaller pool
            pool = rng.uniform(0.1, 3.0, int(rng.integers(1, L + 1)))
            noise = tuple(float(v) for v in rng.choice(pool, L))
        else:
            noise = tuple(float(v) for v in rng.uniform(0.1, 3.0, L))
        params = GaussianParams(s2, noise)
        for f in rng.uniform(0.01, 0.99, 3):
            D = params.d_min + float(f) * (s2 - params.d_min)
            got = gaussian_min_sum_rate(params, D)
            worst = max(worst, abs(got - _bisection_min_sum_rate(params, D)))
    assert worst <= 1e-12


@pytest.mark.parametrize("noise", [(5e-324,), (5e-324, 1.0), (1.0, 5e-324)])
def test_min_sum_rate_with_a_subnormal_noise_variance(noise):
    # 1/5e-324 overflows: that encoder alone meets any D > 0 at rate 0.
    params = GaussianParams(1.0, noise)
    assert gaussian_min_sum_rate(params, 0.5) == pytest.approx(0.5 * LN2, abs=1e-15)


def test_min_sum_rate_with_an_inactive_encoder_at_the_float_range_ends():
    # The noisy encoder stays inactive and the other needs a rate of about
    # 1e-301 nats; the bisection's 2 mu / v underflowed to 0 before the log.
    for noise in ((1e300, 1e-300), (1e-300, 1e300)):
        got = gaussian_min_sum_rate(GaussianParams(1.0, noise), 0.9)
        assert got == pytest.approx(0.5 * math.log(1.0 / 0.9), abs=1e-15)


def test_min_sum_rate_with_a_huge_source_variance():
    # sigma^2 / D overflows; theta rounds to 2, so encoders 0.5 and 1 are
    # active with c = 1/2 and rates log 2 and (1/2) log 2.
    got = gaussian_min_sum_rate(GaussianParams(1e308, (1.0, 0.5, 2.0)), 0.5)
    assert got == pytest.approx(0.5 * math.log(1e308) + 2.0 * LN2, rel=1e-15)


def test_min_sum_rate_within_rounding_of_the_floor_is_refused_at_once():
    # One ulp above the rounded floor, theta can round up to the sum of all
    # 1/sigma_l^2.  Such a D is refused, never looped on.
    rng = np.random.default_rng(5)
    refused = 0
    for _ in range(300):
        L = int(rng.integers(1, 9))
        params = GaussianParams(float(rng.uniform(0.2, 3.0)), tuple(rng.uniform(0.1, 3.0, L)))
        D = math.nextafter(params.d_min, math.inf)
        try:
            assert math.isfinite(gaussian_min_sum_rate(params, D))
        except InfeasibleError as exc:
            assert "within rounding of the distortion floor" in str(exc)
            refused += 1
    assert 0 < refused < 300


def _exact_min_sum_rate(params, D):
    """The minimum sum rate at the float inputs, or None when D is at or
    below the exact floor: the active set and c in rationals, found by
    testing every k against the KKT conditions, and the logs in 60 digits."""
    vs = sorted(Fraction(v) for v in params.noise_vars)
    theta = 1 / Fraction(D) - 1 / Fraction(params.sigma2)
    if sum(1 / v for v in vs) <= theta:
        return None
    for k in range(1, len(vs) + 1):
        c = (sum(1 / v for v in vs[:k]) - theta) / k
        if c > 0 and all(c * v <= 1 for v in vs[:k]) and (k == len(vs) or c * vs[k] >= 1):
            break
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ln = lambda q: (decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)).ln()  # noqa: E731
        total = (ln(Fraction(params.sigma2)) - ln(Fraction(D))) / 2
        total -= sum(ln(c * v) for v in vs[:k]) / 2
        return float(total)


def test_min_sum_rate_one_ulp_above_the_float_floor_matches_an_exact_reference():
    # theta rounds up to the sum of 1/sigma_l^2 here, yet the exact c is
    # about 4.84e-17 > 0: D lies above the exact floor and has a value.
    params = GaussianParams(0.8095049028741139, (0.7473929973603421, 1.919556344976209,
                                                 2.8483559331253163, 1.7735985509907461,
                                                 1.2503733764872624))
    D = 0.2079465904174201
    assert D == math.nextafter(params.d_min, math.inf)
    want = _exact_min_sum_rate(params, D)
    assert want == pytest.approx(93.496, abs=1e-3)
    assert gaussian_min_sum_rate(params, D) == pytest.approx(want, rel=1e-9)


def test_min_sum_rate_next_to_the_float_floor_matches_an_exact_reference():
    # One ulp above the rounded floor, c can round to either sign.  D is
    # refused exactly when it lies at or below the exact floor, and every
    # value returned is that of the float inputs.
    rng = random.Random(7)
    refused = 0
    for _ in range(500):
        L = rng.randint(1, 6)
        params = GaussianParams(rng.uniform(0.2, 3.0), tuple(rng.uniform(0.1, 3.0) for _ in range(L)))
        D = math.nextafter(params.d_min, math.inf)
        want = _exact_min_sum_rate(params, D)
        if want is None:
            with pytest.raises(InfeasibleError, match="within rounding of the distortion floor"):
                gaussian_min_sum_rate(params, D)
            refused += 1
        else:
            assert gaussian_min_sum_rate(params, D) == pytest.approx(want, rel=1e-9)
    assert 0 < refused < 500


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


def test_oohama_gap_refuses_a_non_integral_member():
    params = GaussianParams(1.0, (1.0, 1.0))
    with pytest.raises(ValueError, match=r"A must be an integer, got 1\.5"):
        oohama_gap(params, (0.5, 0.5), [1.5])
    assert oohama_gap(params, (0.5, 0.5), [1.0, 2]) == oohama_gap(params, (0.5, 0.5), [1, 2])


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
