"""Tests for the binary erasure CEO closed forms and shape facts."""

import math
import re

import numpy as np
import pytest

from mtsc_bounds import (
    ErasureParams,
    InfeasibleError,
    binary_entropy,
    casebook,
    erasure_bt_counterexample,
    erasure_sum_rate,
    g_function,
    g_root_shape_report,
    g_shape_report,
    noise_info_minimum,
    sum_rate_curve,
    sum_rate_curve_csv,
)

LN2 = math.log(2.0)


def sum_rate_longdouble(p, L, D):
    """Independent extended-precision evaluation of the sum-rate formula."""
    p, D = np.longdouble(p), np.longdouble(D)

    def h(x):
        if x <= 0 or x >= 1:
            return np.longdouble(0)
        return -x * np.log(x) - (1 - x) * np.log(1 - x)

    root = D ** (np.longdouble(1) / L)
    g = h(root) - (1 - p) * h((root - p) / (1 - p))
    return float((1 - D) * np.log(np.longdouble(2)) + L * g)


def former_scalar_sum_rate(p, L, D):
    """The sum rate's former scalar path, kept as a test-only oracle: math.log
    throughout, and None where its root rounds below p (it raised there)."""

    def h(x):
        return 0.0 if x in (0.0, 1.0) else -x * math.log(x) - (1 - x) * math.log(1 - x)

    root = D ** (1.0 / L)
    if root < p:
        return None
    g = 0.0 if root > 1.0 else h(root) - (1.0 - p) * h((root - p) / (1.0 - p))
    return (1.0 - D) * math.log(2.0) + L * g


# ---------------------------------------------------------------------------
# g and the sum-rate formula
# ---------------------------------------------------------------------------


def test_g_endpoints():
    for p in (0.1, 0.5, 0.9):
        assert g_function(1.0, p) == 0.0
        assert g_function(p, p) == pytest.approx(binary_entropy(p), abs=1e-15)
        assert g_function(1.5, p) == 0.0
        # continuity at 1
        assert g_function(1.0 - 1e-9, p) == pytest.approx(0.0, abs=1e-7)


def test_g_domain_errors():
    with pytest.raises(ValueError):
        g_function(0.4, 0.5)
    with pytest.raises(ValueError):
        g_function(0.5, 1.5)
    with pytest.raises(ValueError, match="defined on"):
        g_function(math.nan, 0.5)


def test_g_value_frozen():
    got = g_function(math.sqrt(0.6), 0.5)
    assert got == pytest.approx(0.18951251257363533, abs=1e-12)


def test_sum_rate_against_extended_precision():
    got = erasure_sum_rate(ErasureParams(0.5, 2, 0.6))
    assert got == pytest.approx(sum_rate_longdouble(0.5, 2, 0.6), abs=1e-13)
    assert got == pytest.approx(0.6562838973712488, abs=1e-12)
    for p, L, D in ((0.1, 1, 0.3), (0.3, 3, 0.5), (0.9, 2, 0.93)):
        assert erasure_sum_rate(ErasureParams(p, L, D)) == pytest.approx(
            sum_rate_longdouble(p, L, D), abs=1e-12
        )


def test_sum_rate_endpoints():
    assert erasure_sum_rate(ErasureParams(0.5, 2, 1.0)) == 0.0
    closed = (1 - 0.25) * LN2 + 2 * binary_entropy(0.5)
    assert erasure_sum_rate(ErasureParams(0.5, 2, 0.25)) == pytest.approx(closed, abs=1e-12)
    assert closed == pytest.approx(2.75 * LN2, abs=1e-12)
    # The closed interval p^L <= D <= 1 includes its floor, also where
    # (p^L)^{1/L} rounds below p (p = 0.05..0.25 at L = 5 and 10).
    for p in np.round(np.arange(1, 20) * 0.05, 2):
        for L in range(1, 11):
            floor = (1 - p**L) * LN2 + L * binary_entropy(p)
            got = erasure_sum_rate(ErasureParams(p, L, p**L))
            assert got == pytest.approx(floor, abs=1e-12), (p, L)


def test_params_validation():
    with pytest.raises(InfeasibleError):
        ErasureParams(0.5, 2, 0.2)
    with pytest.raises(InfeasibleError):
        ErasureParams(0.0, 2, 0.5)
    with pytest.raises(InfeasibleError):
        ErasureParams(0.5, 0, 0.5)


# Every entry point that reads the erasure parameters, called with L.
L_ENTRY_POINTS = {
    "ErasureParams": lambda L: ErasureParams(0.5, L, 0.6),
    "casebook": lambda L: casebook("erasure", p=0.5, L=L, D=0.6),
    "sum_rate_curve": lambda L: sum_rate_curve(0.5, [L], 3),
    "g_root_shape_report": lambda L: g_root_shape_report(0.5, L),
}


@pytest.mark.parametrize("entry", list(L_ENTRY_POINTS))
@pytest.mark.parametrize("L", [2.5, math.inf, math.nan])
def test_a_non_whole_L_is_refused_naming_it(entry, L):
    with pytest.raises(InfeasibleError, match=re.escape(f"L must be an integer, got {L!r}")):
        L_ENTRY_POINTS[entry](L)


@pytest.mark.parametrize("entry", list(L_ENTRY_POINTS))
def test_an_L_past_the_float_range_is_refused_naming_it(entry):
    # p^L of such an L would raise OverflowError; 10^400 has 1,329 bits.
    with pytest.raises(InfeasibleError, match=re.escape("need L within the float range, got L >= 2^1328")):
        L_ENTRY_POINTS[entry](10**400)


def test_a_whole_float_L_reads_as_that_integer():
    params = ErasureParams(0.5, 2.0, 0.6)
    assert params == ErasureParams(0.5, 2, 0.6) and type(params.L) is int
    got, want = casebook("erasure", L=2.0), casebook("erasure", L=2)
    assert got.model.to_json() == want.model.to_json()
    assert got.gamma.to_json() == want.gamma.to_json()
    assert sum_rate_curve(0.5, [2.0], 5) == sum_rate_curve(0.5, [2], 5)
    assert g_root_shape_report(0.5, 2.0) == g_root_shape_report(0.5, 2)


@pytest.mark.parametrize(
    "p, L, D, message",
    [
        (0.0, 2, 0.6, "need 0 < p < 1, got p=0.0"),
        (math.nan, 2, 0.6, "need 0 < p < 1, got p=nan"),
        (0.5, 0, 0.6, "need L >= 1, got L=0"),
        (0.5, 2, 0.2, "need p^L <= D <= 1, got D=0.2 with p^L=0.25"),
        (0.5, 2, math.nan, "need p^L <= D <= 1, got D=nan with p^L=0.25"),
    ],
)
def test_the_erasure_entry_points_share_one_message(p, L, D, message):
    calls = [lambda: ErasureParams(p, L, D), lambda: casebook("erasure", p=p, L=L, D=D)]
    if "D=" not in message:  # the entry points that take no D
        calls += [lambda: sum_rate_curve(p, [L], 3), lambda: g_root_shape_report(p, L)]
    if "p=" in message:
        calls += [lambda: g_shape_report(p), lambda: g_function(0.5, p)]
    for call in calls:
        with pytest.raises(InfeasibleError) as info:
            call()
        assert str(info.value) == message


def test_curve_refuses_a_non_integral_grid_size():
    with pytest.raises(ValueError, match=r"n must be an integer, got 2\.5"):
        sum_rate_curve(0.5, [2], 2.5)
    assert sum_rate_curve(0.5, [2], 3.0) == sum_rate_curve(0.5, [2], 3)


def test_sum_rate_nonincreasing_in_d():
    for L in (1, 2, 3):
        rates = [r for _, _, r in sum_rate_curve(0.5, (L,), 1000)]
        assert max(np.diff(rates)) <= 1e-12
        assert rates[-1] == 0.0


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_curve_rows_equal_the_scalar_sum_rate(p):
    returned = 0
    for D, L, rate in sum_rate_curve(p, (1, 2, 3, 5, 10), 500):
        assert rate == erasure_sum_rate(ErasureParams(p, L, D))
        former = former_scalar_sum_rate(p, L, D)
        if former is not None:
            returned += 1
            assert rate == pytest.approx(former, abs=1e-12)
    assert returned >= 2490


def test_curve_validates_p_and_each_l():
    with pytest.raises(InfeasibleError, match="0 < p < 1"):
        sum_rate_curve(1.5, (2,), 10)
    with pytest.raises(InfeasibleError, match="L >= 1"):
        sum_rate_curve(0.5, (2, 0), 10)
    with pytest.raises(ValueError, match="2 grid points"):
        sum_rate_curve(0.5, (2,), 1)


def test_curve_csv_emitter():
    csv = sum_rate_curve_csv(0.5, (1, 2), 10)
    lines = csv.strip().splitlines()
    assert lines[0] == "D,L,sum_rate_nats"
    assert len(lines) == 21
    d, L, rate = lines[1].split(",")
    assert float(d) == 0.5 and int(L) == 1
    assert float(rate) == erasure_sum_rate(ErasureParams(0.5, 1, 0.5))


# ---------------------------------------------------------------------------
# The converse program
# ---------------------------------------------------------------------------


def test_converse_program_matches_g():
    for p, L, D in ((0.5, 2, 0.6), (0.1, 1, 0.5), (0.9, 3, 0.9), (0.3, 2, 0.3)):
        got = noise_info_minimum(ErasureParams(p, L, D))
        assert got == pytest.approx(g_function(D ** (1.0 / L), p), abs=1e-12)


@pytest.mark.parametrize(
    "p, L, D",
    [
        (0.8, 1, 0.8010050251256282),
        (0.9, 1, 0.9005025125628141),
        (0.95, 1, 0.9979166666666667),
        (0.99, 1, 0.9988442211055276),
    ],
)
def test_converse_program_attains_g_where_random_starts_fall_short(p, L, D):
    # Random starts alone stopped up to 7e-4 nats above g at these points.
    got = noise_info_minimum(ErasureParams(p, L, D))
    assert got == pytest.approx(g_function(D ** (1.0 / L), p), abs=1e-12)


def test_converse_program_trivial_at_full_erasure():
    assert noise_info_minimum(ErasureParams(0.5, 2, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_converse_program_at_distortion_floor():
    # Single feasible point: both exponentiated variables pinned at p^L.
    got = noise_info_minimum(ErasureParams(0.5, 2, 0.25))
    assert got == pytest.approx(binary_entropy(0.5), abs=1e-12)


def test_converse_program_meets_g_on_a_wide_grid():
    # 20 p x L = 1..6 x 20 D from p^L to 1, both ends included.  At D = p^L
    # the root D^{1/L} can round below p, outside g's domain, so the
    # reference clips it to p as the program itself does.
    worst = 0.0
    for p in np.linspace(0.05, 0.95, 20).tolist():
        for L in range(1, 7):
            for D in np.linspace(p**L, 1.0, 20).tolist():
                got = noise_info_minimum(ErasureParams(p, L, D))
                worst = max(worst, abs(got - g_function(max(D ** (1 / L), p), p)))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Shape reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_g_shape_report_passes(p):
    report = g_shape_report(p)
    assert report.grid_size == 10_000
    assert report.max_first_difference <= 1e-12
    assert report.min_second_difference >= -1e-9
    assert report.min_calc1_slack >= -1e-10
    assert report.min_calc2_slack >= -1e-10
    assert report.passed


def test_g_root_shape_report_passes():
    report = g_root_shape_report(0.5, 3)
    assert report.grid_size == 10_000
    assert report.passed


@pytest.mark.parametrize(
    "p, L", [(0.35, None), (0.05, 5), (0.1, 5), (0.15, 5), (0.2, 5), (0.25, 5)]
)
def test_shape_reports_where_the_grid_start_rounds_below_p(p, L):
    # exp(log p) and (p^L)^{1/L} round below p for these inputs.
    report = g_shape_report(p) if L is None else g_root_shape_report(p, L)
    assert report.passed


def test_shape_report_validates_grid():
    for p in (0.0, 1.0, 1.5, -0.2, math.nan):
        with pytest.raises(ValueError, match="need 0 < p < 1"):
            g_shape_report(p)
        with pytest.raises(ValueError, match="need 0 < p < 1"):
            g_root_shape_report(p, 2)
    for L in (0, -1):
        with pytest.raises(ValueError, match="need L >= 1"):
            g_root_shape_report(0.5, L)


# ---------------------------------------------------------------------------
# The discrete looseness instance
# ---------------------------------------------------------------------------


def test_counterexample_values():
    ce = erasure_bt_counterexample()
    assert 0.6268 < ce.i_joint <= 0.6273
    assert 0.3243 < ce.i_cond <= 0.3248
    assert ce.i_joint == pytest.approx(0.6272935359560483, abs=1e-12)
    assert ce.i_cond == pytest.approx(0.3247675098104994, abs=1e-11)
    assert ce.distortion == 0.6
    assert 2 * ce.i_cond <= 0.6496
    assert ce.optimal_sum_rate >= 0.6562
    assert ce.looseness_margin >= 0.006
