"""Tests for the binary erasure CEO closed forms and shape facts."""

import decimal
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
    erasure_ceo,
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


def g_decimal(x, p):
    """g(x) in 50-digit decimal arithmetic, as the difference of entropies,
    from the exact values of x (a float or a Decimal) and the float p."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x, p, one = decimal.Decimal(x), decimal.Decimal(p), decimal.Decimal(1)
        if x >= one:
            return decimal.Decimal(0)

        def h(x):
            return -sum((t * t.ln() for t in (x, one - x) if t > 0), decimal.Decimal(0))

        return h(x) - (one - p) * h((x - p) / (one - p))


def root_g_decimal(p, L, D):
    """g(D^{1/L}) in 50-digit decimal arithmetic, from the exact values of the
    floats p and D.  D = p^L may lie below the float p^L, so the root is
    taken no lower than p."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal(D)
        return g_decimal(max((D.ln() / L).exp(), decimal.Decimal(p)), p)


def sum_rate_decimal(p, L, D):
    """(1 - D) log 2 + L g(D^{1/L}) in 50-digit decimal arithmetic, from the
    exact values of the floats p and D."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float((1 - decimal.Decimal(D)) * decimal.Decimal(2).ln() + L * root_g_decimal(p, L, D))


def test_g_keeps_its_relative_accuracy_next_to_1():
    # Taken as a difference of nearly equal entropies, g(1 - 2^-52) at
    # p = 0.1 was off by a factor of 34.
    for p in (0.1, 0.3, 0.5, 0.9):
        for x in (1.0 - 2.0**-k for k in range(1, 53)):
            if x < p:
                continue
            want = g_decimal(x, p)
            assert abs((decimal.Decimal(g_function(x, p)) - want) / want) <= 1e-14, (p, x)


def test_sum_rate_against_a_decimal_reference_up_to_huge_l():
    # Near x = 1, h(x) - (1 - p) h((x - p) / (1 - p)) subtracts nearly equal
    # entropies; taken that way in floats, the sum rate was off by 4.5 at
    # L = 10^15.
    for p in (0.1, 0.3, 0.5, 0.9):
        for L in (3, 8, 12, 100, 1_000, 10**6, 10**9, 10**12, 10**15):
            for D in (0.3, 0.6, 0.9, 0.99, 1.0):
                if p**L <= D:
                    got = erasure_sum_rate(ErasureParams(p, L, D))
                    assert abs(got - sum_rate_decimal(p, L, D)) <= 2e-15, (p, L, D)
    # The limit as L grows is (1 - D) log 2 + log D log(1 - p).
    got = erasure_sum_rate(ErasureParams(0.5, 10**15, 0.6))
    assert got == pytest.approx(0.4 * LN2 + math.log(0.6) * math.log(0.5), abs=1e-12)
    # At D = p^L, 1 - D^{1/L} can round to more than 1 - p; g(p) = h(p).
    for L in (1, 2, 3):
        floor = (1 - 0.057**L) * LN2 + L * binary_entropy(0.057)
        assert erasure_sum_rate(ErasureParams(0.057, L, 0.057**L)) == pytest.approx(floor, abs=1e-12)
    # p^L underflows to 0 here, and the root of p^L is still p.
    (D, _, floor), *_ = sum_rate_curve(0.5, [10**15], 3)
    assert D == 0.0 and floor == pytest.approx(LN2 + 10**15 * LN2, rel=1e-15)


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
    # g_function and the program share _g_of_root, so each also meets the
    # decimal g, lest an error in that kernel hide from both.
    for p, L, D in ((0.5, 2, 0.6), (0.1, 1, 0.5), (0.9, 3, 0.9), (0.3, 2, 0.3)):
        got = noise_info_minimum(ErasureParams(p, L, D))
        assert got == pytest.approx(g_function(D ** (1.0 / L), p), abs=1e-12)
        assert got == pytest.approx(float(root_g_decimal(p, L, D)), abs=1e-12)


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
    assert got == pytest.approx(float(root_g_decimal(p, L, D)), abs=1e-12)


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
    worst = worst_decimal = 0.0
    for p in np.linspace(0.05, 0.95, 20).tolist():
        for L in range(1, 7):
            for D in np.linspace(p**L, 1.0, 20).tolist():
                got = noise_info_minimum(ErasureParams(p, L, D))
                worst = max(worst, abs(got - g_function(max(D ** (1 / L), p), p)))
                worst_decimal = max(worst_decimal, abs(got - float(root_g_decimal(p, L, D))))
    assert worst <= 1e-12
    assert worst_decimal <= 1e-12


def split_g_of_root(s, p, L):
    """``_g_of_root`` as it was with ``np.clip``, kept as the oracle."""
    s = np.clip(np.asarray(s, float), p**L, 1.0)
    a = np.maximum(np.log(s, out=np.full(s.shape, -np.inf), where=s > 0.0) / L, math.log(p))
    e = -np.expm1(a)
    d = e / (1.0 - p)
    tail = np.log1p(-d, out=np.zeros(s.shape), where=d < 1.0)
    return -(1.0 - e) * a - e * math.log1p(-p) + (1.0 - p - e) * tail


def split_noise_info_minimum(p, L, D):
    """The converse search as it was: G taken twice per grid, at t and 2D - t."""
    a, b = max(p**L, 2.0 * D - 1.0), D
    lo, hi, best = a, b, math.inf
    for _ in range(9):
        t = np.linspace(lo, hi, 201)
        f = 0.5 * (split_g_of_root(t, p, L) + split_g_of_root(2.0 * D - t, p, L))
        i = int(np.argmin(f))
        best = min(best, float(f[i]))
        step = (hi - lo) / 200
        lo, hi = max(a, t[i] - step), min(b, t[i] + step)
    return best


def converse_points():
    """The wide grid above, L = 10^6 and 10^15, the floor D = p^L, D = 1,
    points where 2D - 1 > p^L cuts the segment's lower end, and subnormal D."""
    points = []
    for p in np.linspace(0.05, 0.95, 20).tolist():
        for L in range(1, 7):
            points += [(p, L, D) for D in np.linspace(p**L, 1.0, 20).tolist()]
    for p in (0.05, 0.3, 0.5, 0.7, 0.95):
        for L in (10**6, 10**15):
            points += [(p, L, D) for D in np.linspace(p**L, 1.0, 13).tolist()]
        for L in (1, 2, 3, 10, 40):
            points += [(p, L, p**L), (p, L, 1.0)]
            low = max(p**L, 0.5 * (1.0 + p**L))  # 2D - 1 = p^L here
            points += [(p, L, D) for D in np.linspace(low, 1.0, 7)[1:-1].tolist()]
    # p^L is 0 here: segments of a few subnormals, whose grid step underflows.
    points += [(0.5, 10**15, D) for D in (5e-324, 1e-321, 2e-320, 3e-310, 1e-300)]
    return points


def test_converse_search_is_the_split_search_bit_for_bit():
    points = converse_points()
    assert len(points) == 2_400 + 130 + 5 * 5 * 7 + 5
    assert sum(2.0 * D - 1.0 > p**L for p, L, D in points) > 500
    for p, L, D in points:
        got = noise_info_minimum(ErasureParams(p, L, D))
        assert got.hex() == split_noise_info_minimum(p, L, D).hex(), (p, L, D)


@pytest.mark.parametrize(
    "p, L, D", [(0.5, 2, 0.6), (0.3, 5, 0.9), (0.9, 1, 0.95), (0.5, 2, 0.25), (0.5, 10**15, 5e-324)]
)
def test_converse_search_takes_g_once_per_grid(monkeypatch, p, L, D):
    # Nine grids, the whole segment and 8 zooms, each one call over t and
    # then 2D - t.  Every t is np.linspace over its ends, bit for bit: also
    # on a segment of a few subnormals, where its step underflows to 0.
    calls = []
    g_of_root = erasure_ceo._g_of_root

    def recorded(s, p, L):
        calls.append(np.array(s))
        return g_of_root(s, p, L)

    monkeypatch.setattr(erasure_ceo, "_g_of_root", recorded)
    noise_info_minimum(ErasureParams(p, L, D))
    assert [s.shape for s in calls] == [(402,)] * 9
    for s in calls:
        t = np.linspace(s[0], s[200], 201)
        assert s.tobytes() == np.concatenate([t, 2.0 * D - t]).tobytes()


def test_g_of_root_over_both_ends_is_the_two_calls_bit_for_bit():
    # The converse search takes G over t and 2D - t in one call.
    rng = np.random.default_rng(37)
    for _ in range(1_000):
        p = float(rng.uniform(0.01, 0.99))
        L = int(rng.choice([1, 2, 3, 7, 12, 10**6, 10**15]))
        D = float(rng.uniform(p**L, 1.0))
        t = np.linspace(max(p**L, 2.0 * D - 1.0), D, int(rng.integers(2, 300)))
        both = erasure_ceo._g_of_root(np.concatenate([t, 2.0 * D - t]), p, L)
        one, other = erasure_ceo._g_of_root(t, p, L), erasure_ceo._g_of_root(2.0 * D - t, p, L)
        assert both.tobytes() == np.concatenate([one, other]).tobytes()
        assert both.tobytes() == np.concatenate(
            [split_g_of_root(t, p, L), split_g_of_root(2.0 * D - t, p, L)]
        ).tobytes()


@pytest.mark.parametrize("p", [0.05, 0.25, 0.5, 0.9])
@pytest.mark.parametrize("L", [1, 2, 5, 12, 10**6, 10**15])
def test_sum_rate_and_root_shape_grid_are_the_oracle_bit_for_bit(p, L):
    # The root shape report's grid runs past 1, where G is clipped to 0.
    s = np.linspace(p**L, 1.5, 10_000)
    assert erasure_ceo._g_of_root(s, p, L).tobytes() == split_g_of_root(s, p, L).tobytes()
    for D in np.linspace(p**L, 1.0, 41).tolist():
        want = (1.0 - D) * math.log(2.0) + L * split_g_of_root(np.array([D]), p, L)[0]
        assert erasure_sum_rate(ErasureParams(p, L, D)).hex() == float(want).hex()


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


def former_g_vec(x, p):
    """The former direct g, h(x) - (1 - p) h((x - p) / (1 - p)) elementwise
    with h = 0 outside (0, 1), kept as a test-only oracle."""

    def h(x):
        x = np.asarray(x, float)
        out = np.zeros_like(x)
        inner = (x > 0.0) & (x < 1.0)
        xi = x[inner]
        out[inner] = -xi * np.log(xi) - (1.0 - xi) * np.log(1.0 - xi)
        return out

    return h(x) - (1.0 - p) * h((x - p) / (1.0 - p))


def former_g_shape_report(p):
    """``g_shape_report`` as it was, with g from ``former_g_vec``."""
    x = np.linspace(math.log(p), 1.0, 10_000)
    vals = former_g_vec(np.maximum(np.exp(x), p), p)
    xc = math.log(p) + (-math.log(p)) * np.arange(1, 10_001) / 10_000
    ex = np.exp(xc)
    log_exp = np.log(ex - p)
    calc1_slack = -p - (ex * log_exp - xc * ex)
    calc2_slack = ex * log_exp - ex * (xc + 1.0) + ex**2 / (ex - p)
    return erasure_ceo.ShapeReport(
        p=p,
        grid_size=10_000,
        max_first_difference=float(np.diff(vals).max()),
        min_second_difference=float(np.diff(vals, 2).min()),
        min_calc1_slack=float(calc1_slack.min()),
        min_calc2_slack=float(calc2_slack.min()),
    )


@pytest.mark.parametrize("p", np.round(np.arange(1, 20) * 0.05, 2).tolist())
def test_g_shape_report_is_the_former_report_field_for_field(p):
    got, want = g_shape_report(p), former_g_shape_report(p)
    for field in ("max_first_difference", "min_second_difference", "min_calc1_slack", "min_calc2_slack"):
        assert getattr(got, field).hex() == getattr(want, field).hex(), field
    assert got == want


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
