"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and time budget is pinned here; run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from mtsc_bounds import (
    Channel,
    ErasureParams,
    GaussianParams,
    JointPmf,
    SourceModel,
    binary_entropy,
    bt_inner_constraints,
    bt_outer_constraints,
    build_full_joint,
    casebook,
    conditional_mutual_information,
    contrapolymatroid_vertex,
    erasure_bt_counterexample,
    erasure_sum_rate,
    expected_distortion,
    g_function,
    g_shape_report,
    gaussian_bt_counterexample,
    gaussian_min_sum_rate,
    new_outer_constraints,
    noise_info_minimum,
    oohama_gap,
    optimize_bt_inner_sum_rate,
    search_bt_counterexample,
    sum_rate_curve,
    x_channel_from_sources,
    x_channel_full_observation,
)
from mtsc_bounds.model import AuxSystem, source_names

LN2 = math.log(2.0)


def _report(number, name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {status} ({elapsed:.2f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_toy_example():
    t0 = time.time()
    inst = casebook("toy")
    joint = build_full_joint(inst.model, inst.gamma)
    ys = ("Y1", "Y2")
    i_full = conditional_mutual_information(joint, ys, ("U1", "U2"))
    i_u1 = conditional_mutual_information(joint, ys, ("U1",))
    i_cond = conditional_mutual_information(joint, ys, ("U1",), ("U2",))
    d1 = expected_distortion(inst.model, inst.gamma, 0)
    ok = (
        abs(i_full - 1.25 * LN2) <= 1e-12
        and abs(i_u1 - 0.5 * LN2) <= 1e-12
        and abs(i_cond - 0.75 * LN2) <= 1e-12
        and abs(d1) <= 1e-12
    )
    _report(1, "toy example informations", ok, time.time() - t0, 1.0)


def test_criterion_2_appendix_c_instance():
    t0 = time.time()
    ce = erasure_bt_counterexample()
    margin = erasure_sum_rate(ErasureParams(0.5, 2, 0.6)) - 2.0 * ce.i_cond
    ok = (
        0.6268 < ce.i_joint <= 0.6273
        and 0.3243 < ce.i_cond <= 0.3248
        and ce.distortion == 0.6
        and margin >= 0.006
    )
    _report(2, "discrete looseness instance", ok, time.time() - t0, 1.0)


def test_criterion_3_erasure_sum_rate_consistency():
    t0 = time.time()
    got = erasure_sum_rate(ErasureParams(0.5, 2, 0.6))

    # Independent high-resolution re-evaluation in extended precision.
    p, D, L = np.longdouble(0.5), np.longdouble(0.6), 2

    def h(x):
        if x <= 0 or x >= 1:
            return np.longdouble(0)
        return -x * np.log(x) - (1 - x) * np.log(1 - x)

    root = D ** (np.longdouble(1) / L)
    oracle = float(
        (1 - D) * np.log(np.longdouble(2)) + L * (h(root) - (1 - p) * h((root - p) / (1 - p)))
    )
    ok = abs(got - oracle) <= 1e-13
    ok &= abs(got - 0.656323) <= 2e-4
    ok &= got >= 0.6562

    # Endpoints.
    ok &= erasure_sum_rate(ErasureParams(0.5, 2, 1.0)) == 0.0
    floor = (1 - 0.25) * LN2 + 2 * binary_entropy(0.5)
    ok &= abs(erasure_sum_rate(ErasureParams(0.5, 2, 0.25)) - floor) <= 1e-12

    # Curves nonincreasing on 1000-point grids.
    for L_curve in (1, 2, 3, 10):
        rates = np.array([r for _, _, r in sum_rate_curve(0.5, (L_curve,), 1000)])
        ok &= bool(np.max(np.diff(rates)) <= 1e-12)
    _report(3, "erasure sum-rate formula", ok, time.time() - t0, 5.0)


def test_criterion_4_converse_program_grid():
    t0 = time.time()
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for L in (1, 2, 3):
            for D in np.linspace(p**L, 1.0, 7):
                got = noise_info_minimum(ErasureParams(p, L, float(D)))
                want = g_function(float(D) ** (1.0 / L), p)
                worst = max(worst, abs(got - want))
    _report(4, f"converse program grid (worst {worst:.1e})", worst <= 1e-12, time.time() - t0, 30.0)


def test_criterion_5_convexity_suite():
    t0 = time.time()
    ok = True
    for p in (0.1, 0.5, 0.9):
        report = g_shape_report(p)
        ok &= report.max_first_difference <= 1e-12
        ok &= report.min_second_difference >= -1e-9
        ok &= report.min_calc1_slack >= -1e-10
        ok &= report.min_calc2_slack >= -1e-10
    _report(5, "monotonicity/convexity/pointwise inequalities", ok, time.time() - t0, 5.0)


def test_criterion_6_gaussian_ceo():
    t0 = time.time()
    params = GaussianParams(1.0, (1.0, 1.0))
    min_rate = gaussian_min_sum_rate(params, 0.5)
    ok = abs(min_rate - 1.5 * LN2) <= 1e-12
    ce = search_bt_counterexample()
    ok &= ce.classical_outer_sum_rate <= 1.5 * LN2 - 0.04
    ok &= abs(ce.distortion - 0.5) <= 1e-12
    ok &= abs(gaussian_bt_counterexample(ce.sigma_w2).distortion - 0.5) <= 1e-12
    _report(6, "Gaussian CEO sum rate and looseness", ok, time.time() - t0, 1.0)


def test_criterion_7_oohama_fuzz():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    min_gap = 0.0
    singleton_worst = 0.0
    for _ in range(1000):
        L = int(rng.integers(1, 5))
        params = GaussianParams(
            float(rng.uniform(0.2, 3.0)), tuple(rng.uniform(0.2, 3.0, L))
        )
        q = tuple(rng.uniform(0.05, 10.0, L))
        mask = int(rng.integers(1, 1 << L))
        members = [l + 1 for l in range(L) if mask & (1 << l)]
        gap = oohama_gap(params, q, members)
        min_gap = min(min_gap, gap)
        if len(members) == 1:
            singleton_worst = max(singleton_worst, abs(gap))
    ok = min_gap >= -1e-10 and singleton_worst <= 1e-9
    _report(
        7,
        f"source/noise information inequality (min gap {min_gap:.1e})",
        ok,
        time.time() - t0,
        5.0,
    )


def _random_ceo_model(rng, L=2, side=1, n_y=2):
    base = JointPmf(
        (("Y0", 2), (f"Y{L + 1}", side)), rng.dirichlet(np.ones(2 * side))
    )
    joint = base
    for l in range(1, L + 1):
        rows = rng.dirichlet(np.ones(n_y), size=2 * side)
        joint = joint.extend(
            Channel((("Y0", 2), (f"Y{L + 1}", side)), (f"Y{l}", n_y), rows)
        )
    joint = joint.reordered(source_names(L))
    d = rng.uniform(0.0, 1.0, size=joint.shape + (2,))
    return SourceModel(L, 1, joint, (d,), (2,))


def _random_gamma(rng, model, w_size, t_size, u_size=2):
    L = model.L
    wt = JointPmf((("W", w_size), ("T", t_size)), rng.dirichlet(np.ones(w_size * t_size)))
    encoders = []
    for l in range(1, L + 1):
        n_y = model.observation_size(l)
        rows = rng.dirichlet(np.ones(u_size), size=n_y * w_size * t_size)
        encoders.append(
            Channel(((f"Y{l}", n_y), ("W", w_size), ("T", t_size)), (f"U{l}", u_size), rows)
        )
    side = model.joint.size_of(f"Y{L + 1}")
    dec_rows = rng.dirichlet(np.ones(model.z_size), size=u_size**L * side * t_size)
    decoder = Channel(
        tuple((f"U{l}", u_size) for l in range(1, L + 1))
        + ((f"Y{L + 1}", side), ("T", t_size)),
        ("Z", model.z_size),
        dec_rows,
    )
    return AuxSystem(wt, tuple(encoders), decoder)


def test_criterion_8_structural_identities():
    t0 = time.time()
    rng = np.random.default_rng(88)
    worst_a = worst_b = worst_vertex = 0.0
    for trial in range(200):
        side = 1 + trial % 2
        model = _random_ceo_model(rng, side=side)
        # (a) deterministic shared randomness: improved outer = inner bounds.
        gamma_det = _random_gamma(rng, model, w_size=1, t_size=2)
        x = (
            x_channel_from_sources(model, ("Y0",))
            if trial % 2
            else x_channel_from_sources(model, ("Y1",))
        )
        na = new_outer_constraints(model, x, gamma_det)
        bi = bt_inner_constraints(model, gamma_det)
        for mask, bound in na.subset_bounds.items():
            worst_a = max(worst_a, abs(bound - bi.subset_bounds[mask]))
        # (b) X = full observation vector: improved outer = classical outer.
        gamma_w = _random_gamma(rng, model, w_size=2, t_size=2)
        nb = new_outer_constraints(model, x_channel_full_observation(model), gamma_w)
        bo = bt_outer_constraints(model, gamma_w)
        for mask, bound in nb.subset_bounds.items():
            worst_b = max(worst_b, abs(bound - bo.subset_bounds[mask]))
        # (c) greedy vertices of the inner constraint set.
        order = (1, 2) if trial % 2 else (2, 1)
        vertex = contrapolymatroid_vertex(bi, order)
        worst_vertex = max(worst_vertex, abs(vertex.sum_rate - bi.full_set))
        for mask, bound in bi.subset_bounds.items():
            got = sum(vertex.rates[l - 1] for l in (1, 2) if mask & (1 << (l - 1)))
            worst_vertex = max(worst_vertex, max(0.0, bound - got))
    ok = worst_a <= 1e-10 and worst_b <= 1e-10 and worst_vertex <= 1e-10
    _report(
        8,
        f"structural identities (a={worst_a:.1e}, b={worst_b:.1e}, c={worst_vertex:.1e})",
        ok,
        time.time() - t0,
        60.0,
    )


def test_criterion_9_optimizer_sanity():
    t0 = time.time()
    erasure = casebook("erasure", p=0.5, L=2, D=0.6)
    res = optimize_bt_inner_sum_rate(erasure.model, [0.6], [3, 3], budget=10_000, seed=1)
    closed = erasure_sum_rate(ErasureParams(0.5, 2, 0.6))
    ok = res.feasible and closed <= res.sum_rate <= 0.6570
    again = optimize_bt_inner_sum_rate(erasure.model, [0.6], [3, 3], budget=10_000, seed=1)
    ok &= again.sum_rate == res.sum_rate  # seed-deterministic

    toy = casebook("toy")
    res_toy = optimize_bt_inner_sum_rate(toy.model, [0.0], [2, 2], budget=10_000, seed=1)
    ok &= res_toy.feasible and res_toy.sum_rate <= 2 * LN2 + 1e-6
    _report(9, "optimizer sanity", ok, time.time() - t0, 120.0)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_new_outer_full_set_meets_erasure_sum_rate(L):
    inst = casebook("erasure", p=0.5, L=L, D=0.6)
    region = new_outer_constraints(inst.model, inst.x, inst.gamma)
    closed = erasure_sum_rate(ErasureParams(0.5, L, 0.6))
    assert abs(region.full_set - closed) <= 1e-9
