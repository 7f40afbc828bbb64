"""Tests for constraint evaluators, vertices, classical bounds, and the optimizer."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtsc_bounds
from mtsc_bounds import (
    AuxSystem,
    Channel,
    ErasureParams,
    InfeasibleError,
    JointPmf,
    MarkovCheckError,
    MarkovReport,
    RatePoint,
    RegionConstraints,
    SourceModel,
    SupermodularityError,
    berger_yeung_bounds,
    binary_entropy,
    bt_inner_constraints,
    bt_outer_constraints,
    build_full_joint,
    casebook,
    check_chi,
    check_gamma_class,
    check_supermodular,
    conditional_mutual_information,
    contrapolymatroid_vertex,
    entropy,
    erasure_sum_rate,
    expected_distortions,
    new_outer_constraints,
    optimize_bt_inner_sum_rate,
    slepian_wolf_bounds,
    x_channel_from_sources,
    x_channel_full_observation,
    x_channel_trivial,
)
from mtsc_bounds.model import MARKOV_TOL, source_names
from mtsc_bounds.prob import EntropyOracle, _lattice_entropies, _sum_plogp
from mtsc_bounds.regions import (
    _conditional_entropies,
    _InnerEvaluator,
    _locally_supermodular,
    _mirror_step,
    _Point,
    subset_label,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Random model / system generators (CEO-structured so X = Y0 is admissible)
# ---------------------------------------------------------------------------


def random_ceo_model(rng, L=2, side=1, n_y=2):
    n0 = 2
    base = JointPmf(
        (("Y0", n0), (f"Y{L + 1}", side)),
        rng.dirichlet(np.ones(n0 * side)),
    )
    joint = base
    for l in range(1, L + 1):
        rows = rng.dirichlet(np.ones(n_y), size=n0 * side)
        joint = joint.extend(Channel((("Y0", n0), (f"Y{L + 1}", side)), (f"Y{l}", n_y), rows))
    joint = joint.reordered(source_names(L))
    d = rng.uniform(0.0, 1.0, size=joint.shape + (2,))
    return SourceModel(L, 1, joint, (d,), (2,))


def random_gamma(rng, model, w_size=1, t_size=1, u_size=2):
    L = model.L
    wt = JointPmf(
        (("W", w_size), ("T", t_size)), rng.dirichlet(np.ones(w_size * t_size))
    )
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


# ---------------------------------------------------------------------------
# Evaluators on the casebook
# ---------------------------------------------------------------------------


def test_bt_outer_on_randomized_selector():
    inst = casebook("toy")
    c = bt_outer_constraints(inst.model, inst.gamma)
    assert c.bound([1]) == pytest.approx(0.75 * LN2, abs=1e-12)
    assert c.bound([2]) == pytest.approx(0.75 * LN2, abs=1e-12)
    assert c.full_set == pytest.approx(1.25 * LN2, abs=1e-12)
    assert c.distortions[0] == 0.0


def test_bt_inner_on_folded_selector():
    inst = casebook("toy_bt_gamma")
    c = bt_inner_constraints(inst.model, inst.gamma)
    assert c.bound([1]) == pytest.approx(LN2, abs=1e-12)
    assert c.full_set == pytest.approx(2 * LN2, abs=1e-12)
    assert c.distortions[0] == 0.0


def test_bt_inner_rejects_systems_outside_the_class():
    toy = casebook("toy")
    with pytest.raises(MarkovCheckError):
        bt_inner_constraints(toy.model, toy.gamma)
    appc = casebook("appendix_c")
    with pytest.raises(MarkovCheckError) as err:
        bt_inner_constraints(appc.model, appc.gamma)
    assert err.value.report is not None


def constant_u_gamma(model):
    wt = JointPmf((("W", 1), ("T", 1)), np.array([1.0]))
    encoders = tuple(
        Channel(
            ((f"Y{l}", model.observation_size(l)), ("W", 1), ("T", 1)),
            (f"U{l}", 1),
            np.ones((model.observation_size(l), 1)),
        )
        for l in range(1, model.L + 1)
    )
    side = model.joint.size_of(f"Y{model.L + 1}")
    decoder = Channel(
        tuple((f"U{l}", 1) for l in range(1, model.L + 1))
        + ((f"Y{model.L + 1}", side), ("T", 1)),
        ("Z", model.z_size),
        np.tile(np.eye(model.z_size)[0], (side, 1)),
    )
    return AuxSystem(wt, encoders, decoder)


def test_constant_descriptions_give_zero_bounds():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    gamma = constant_u_gamma(inst.model)
    for evaluator in (bt_inner_constraints, bt_outer_constraints):
        c = evaluator(inst.model, gamma)
        assert all(abs(v) <= 1e-12 for v in c.subset_bounds.values())


def test_bt_outer_single_encoder_forwarding_gives_conditional_entropy():
    inst = casebook("erasure", p=0.5, L=1, D=0.7)
    model = inst.model
    wt = JointPmf((("W", 1), ("T", 1)), np.array([1.0]))
    enc = Channel((("Y1", 3), ("W", 1), ("T", 1)), ("U1", 3), np.eye(3))
    dec = Channel((("U1", 3), ("Y2", 1), ("T", 1)), ("Z", 3), np.eye(3))
    gamma = AuxSystem(wt, (enc,), dec)
    c = bt_outer_constraints(model, gamma)
    want = entropy(model.joint, ("Y1",), ("Y2",))
    assert c.bound([1]) == pytest.approx(want, abs=1e-12)


def test_bt_outer_on_correlated_selectors():
    appc = casebook("appendix_c")
    c = bt_outer_constraints(appc.model, appc.gamma)
    assert 0.6268 < c.full_set <= 0.6273
    assert 0.3243 < c.bound([1]) <= 0.3248
    assert c.full_set == pytest.approx(0.6272935359560483, abs=1e-12)
    assert c.bound([1]) == pytest.approx(0.3247675098104994, abs=1e-11)


def test_new_outer_matches_closed_form_on_erasure():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    c = new_outer_constraints(inst.model, inst.x, inst.gamma)
    closed = erasure_sum_rate(ErasureParams(0.5, 2, 0.6))
    assert abs(c.full_set - closed) <= 1e-9
    assert c.distortions[0] == pytest.approx(0.6, abs=1e-12)


def test_new_outer_requires_admissible_x():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    from mtsc_bounds import x_channel_trivial

    with pytest.raises(MarkovCheckError):
        new_outer_constraints(inst.model, x_channel_trivial(inst.model), inst.gamma)


def test_deterministic_w_identity():
    # Deterministic shared randomness collapses the improved outer bound onto
    # the inner-bound constraint set, for any admissible X.
    rng = np.random.default_rng(101)
    for trial in range(25):
        model = random_ceo_model(rng, side=1 + trial % 2)
        gamma = random_gamma(rng, model, w_size=1, t_size=2)
        x = (
            x_channel_from_sources(model, ("Y0",))
            if trial % 2
            else x_channel_from_sources(model, ("Y1",))
        )
        no = new_outer_constraints(model, x, gamma)
        bi = bt_inner_constraints(model, gamma)
        for mask, bound in no.subset_bounds.items():
            assert bound == pytest.approx(bi.subset_bounds[mask], abs=1e-10)


def test_full_observation_identity():
    # Choosing X to be the whole observation vector reproduces the classical
    # outer-bound constraints exactly.
    rng = np.random.default_rng(202)
    for trial in range(25):
        model = random_ceo_model(rng, side=1 + trial % 2)
        gamma = random_gamma(rng, model, w_size=2, t_size=2)
        x = x_channel_full_observation(model)
        no = new_outer_constraints(model, x, gamma)
        bo = bt_outer_constraints(model, gamma)
        for mask, bound in no.subset_bounds.items():
            assert bound == pytest.approx(bo.subset_bounds[mask], abs=1e-10)


@pytest.mark.parametrize("L", [3, 4, 5])
def test_both_reductions_at_more_encoders(L):
    # The two reductions behind "subsumes the classical outer bound", at
    # 1e-12 on every subset: W deterministic with X = Y0 gives the inner-bound
    # constraints, and X the whole observation vector gives the outer-bound
    # constraints.
    rng = np.random.default_rng(400 + L)
    for trial in range(10):
        model = random_ceo_model(rng, L=L, side=1 + trial % 2)
        inner_gamma = random_gamma(rng, model, w_size=1, t_size=2)
        no = new_outer_constraints(model, x_channel_from_sources(model, ("Y0",)), inner_gamma)
        bi = bt_inner_constraints(model, inner_gamma)
        assert no.subset_bounds.keys() == bi.subset_bounds.keys()
        for mask, bound in no.subset_bounds.items():
            assert abs(bound - bi.subset_bounds[mask]) <= 1e-12, (trial, mask)
        outer_gamma = random_gamma(rng, model, w_size=2, t_size=2)
        no = new_outer_constraints(model, x_channel_full_observation(model), outer_gamma)
        bo = bt_outer_constraints(model, outer_gamma)
        assert no.subset_bounds.keys() == bo.subset_bounds.keys()
        for mask, bound in no.subset_bounds.items():
            assert abs(bound - bo.subset_bounds[mask]) <= 1e-12, (trial, mask)


def test_new_outer_can_exceed_bt_outer_for_other_x():
    # For a fixed system the improved bound is NOT dominated by the classical
    # one subset-by-subset: exceeding it is what makes the improvement
    # strict.  Pin one randomized instance exhibiting a strict excess.
    rng = np.random.default_rng(303)
    found = False
    for _ in range(15):
        model = random_ceo_model(rng)
        gamma = random_gamma(rng, model, w_size=2, t_size=1)
        no = new_outer_constraints(model, x_channel_from_sources(model, ("Y0",)), gamma)
        bo = bt_outer_constraints(model, gamma)
        if any(
            no.subset_bounds[m] > bo.subset_bounds[m] + 1e-6 for m in no.subset_bounds
        ):
            found = True
            break
    assert found


# ---------------------------------------------------------------------------
# The lattice evaluator body against the per-mask loop it replaced
# ---------------------------------------------------------------------------


def dense_distortions(model, joint):
    """Every E[d_k], summed from the (sources, Z) marginal of a dense joint
    built by ``build_full_joint``, with Z split into one axis per measure."""
    table = joint.marginalize(source_names(model.L) + ("Z",)).table
    table = table.reshape(model.joint.shape + model.reproduction_sizes)
    n_src = model.joint.table.ndim
    out = []
    for k, d in enumerate(model.distortions):
        others = tuple(n_src + j for j in range(model.K) if j != k)
        out.append(float((table.sum(axis=others) * d).sum()))
    return tuple(out)


def per_mask_constraints(kind, model, gamma, x=None):
    """The evaluators' former subset loop, kept as a test-only oracle: one
    memoized CMI per mask on the dense joint, with I(Y_A; U_A | U_{A^c},
    side, T) for bt_inner, no Markov check and no clamping."""
    L = model.L
    joint = build_full_joint(model, gamma, x)
    side = f"Y{L + 1}"
    us = [f"U{l}" for l in range(1, L + 1)]
    ys = [f"Y{l}" for l in range(1, L + 1)]
    oracle = EntropyOracle(joint)
    if kind == "new_outer":
        own = [oracle.cmi([y], [u], ["X", side, "W", "T"]) for y, u in zip(ys, us)]
    bounds = {}
    for mask in range(1, 1 << L):
        members = [l for l in range(L) if mask >> l & 1]
        u_a = [us[l] for l in members]
        cond = [u for u in us if u not in u_a] + [side, "T"]
        if kind == "bt_inner":
            value = oracle.cmi([ys[l] for l in members], u_a, cond)
        elif kind == "bt_outer":
            value = oracle.cmi(ys, u_a, cond)
        else:
            value = oracle.cmi(["X"], u_a, cond)
            for l in members:
                value += own[l]
        bounds[mask] = value
    return bounds, dense_distortions(model, joint)


def assert_matches_per_mask(kind, model, gamma, x=None, atol=1e-12):
    if kind == "new_outer":
        got = new_outer_constraints(model, x, gamma)
    else:
        got = {"bt_inner": bt_inner_constraints, "bt_outer": bt_outer_constraints}[kind](
            model, gamma
        )
    bounds, distortions = per_mask_constraints(kind, model, gamma, x)
    for mask, want in bounds.items():
        assert got.subset_bounds[mask] == pytest.approx(max(0.0, want), abs=atol), (kind, mask)
    assert got.distortions == pytest.approx(distortions, abs=1e-12)


def random_admissible_model(rng, L, K, side):
    """Observations conditionally independent given (Y0, side), so X = Y0 is
    admissible; observation alphabets of 1 to 3 symbols, K random measures."""
    base = (("Y0", 2), (f"Y{L + 1}", side))
    joint = JointPmf(base, rng.dirichlet(np.ones(2 * side)))
    for l in range(1, L + 1):
        n_y = int(rng.integers(1, 4))
        joint = joint.extend(Channel(base, (f"Y{l}", n_y), rng.dirichlet(np.ones(n_y), 2 * side)))
    joint = joint.reordered(source_names(L))
    reps = tuple(int(z) for z in rng.integers(1, 4, size=K))
    tables = tuple(rng.uniform(0.0, 1.0, size=joint.shape + (z,)) for z in reps)
    return SourceModel(L, K, joint, tables, reps)


def random_system(rng, model, w_size, t_size, u_sizes, w_blind):
    """Random kernels with |U_l| = u_sizes[l-1].  With ``w_blind`` the
    encoders ignore W, which puts the system in the Berger-Tung inner class."""
    L = model.L
    wt = JointPmf((("W", w_size), ("T", t_size)), rng.dirichlet(np.ones(w_size * t_size)))
    encoders = []
    for l, n_u in enumerate(u_sizes, start=1):
        n_y = model.observation_size(l)
        rows = rng.dirichlet(np.ones(n_u), size=(n_y, 1 if w_blind else w_size, t_size))
        rows = np.broadcast_to(rows, (n_y, w_size, t_size, n_u)).reshape(-1, n_u)
        encoders.append(
            Channel(((f"Y{l}", n_y), ("W", w_size), ("T", t_size)), (f"U{l}", n_u), rows)
        )
    side = model.joint.size_of(f"Y{L + 1}")
    inputs = tuple((f"U{l}", n) for l, n in enumerate(u_sizes, start=1))
    inputs += ((f"Y{L + 1}", side), ("T", t_size))
    rows = rng.dirichlet(np.ones(model.z_size), size=int(np.prod(u_sizes)) * side * t_size)
    return AuxSystem(wt, tuple(encoders), Channel(inputs, ("Z", model.z_size), rows))


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [1, 2])
def test_lattice_evaluators_match_the_per_mask_loop(L, K):
    rng = np.random.default_rng(1100 + 10 * L + K)
    inner_runs = 0
    for trial in range(8):
        w_size, t_size, side = (1 + (trial >> bit & 1) for bit in range(3))
        model = random_admissible_model(rng, L, K, side)
        u_sizes = [1 + (l + trial) % 3 for l in range(L)]  # descriptions of 1 to 3 symbols
        gamma = random_system(rng, model, w_size, t_size, u_sizes, w_blind=trial % 4 < 2)
        assert_matches_per_mask("bt_outer", model, gamma)
        x = x_channel_from_sources(model, ("Y0",))
        assert_matches_per_mask("new_outer", model, gamma, x)
        if check_gamma_class(model, gamma, "bt_inner").passed:
            assert_matches_per_mask("bt_inner", model, gamma)
            inner_runs += 1
    assert inner_runs >= 6  # every W-blind system and every system with |W| = 1


@pytest.mark.parametrize(
    "name, kwargs, kinds",
    [
        ("toy", {}, ("bt_outer", "new_outer")),
        ("toy_bt_gamma", {}, ("bt_inner", "bt_outer", "new_outer")),
        ("appendix_c", {}, ("bt_outer", "new_outer")),
    ]
    + [
        ("erasure", {"p": 0.5, "L": L, "D": 0.6}, ("bt_inner", "bt_outer", "new_outer"))
        for L in range(1, 6)
    ],
)
def test_lattice_evaluators_match_the_per_mask_loop_on_the_casebook(name, kwargs, kinds):
    inst = casebook(name, **kwargs)
    for kind in kinds:
        assert_matches_per_mask(kind, inst.model, inst.gamma, inst.x)


def w_leaning_erasure_system(eps):
    """The erasure system at L = 2, D = 0.6, with a uniform binary W that
    moves each encoder's erasure probability by +-eps: in the inner class
    only up to residuals of order eps^4."""
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    q = (0.6**0.5 - 0.5) / 0.5
    rows = np.zeros((3, 2, 3))  # axes y, w, u
    rows[1, :, 1] = 1.0
    for w, e in enumerate((eps, -eps)):
        rows[0, w] = [1 - q - e, q + e, 0.0]
        rows[2, w] = [0.0, q + e, 1 - q - e]
    encoders = tuple(
        Channel(((f"Y{l}", 3), ("W", 2), ("T", 1)), (f"U{l}", 3), rows.reshape(-1, 3))
        for l in (1, 2)
    )
    wt = JointPmf((("W", 2), ("T", 1)), np.array([0.5, 0.5]))
    return inst.model, AuxSystem(wt, encoders, inst.gamma.decoder_kernel)


def test_bt_inner_identity_holds_within_the_encoder_residuals():
    # bt_inner evaluates I(Y; U_A | ...) for I(Y_A; U_A | ...); the two
    # differ by at most the summed encoder residuals of the inner check.
    model, gamma = w_leaning_erasure_system(1e-3)
    report = check_gamma_class(model, gamma, "bt_inner")
    assert report.passed and report.worst > 0.0
    slack = sum(v for name, v in report.residuals if name.startswith("encoder_"))
    got = bt_inner_constraints(model, gamma).subset_bounds
    want, _ = per_mask_constraints("bt_inner", model, gamma)
    for mask in want:
        assert -1e-15 <= got[mask] - want[mask] <= slack


# ---------------------------------------------------------------------------
# The support path against the dense evaluator body it replaced
# ---------------------------------------------------------------------------


def dense_class_residuals(joint, L, cls):
    """The Markov check as it was on the dense joint, kept as a test-only oracle."""
    sources = list(source_names(L))
    us = [f"U{l}" for l in range(1, L + 1)]
    shared = ["W", "T"] if cls == "outer" else ["T"]
    oracle = EntropyOracle(joint)
    residuals = [("shared_randomness_independent_of_sources", oracle.cmi(shared, sources))]
    for l in range(1, L + 1):
        others = [f"Y{i}" for i in range(L + 2) if i != l]
        if cls in ("outer", "bt_inner"):
            others = others + [u for u in us if u != f"U{l}"]
        value = oracle.cmi([f"U{l}"], others, [f"Y{l}"] + shared)
        residuals.append((f"encoder_{l}_markov", value))
    left = [f"Y{i}" for i in range(L + 1)] + (["W"] if cls == "outer" else [])
    residuals.append(("decoder_markov", oracle.cmi(left, ["Z"], us + [f"Y{L + 1}", "T"])))
    return MarkovReport(tuple(residuals))


def dense_chi_residual(model, x):
    L = model.L
    oracle = EntropyOracle(model.joint.extend(x.kernel))
    total = sum(
        oracle.cmi([f"Y{l}"], [f"Y{i}" for i in range(1, l)], ["X", f"Y{L + 1}"])
        for l in range(2, L + 1)
    )
    return MarkovReport((("conditional_independence_given_x", total),))


def dense_evaluate(model, gamma, x, cls):
    """The evaluator body as it was: dense joint, its own Markov oracle, a
    second oracle for the lattice table and the own terms, and the distortions
    summed from the joint once more."""
    L = model.L
    if x is not None:
        dense_chi_residual(model, x).require("x (conditional-independence class)")
    joint = build_full_joint(model, gamma, x)
    dense_class_residuals(joint, L, cls).require("gamma")
    us = tuple(f"U{l}" for l in range(1, L + 1))
    ys, s = source_names(L)[1 : L + 1], (f"Y{L + 1}", "T")
    v, own_given = (ys, ()) if x is None else (("X",), ("X", "W"))
    oracle = EntropyOracle(joint)
    table = oracle.grouped([(n,) for n in us + v + s])
    table = table.reshape(table.shape[:L] + (-1, table.shape[-2] * table.shape[-1]))
    h = _lattice_entropies(table)
    v_bit, s_bit = 1 << L, 1 << (L + 1)
    bounds = _conditional_entropies(h, L, s_bit) - _conditional_entropies(h, L, v_bit | s_bit)
    if own_given:
        own = [oracle.cmi([y], [u], own_given + s) for y, u in zip(ys, us)]
        members = (np.arange(1, 1 << L)[:, None] >> np.arange(L)) & 1
        bounds += members @ np.array(own)
    return dict(enumerate(bounds.tolist(), start=1)), dense_distortions(model, joint)


def sparsify(rng, rows):
    """``rows`` with about a third of its entries zeroed (never a row's
    largest) and renormalized: kernels and pmfs with exact zeros."""
    rows = np.array(rows, dtype=float).reshape(-1, np.shape(rows)[-1])
    zero = rng.random(rows.shape) < 0.35
    zero[np.arange(len(rows)), rows.argmax(axis=1)] = False
    rows[zero] = 0.0
    return rows / rows.sum(axis=1, keepdims=True)


def sparse_system(rng, model, gamma):
    """``gamma`` with exact zeros in (W, T) and in every kernel."""
    wt = JointPmf(gamma.wt_pmf.variables, sparsify(rng, gamma.wt_pmf.probs[None]))
    encoders = tuple(
        Channel(k.inputs, k.output, sparsify(rng, k.rows)) for k in gamma.encoder_kernels
    )
    dec = gamma.decoder_kernel
    return AuxSystem(wt, encoders, Channel(dec.inputs, dec.output, sparsify(rng, dec.rows)))


def sparse_model(rng, model):
    """``model`` with exact zeros in its source joint."""
    joint = JointPmf(model.joint.variables, sparsify(rng, model.joint.probs[None]))
    return SourceModel(model.L, model.K, joint, model.distortions, model.reproduction_sizes)


EVALUATORS = {
    "bt_inner": lambda model, gamma, x: bt_inner_constraints(model, gamma),
    "bt_outer": lambda model, gamma, x: bt_outer_constraints(model, gamma),
    "outer": lambda model, gamma, x: new_outer_constraints(model, x, gamma),
}


def assert_matches_dense(model, gamma, x):
    """Every evaluator, class residual of the oracle the evaluators use, the
    chi check, and the public class check and distortions, agree with the
    dense copies within 1e-12; where the dense body raises a Markov error,
    the evaluator raises one on the same names."""
    L = model.L
    joint = build_full_joint(model, gamma, x)
    oracle = mtsc_bounds.model._system_oracle(model, gamma, x)
    reports = [(check_chi(model, x), dense_chi_residual(model, x))]
    for cls in ("outer", "bt_inner", "bt_outer"):
        want = dense_class_residuals(joint, L, cls)
        reports.append((mtsc_bounds.model._class_residuals(oracle, L, cls), want))
        reports.append((check_gamma_class(model, gamma, cls), want))
    for got, want in reports:
        assert [n for n, _ in got.residuals] == [n for n, _ in want.residuals]
        for (_, a), (_, b) in zip(got.residuals, want.residuals):
            assert a == pytest.approx(b, abs=1e-12)
    want = dense_distortions(model, joint)
    assert expected_distortions(model, gamma) == pytest.approx(want, abs=1e-12)
    raised = 0
    for cls, evaluate in EVALUATORS.items():
        try:
            want = dense_evaluate(model, gamma, x if cls == "outer" else None, cls)
        except MarkovCheckError as exc:
            with pytest.raises(MarkovCheckError) as got:
                evaluate(model, gamma, x)
            for failing in (False, True):
                names = [
                    [n for n, v in report.residuals if v > MARKOV_TOL or not failing]
                    for report in (got.value.report, exc.report)
                ]
                assert names[0] == names[1]
            raised += 1
            continue
        got = evaluate(model, gamma, x)
        for mask, bound in want[0].items():
            assert got.subset_bounds[mask] == pytest.approx(max(0.0, bound), abs=1e-12), (cls, mask)
        assert got.distortions == pytest.approx(want[1], abs=1e-12)
    return raised


@pytest.mark.parametrize("path", ["support", "sorted", "dense"])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [1, 2])
def test_evaluators_match_the_dense_body_on_either_root(monkeypatch, path, L, K):
    # Each root is forced on every model, sparse or dense, so both are
    # checked on both; the memory rule only picks between them.  "sorted"
    # groups every large-looking marginal by sorting, as large models do.
    forced = path != "dense"
    monkeypatch.setattr(mtsc_bounds.model, "_support_is_smaller", lambda start: forced)
    if path == "sorted":
        monkeypatch.setattr(mtsc_bounds.prob, "_DENSE_CELLS_PER_ROW", 0)
        monkeypatch.setattr(mtsc_bounds.prob, "_SMALL_TABLE", 0)
    rng = np.random.default_rng(1300 + 10 * L + K)
    raised = 0
    for trial in range(8):
        w_size, t_size, side = (1 + (trial >> bit & 1) for bit in range(3))
        if trial % 2:
            model = random_admissible_model(rng, L, K, side)
        else:
            model = random_source_model(rng, L, K, side)  # X = Y0 is rarely admissible
        u_sizes = [1 + (l + trial) % 3 for l in range(L)]
        gamma = random_system(rng, model, w_size, t_size, u_sizes, w_blind=trial % 4 < 2)
        x = x_channel_from_sources(model, ("Y0",))
        raised += assert_matches_dense(model, gamma, x)
        sparse = sparse_model(rng, model), sparse_system(rng, model, gamma)
        raised += assert_matches_dense(*sparse, x)
    # Outside their class: W-leaning encoders, X = Y0 on a random source.  A
    # single encoder has no other description to lean on, and chi is empty.
    assert raised >= 4 or L == 1


@pytest.mark.parametrize("path", ["support", "sorted", "dense"])
@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_berger_tung_bounds_drop_the_v_axis_when_w_is_trivial(monkeypatch, path, L):
    # With |W| = 1 the lattice table has the U axes and S = (side, T) only,
    # and the own terms -H(U_l | Y_l, T) stand in for its V = Y axis; the
    # bounds still agree with the V = Y body, on either root.
    monkeypatch.setattr(mtsc_bounds.model, "_support_is_smaller", lambda start: path != "dense")
    if path == "sorted":
        monkeypatch.setattr(mtsc_bounds.prob, "_DENSE_CELLS_PER_ROW", 0)
        monkeypatch.setattr(mtsc_bounds.prob, "_SMALL_TABLE", 0)
    shapes = []

    def spy(table):
        shapes.append(table.shape)
        return _lattice_entropies(table)

    monkeypatch.setattr(mtsc_bounds.regions, "_lattice_entropies", spy)
    rng = np.random.default_rng(1400 + L)
    for trial in range(8):
        t_size, side, K = (1 + (trial >> bit & 1) for bit in range(3))
        model = random_source_model(rng, L, K, side)
        u_sizes = [1 + (l + trial) % 3 for l in range(L)]
        gamma = random_system(rng, model, 1, t_size, u_sizes, w_blind=True)
        if trial % 3 == 0:
            model, gamma = sparse_model(rng, model), sparse_system(rng, model, gamma)
        for cls in ("bt_inner", "bt_outer"):
            shapes.clear()
            got = EVALUATORS[cls](model, gamma, None)
            assert shapes == [tuple(u_sizes) + (side * t_size,)]
            want, distortions = dense_evaluate(model, gamma, None, cls)
            for mask, bound in want.items():
                assert got.subset_bounds[mask] == pytest.approx(max(0.0, bound), abs=1e-12), mask
            assert got.distortions == pytest.approx(distortions, abs=1e-12)


def test_memory_rule_picks_the_support_only_where_it_is_smaller():
    # The rule reads the one joint it is given: sources x (W, T) for a
    # system, and (sources, X) for the chi check.
    rule = mtsc_bounds.model._support_is_smaller
    for L in (2, 6):
        inst = casebook("erasure", p=0.5, L=L, D=0.6)
        assert rule(inst.model.joint.product(inst.gamma.wt_pmf))  # 2^(L+1) of 2 * 3^L source cells
        assert rule(inst.model.joint.extend(inst.x.kernel))  # X = Y0 adds no cell
    inst = casebook("toy")
    assert not rule(inst.model.joint.product(inst.gamma.wt_pmf))  # every cell is positive
    assert not rule(inst.model.joint.extend(inst.x.kernel))  # a constant X keeps them so
    full = x_channel_full_observation(inst.model)
    assert rule(inst.model.joint.extend(full.kernel))  # 16 of 256 cells


@pytest.mark.parametrize("L, D", [(7, 0.3), (7, 0.6), (8, 0.3), (8, 0.6), (10, 0.3)])
def test_new_outer_meets_the_erasure_sum_rate_past_the_dense_limit(L, D):
    # The dense joint has 2 * 9^L cells (86 M at L = 8); the support 2 * 3^L.
    inst = casebook("erasure", p=0.5, L=L, D=D)
    got = new_outer_constraints(inst.model, inst.x, inst.gamma)
    assert got.full_set == pytest.approx(erasure_sum_rate(ErasureParams(0.5, L, D)), abs=1e-12)
    assert got.distortions[0] == pytest.approx(D, abs=1e-12)


def test_berger_tung_bounds_meet_the_erasure_sum_rate_at_l7():
    inst = casebook("erasure", p=0.5, L=7, D=0.6)
    closed = erasure_sum_rate(ErasureParams(0.5, 7, 0.6))
    for evaluate in (bt_inner_constraints, bt_outer_constraints):
        got = evaluate(inst.model, inst.gamma)
        assert got.full_set == pytest.approx(closed, abs=1e-12)
        assert got.distortions[0] == pytest.approx(0.6, abs=1e-12)


@pytest.mark.parametrize("L", [9, 10])
def test_berger_tung_bounds_meet_the_erasure_sum_rate_at_l9_and_l10(L):
    # With W trivial the lattice table is over (U, side, T): 3^L cells, not
    # the 3^L (2^(L+1) - 1) of a V = Y axis over the occurring observations.
    inst = casebook("erasure", p=0.5, L=L, D=0.3)
    closed = erasure_sum_rate(ErasureParams(0.5, L, 0.3))
    for evaluate in (bt_inner_constraints, bt_outer_constraints):
        tracemalloc.start()
        try:
            got = evaluate(inst.model, inst.gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.full_set == pytest.approx(closed, abs=1e-12)
        assert got.distortions[0] == pytest.approx(0.3, abs=1e-12)
        assert peak < 25e6, (evaluate.__name__, peak)


def noisy_erasure_system(L):
    """The erasure casebook at D = 0.3 with every encoder kernel mixed with
    the uniform one at 1e-3, so that no encoder entry is zero."""
    inst = casebook("erasure", p=0.5, L=L, D=0.3)
    encoders = tuple(
        Channel(k.inputs, k.output, (1 - 1e-3) * k.rows + 1e-3 / 3)
        for k in inst.gamma.encoder_kernels
    )
    return inst, AuxSystem(inst.gamma.wt_pmf, encoders, inst.gamma.decoder_kernel)


def test_every_evaluator_refuses_a_support_over_the_table_cap():
    # Each of the 2 * 2^10 start cells splits into 3^10 with noisy encoders:
    # a support of 2 * 6^10 cells, refused before any is built.
    inst, noisy = noisy_erasure_system(10)
    evaluators = {
        "bt-inner": lambda: bt_inner_constraints(inst.model, noisy),
        "bt-outer": lambda: bt_outer_constraints(inst.model, noisy),
        "new-outer": lambda: new_outer_constraints(inst.model, inst.x, noisy),
    }
    for name, evaluate in evaluators.items():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="support would have 120,932,352 cells"):
                evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, (name, peak)
    # The optimizer's search stays under its own check's cap (3^10 cells);
    # its result, with no zero encoder entry either, is refused the same way.
    with pytest.raises(ValueError, match="support would have 120,932,352 cells"):
        optimize_bt_inner_sum_rate(inst.model, [0.6], [3] * 10, budget=2, seed=0)


def test_new_outer_refuses_an_inadmissible_x_before_the_table_cap():
    # A constant X leaves the observations dependent: the chi check, read
    # from the (sources, X) joint, refuses it before the system's support
    # of 2 * 6^10 cells is sized.
    inst, noisy = noisy_erasure_system(10)
    with pytest.raises(MarkovCheckError, match=r"conditional_independence_given_x=2\.773e\+00"):
        new_outer_constraints(inst.model, x_channel_trivial(inst.model), noisy)


def test_check_chi_reads_the_support_of_a_sparse_source():
    # The (sources, X) joint of erasure L = 10 has 2 * 3^10 * 2 cells, of
    # which 2 * 2^10 are positive: chi is read from those.
    inst = casebook("erasure", p=0.5, L=10, D=0.3)
    tracemalloc.start()
    try:
        got = check_chi(inst.model, inst.x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (_, value), = got.residuals
    (_, want), = dense_chi_residual(inst.model, inst.x).residuals
    assert value == pytest.approx(want, abs=1e-12)
    assert got.passed
    assert peak < 1e6, peak


def test_build_full_joint_refuses_a_dense_joint_over_the_table_cap():
    # 2 * 3^7 source cells, 3^7 encoder outputs, |Z| = 3 and |X| = 2: 57.4 M
    # cells, refused before any table is made.
    inst = casebook("erasure", p=0.5, L=7, D=0.3)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense joint would have 57,395,628 cells"):
            build_full_joint(inst.model, inst.gamma, inst.x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_public_checks_refuse_a_dense_joint_over_the_table_cap():
    # The model of test_optimizer_refuses_a_check_over_its_cell_cap with a
    # system of the refused alphabets: 2 * 3^7 source cells, prod |U_l| =
    # 3^6 * 4 and |Z| = 3 make a dense joint of 38.3 M cells.
    rng = np.random.default_rng(7)
    sizes = (2,) + (3,) * 7 + (1,)
    joint = JointPmf(tuple(zip(source_names(7), sizes)), rng.dirichlet(np.ones(2 * 3**7)))
    model = SourceModel(7, 1, joint, (rng.uniform(size=sizes + (3,)),), (3,))
    gamma = random_system(rng, model, 1, 1, [3] * 6 + [4], w_blind=True)
    with pytest.raises(ValueError, match="dense joint would have 38,263,752 cells"):
        check_gamma_class(model, gamma, "bt_inner")
    with pytest.raises(ValueError, match="dense joint would have 38,263,752 cells"):
        expected_distortions(model, gamma)


# ---------------------------------------------------------------------------
# Contrapolymatroid vertices
# ---------------------------------------------------------------------------


def test_vertex_chain_rule_identity():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    c = bt_inner_constraints(inst.model, inst.gamma)
    joint = build_full_joint(inst.model, inst.gamma)
    v = contrapolymatroid_vertex(c, (1, 2))
    # R_1 = bound({1} | {2}), R_2 = I(Y2; U2 | side, T) by the chain rule
    want_r2 = conditional_mutual_information(joint, ("Y1", "Y2"), ("U2",), ("Y3", "T"))
    assert v.rates[0] == pytest.approx(c.bound([1]), abs=1e-12)
    assert v.sum_rate == pytest.approx(c.full_set, abs=1e-10)
    assert v.rates[1] == pytest.approx(want_r2, abs=1e-8)


def test_vertex_orders_and_feasibility():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    c = bt_inner_constraints(inst.model, inst.gamma)
    for order in ((1, 2), (2, 1)):
        v = contrapolymatroid_vertex(c, order)
        assert v.sum_rate == pytest.approx(c.full_set, abs=1e-10)
        for mask, bound in c.subset_bounds.items():
            got = sum(v.rates[l - 1] for l in range(1, 3) if mask & (1 << (l - 1)))
            assert got >= bound - 1e-10


def test_vertex_single_encoder():
    inst = casebook("erasure", p=0.5, L=1, D=0.7)
    c = bt_inner_constraints(inst.model, inst.gamma)
    v = contrapolymatroid_vertex(c, (1,))
    assert v.rates[0] == pytest.approx(c.full_set, abs=1e-12)


def test_supermodularity_of_inner_bounds():
    rng = np.random.default_rng(404)
    for _ in range(20):
        model = random_ceo_model(rng)
        gamma = random_gamma(rng, model, w_size=1, t_size=2)
        check_supermodular(bt_inner_constraints(model, gamma))


def test_non_supermodular_input_reports_pair():
    bad = RegionConstraints(
        2, 1, {0b01: 1.0, 0b10: 1.0, 0b11: 1.2}, (0.0,)
    )
    with pytest.raises(SupermodularityError) as err:
        contrapolymatroid_vertex(bad, (1, 2))
    assert err.value.pair == (0b01, 0b10)


def test_vertex_validates_order():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    c = bt_inner_constraints(inst.model, inst.gamma)
    with pytest.raises(ValueError):
        contrapolymatroid_vertex(c, (1, 1))


def test_vertex_refuses_a_non_integral_order():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    c = bt_inner_constraints(inst.model, inst.gamma)
    with pytest.raises(ValueError, match=r"order must be an integer, got 1\.5"):
        contrapolymatroid_vertex(c, (1.5, 2))
    assert contrapolymatroid_vertex(c, (1.0, 2)) == contrapolymatroid_vertex(c, (1, 2))


def test_region_bound_refuses_a_non_integral_member():
    c = RegionConstraints(2, 1, {0b01: 1.0, 0b10: 2.0, 0b11: 3.0}, (0.0,))
    with pytest.raises(ValueError, match=r"subset member must be an integer, got 1\.7"):
        c.bound([1.7])
    assert c.bound([2.0]) == c.bound([2]) == 2.0


@pytest.mark.parametrize("L, K, named", [(1.5, 1, "L must be an integer, got 1.5"),
                                         (1, 1.5, "K must be an integer, got 1.5")])
def test_region_constraints_refuse_a_non_integral_size(L, K, named):
    with pytest.raises(ValueError, match=named):
        RegionConstraints(L, K, {1: 0.1}, (0.0,))
    whole = RegionConstraints(1.0, 1.0, {1: 0.1}, (0.0,))
    assert (type(whole.L), type(whole.K)) == (int, int) and whole.bound([1]) == 0.1


def pair_loop_check(constraints, slack=1e-9):
    """The all-pairs supermodularity check, kept as a test-only oracle."""
    L = constraints.L

    def f(mask):
        return constraints.subset_bounds[mask] if mask else 0.0

    for a in range(1, 1 << L):
        for b in range(a + 1, 1 << L):
            if f(a | b) + f(a & b) < f(a) + f(b) - slack:
                raise SupermodularityError("not supermodular", pair=(a, b))


def random_joint_table(rng, L):
    sizes = rng.integers(1, 4, size=L)
    return rng.dirichlet(np.ones(int(np.prod(sizes)))).reshape(sizes)


def entropies_by_mask(table):
    """H(Y_A) for every mask A (bit l-1 for axis l-1), one marginal per mask."""
    L = table.ndim
    out = np.zeros(1 << L)
    for mask in range(1, 1 << L):
        summed = tuple(l for l in range(L) if not mask & (1 << l))
        m = table.sum(axis=summed).reshape(-1)
        m = m[m > 0.0]
        out[mask] = float(-(m * np.log(m)).sum())
    return out


@settings(max_examples=150, deadline=None)
@given(
    L=st.integers(2, 6),
    base=st.sampled_from(["entropic", "modular"]),
    scale=st.sampled_from([1.0, 1e3, 1e6]),
    pairwise=st.booleans(),
    bumps=st.integers(0, 3),
    noise=st.sampled_from([0.0, 1e-10, 1e-9, 1e-8]),
    seed=st.integers(0, 2**32 - 1),
)
def test_local_certificate_agrees_with_pair_loop(L, base, scale, pairwise, bumps, noise, seed):
    rng = np.random.default_rng(seed)
    full = (1 << L) - 1
    if base == "entropic":  # f(A) = H(Y_A | Y_Ac) is supermodular
        h = entropies_by_mask(random_joint_table(rng, L))
        f = h[full] - h[full ^ np.arange(1 << L)]
    else:  # modular: every local defect is 0
        w = rng.uniform(0.0, 1.0, L)
        f = np.array([sum(w[l] for l in range(L) if m & (1 << l)) for m in range(1 << L)])
    f = f * scale + rng.uniform(-noise, noise, 1 << L)
    # Subtracting e_ij from every set that holds i and j puts a local defect
    # of -e_ij on each (S, i, j), and a pair (A, B) adds up those of every i
    # in A - B and j in B - A.  With e_ij between slack / (5c) and slack the
    # local defects straddle the certificate's threshold while the pair loop
    # may reject.  A bump of d at one set puts local defects of -d next to it.
    c = (L // 2) * ((L + 1) // 2)
    if pairwise:
        for i in range(L):
            for j in range(i + 1, L):
                e = rng.uniform(0.2 / c, 1.0) * 1e-9
                f[[m for m in range(1 << L) if m >> i & 1 and m >> j & 1]] -= e
    for _ in range(bumps):
        f[rng.integers(1, 1 << L)] += rng.uniform(0.2 / c, 1.5) * 1e-9
    region = RegionConstraints(
        L, 1, {m: max(0.0, float(f[m])) for m in range(1, 1 << L)}, (0.0,)
    )
    try:
        pair_loop_check(region)
    except SupermodularityError as want:
        with pytest.raises(SupermodularityError) as err:
            check_supermodular(region)
        assert err.value.pair == want.pair
    else:
        check_supermodular(region)


def test_check_supermodular_at_the_mask_cap():
    L = 16
    square = RegionConstraints(L, 1, {m: m.bit_count() ** 2 for m in range(1, 1 << L)}, (0.0,))
    check_supermodular(square)  # all 2^31 pairs: out of reach of the pair loop
    root = RegionConstraints(L, 1, {m: m.bit_count() ** 0.5 for m in range(1, 1 << L)}, (0.0,))
    with pytest.raises(SupermodularityError) as err:
        check_supermodular(root)
    assert err.value.pair == (0b1, 0b10)


def test_pair_loop_accepts_an_uncertified_region_at_l12():
    # f(A) = |A| - e C(|A|, 2) has every local defect -e, below the
    # certificate's threshold slack / (2c) here, and every pair defect
    # -|A - B| |B - A| e >= -c e = -0.75e-9, inside the slack: only the pair
    # loop accepts it, over all 2^23 pairs.
    L = 12
    c = (L // 2) * ((L + 1) // 2)
    e = 0.75e-9 / c
    f = {m: m.bit_count() - e * math.comb(m.bit_count(), 2) for m in range(1, 1 << L)}
    region = RegionConstraints(L, 1, f, (0.0,))
    F = np.array([0.0] + [f[m] for m in range(1, 1 << L)])
    assert not _locally_supermodular(F, L)
    check_supermodular(region)


# ---------------------------------------------------------------------------
# Slepian-Wolf and the lossless-component bounds
# ---------------------------------------------------------------------------


def uniform_pair_model(copula):
    joint = JointPmf(
        (("Y0", 1), ("Y1", 2), ("Y2", 2), ("Y3", 1)), np.asarray(copula, float).reshape(-1)
    )
    d = np.zeros(joint.shape + (2,))
    return SourceModel(2, 1, joint, (d,), (2,))


def test_slepian_wolf_independent_bits():
    model = uniform_pair_model([[0.25, 0.25], [0.25, 0.25]])
    c = slepian_wolf_bounds(model)
    assert c.bound([1]) == pytest.approx(LN2, abs=1e-12)
    assert c.bound([2]) == pytest.approx(LN2, abs=1e-12)
    assert c.full_set == pytest.approx(2 * LN2, abs=1e-12)


def test_slepian_wolf_copied_bit():
    model = uniform_pair_model([[0.5, 0.0], [0.0, 0.5]])
    c = slepian_wolf_bounds(model)
    assert c.bound([1]) == pytest.approx(0.0, abs=1e-12)
    assert c.bound([2]) == pytest.approx(0.0, abs=1e-12)
    assert c.full_set == pytest.approx(LN2, abs=1e-12)


def test_slepian_wolf_symmetric_crossover():
    eps = 0.1
    model = uniform_pair_model(
        [[(1 - eps) / 2, eps / 2], [eps / 2, (1 - eps) / 2]]
    )
    c = slepian_wolf_bounds(model)
    assert c.bound([1]) == pytest.approx(binary_entropy(eps), abs=1e-12)
    assert c.bound([1]) == pytest.approx(0.3250829733914482, abs=1e-12)
    assert c.full_set == pytest.approx(LN2 + binary_entropy(eps), abs=1e-12)


@pytest.mark.parametrize("L", range(1, 7))
def test_slepian_wolf_lattice_matches_per_mask_oracle(L):
    rng = np.random.default_rng(700 + L)
    for _ in range(5):
        sizes = (int(rng.integers(1, 4)),) + tuple(rng.integers(1, 4, size=L)) + (1,)
        joint = JointPmf(
            tuple(zip(source_names(L), sizes)), rng.dirichlet(np.ones(int(np.prod(sizes))))
        )
        model = SourceModel(L, 1, joint, (np.zeros(sizes + (2,)),), (2,))
        ys = tuple(f"Y{l}" for l in range(1, L + 1))
        oracle = EntropyOracle(joint)
        got = slepian_wolf_bounds(model)
        for mask in range(1, 1 << L):
            a = [f"Y{l}" for l in range(1, L + 1) if mask & (1 << (l - 1))]
            want = oracle.h(ys) - oracle.h(y for y in ys if y not in a)
            assert got.subset_bounds[mask] == pytest.approx(max(0.0, want), abs=1e-12)


def test_slepian_wolf_at_l14_matches_the_product_form():
    # Y0 a uniform bit and Y_l = Y0 xor N_l, P(N_l = 1) = eps_l: the marginal
    # on any set K of observations is p(y_K) = sum_y0 p(y0) prod_K p(y_l | y0),
    # built here mask by mask without summing the joint.
    L = 14
    eps = np.random.default_rng(14).uniform(0.05, 0.45, L)
    joint = JointPmf((("Y0", 2),), np.array([0.5, 0.5]))
    for l, e in enumerate(eps, start=1):
        rows = np.array([[1.0 - e, e], [e, 1.0 - e]])
        joint = joint.extend(Channel((("Y0", 2),), (f"Y{l}", 2), rows))
    joint = joint.product(JointPmf(((f"Y{L + 1}", 1),), np.array([1.0])))
    model = SourceModel(L, 1, joint, (np.zeros(joint.shape + (2,)),), (2,))
    h = np.zeros(1 << L)  # h[K] = H(Y_K), bit l-1 for Y_l

    def extend(tables, mask, first):
        if mask:
            h[mask] = _sum_plogp(tables[0] + tables[1])
        for l in range(first, L):
            given = [np.array([1.0 - eps[l], eps[l]]), np.array([eps[l], 1.0 - eps[l]])]
            extend([np.multiply.outer(t, g) for t, g in zip(tables, given)], mask | 1 << l, l + 1)

    extend([np.array(0.5), np.array(0.5)], 0, 0)
    bounds = slepian_wolf_bounds(model).subset_bounds
    masks = np.arange(1, 1 << L)
    got = np.array([bounds[mask] for mask in masks.tolist()])
    want = np.maximum(0.0, h[-1] - h[((1 << L) - 1) ^ masks])
    assert np.abs(got - want).max() <= 1e-12


def lossless_component_model(copula):
    # Y1 is the hidden variable itself (reproduced losslessly in the limit).
    cop = np.asarray(copula, float)
    n1, n2 = cop.shape
    probs = np.zeros((n1, n1, n2, 1))
    for i in range(n1):
        probs[i, i, :, 0] = cop[i]
    joint = JointPmf((("Y0", n1), ("Y1", n1), ("Y2", n2), ("Y3", 1)), probs.reshape(-1))
    d = np.zeros(joint.shape + (2,))
    return SourceModel(2, 1, joint, (d,), (2,))


def by_gamma(model, u2_rows, u2_size):
    wt = JointPmf((("W", 1), ("T", 1)), np.array([1.0]))
    n1 = model.observation_size(1)
    enc1 = Channel((("Y1", n1), ("W", 1), ("T", 1)), ("U1", n1), np.eye(n1))
    enc2 = Channel(
        (("Y2", model.observation_size(2)), ("W", 1), ("T", 1)), ("U2", u2_size), u2_rows
    )
    dec = Channel(
        (("U1", n1), ("U2", u2_size), ("Y3", 1), ("T", 1)),
        ("Z", model.z_size),
        Channel.deterministic(
            (("U1", n1), ("U2", u2_size), ("Y3", 1), ("T", 1)),
            ("Z", model.z_size),
            lambda u1, u2, y3, t: 0,
        ).rows,
    )
    return AuxSystem(wt, (enc1, enc2), dec)


def test_berger_yeung_constant_u2():
    cop = [[0.3, 0.2], [0.1, 0.4]]
    model = lossless_component_model(cop)
    gamma = by_gamma(model, np.ones((2, 1)), 1)
    r1, r2, rsum = berger_yeung_bounds(model, gamma)
    h1 = entropy(model.joint, ("Y1",))
    assert r1 == pytest.approx(h1, abs=1e-12)
    assert r2 == pytest.approx(0.0, abs=1e-12)
    assert rsum == pytest.approx(h1, abs=1e-12)


def test_berger_yeung_lossless_u2():
    cop = [[0.3, 0.2], [0.1, 0.4]]
    model = lossless_component_model(cop)
    gamma = by_gamma(model, np.eye(2), 2)
    r1, r2, rsum = berger_yeung_bounds(model, gamma)
    assert r1 == pytest.approx(entropy(model.joint, ("Y1",), ("Y2",)), abs=1e-12)
    assert r2 == pytest.approx(entropy(model.joint, ("Y2",), ("Y1",)), abs=1e-12)
    assert rsum == pytest.approx(entropy(model.joint, ("Y1", "Y2")), abs=1e-12)


def test_berger_yeung_independent_sum():
    cop = [[0.35, 0.35], [0.15, 0.15]]
    model = lossless_component_model(cop)
    gamma = by_gamma(model, np.eye(2), 2)
    _, _, rsum = berger_yeung_bounds(model, gamma)
    h1 = entropy(model.joint, ("Y1",))
    h2 = entropy(model.joint, ("Y2",))
    assert rsum == pytest.approx(h1 + h2, abs=1e-12)


def test_berger_yeung_requires_lossless_component():
    rng = np.random.default_rng(6)
    model = random_ceo_model(rng)  # Y1 != Y0 in general
    gamma = random_gamma(rng, model)
    with pytest.raises(InfeasibleError):
        berger_yeung_bounds(model, gamma)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def random_source_model(rng, L, K, side):
    """Any joint over (Y0, Y1..YL, side), with no conditional independence,
    and K random distortion measures; alphabets of size 1 included."""
    sizes = (2,) + tuple(int(s) for s in rng.integers(1, 4, size=L)) + (side,)
    joint = JointPmf(tuple(zip(source_names(L), sizes)), rng.dirichlet(np.ones(int(np.prod(sizes)))))
    reps = tuple(int(s) for s in rng.integers(1, 4, size=K))
    tables = tuple(rng.uniform(0.0, 1.0, size=sizes + (z,)) for z in reps)
    return SourceModel(L, K, joint, tables, reps)


def zeroed_kernels(rng, ev):
    """A random flat kernel set with exact zeros: an unused column where
    |U_l| > 1 (so some decoder profiles carry no mass) and scattered zero
    entries."""
    flat = ev.random_kernels(rng)
    for ker in ev.split(flat):
        if ker.shape[1] > 1:
            ker[:, rng.integers(ker.shape[1])] = 0.0
            ker[rng.random(ker.shape) < 0.2] = 0.0
        for row in ker:
            if row.sum() == 0.0:
                row[rng.integers(ker.shape[1])] = 1.0
        ker /= ker.sum(axis=1, keepdims=True)
    return flat


def joined(kernels):
    """A list of kernels as one flat kernel set: the rows of each in turn."""
    return np.concatenate(kernels, axis=None)


class DenseInnerEvaluator:
    """The optimizer's former evaluation, kept as a test-only oracle.

    It builds the dense joint over (y0, y1..yL, side, u1..uL) for every
    evaluation, per-k cost tables over (u1..uL, side, z) by einsum, and one
    leave-one-out joint per encoder for the gradient.
    """

    def __init__(self, model, cards):
        self.model, self.L, self.cards = model, model.L, tuple(cards)
        self.src = model.joint.table
        letters = "abcdefghijklmnop"
        n_src = self.L + 2
        self.src_letters = letters[:n_src]
        self.u_letters = letters[n_src : n_src + self.L]
        self.side = self.src_letters[-1]
        self.cost_spec = (
            f"{self.src_letters}{self.u_letters},{self.src_letters}z->{self.u_letters}{self.side}z"
        )

    def joint(self, kernels, skip=None):
        p = self.src
        for l, ker in enumerate(kernels):
            if l != skip:
                p = p[..., None] * ker.reshape(
                    (1,) * (1 + l) + ker.shape[:1] + (1,) * (p.ndim - 2 - l) + ker.shape[1:]
                )
        return p

    def rate(self, p):
        q = p.sum(axis=0)
        obs = tuple(range(self.L))
        us = tuple(range(self.L + 1, 2 * self.L + 1))
        return (
            _sum_plogp(q.sum(axis=us)) + _sum_plogp(q.sum(axis=obs))
            - _sum_plogp(q) - _sum_plogp(q.sum(axis=obs + us))
        )

    def costs(self, p):
        return [np.einsum(self.cost_spec, p, d) for d in self.model.distortions]

    def evaluate(self, kernels):
        p = self.joint(kernels)
        return self.rate(p), tuple(float(c.min(axis=-1).sum()) for c in self.costs(p))

    def lagrangian_grad(self, kernels, slopes):
        p = self.joint(kernels)
        costs = self.costs(p)
        rate, dists = self.evaluate(kernels)
        value = rate + float(np.dot(slopes, dists))
        smoothed = [(1.0 - 1e-3) * ker + 1e-3 / ker.shape[1] for ker in kernels]
        argmins = []
        for c_true, c_smooth in zip(costs, self.costs(self.joint(smoothed))):
            dead = c_true.max(axis=-1) == 0.0
            argmins.append(np.where(dead, c_smooth.argmin(axis=-1), c_true.argmin(axis=-1)))
        p_u_side = p.sum(axis=tuple(range(self.L + 1)))
        ln_p1 = np.log(np.maximum(p_u_side, 1e-300)) + 1.0
        p_side = p_u_side.reshape(p_u_side.shape[0], -1).sum(axis=1)
        ln_ps1 = np.log(np.maximum(p_side, 1e-300)) + 1.0
        grads = []
        for m in range(self.L):
            u_m = self.u_letters[m]
            u_rest = "".join(self.u_letters[l] for l in range(self.L) if l != m)
            y_m = self.src_letters[1 + m]
            p_wo = self.joint(kernels, skip=m)
            swo = self.src_letters + u_rest
            d_cross = np.einsum(f"{swo},{self.side}{self.u_letters}->{y_m}{u_m}", p_wo, ln_p1)
            d_side = np.einsum(f"{swo},{self.side}->{y_m}", p_wo, ln_ps1)
            p_ym = np.einsum(f"{swo}->{y_m}", p_wo)
            ln_k1 = np.log(np.maximum(kernels[m], 1e-300)) + 1.0
            coeff = -d_cross + d_side[:, None] + p_ym[:, None] * ln_k1
            for k, d in enumerate(self.model.distortions):
                cost_wo = np.einsum(
                    f"{swo},{self.src_letters}z->{y_m}{u_rest}{self.side}z", p_wo, d
                )
                zz = np.moveaxis(argmins[k], m, 0)
                picked = np.take_along_axis(
                    cost_wo[None, ...], zz[(slice(None), None) + (Ellipsis, None)], axis=-1
                )[..., 0]
                coeff = coeff + slopes[k] * picked.sum(axis=tuple(range(2, self.L + 2))).T
            grads.append(coeff)
        return value, grads, rate, dists


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [1, 2])
def test_optimizer_matches_the_dense_evaluator(L, K):
    rng = np.random.default_rng(900 + 10 * L + K)
    dead_seen = False
    for trial in range(4):
        model = random_source_model(rng, L, K, side=int(rng.integers(2, 4)))
        cards = [1 + (l + trial) % 3 for l in range(L)]  # |U_l| of 1, 2 and 3
        ev = _InnerEvaluator(model, cards)
        dense = DenseInnerEvaluator(model, cards)
        slopes = rng.uniform(0.5, 5.0, size=K)
        for flat in (ev.random_kernels(rng), zeroed_kernels(rng, ev)):
            kernels = ev.split(flat)
            point = ev.point(flat, slopes)
            want_rate, want_dists = dense.evaluate(kernels)
            assert point.rate == pytest.approx(want_rate, abs=1e-12)
            assert point.dists == pytest.approx(want_dists, abs=1e-12)
            grads = ev.split(ev.gradient(point, slopes))
            want = dense.lagrangian_grad(kernels, slopes)
            assert (point.value, point.rate) == pytest.approx((want[0], want[2]), abs=1e-12)
            assert point.dists == pytest.approx(want[3], abs=1e-12)
            for got, exp in zip(grads, want[1]):
                np.testing.assert_allclose(got, exp, rtol=1e-12, atol=1e-12)
            costs = dense.costs(dense.joint(kernels))  # axes (u..., side, z)
            dead_seen |= any(bool((c.max(axis=-1) == 0.0).any()) for c in costs)
            choices = [c.argmin(axis=-1) for c in costs]
            rows = ev.bayes_decoder(point).rows
            for flat, row in enumerate(rows):
                idx = np.unravel_index(flat, tuple(cards) + (model.joint.shape[-1],))
                zs = [int(c[idx]) for c in choices]
                assert row[np.ravel_multi_index(zs, model.reproduction_sizes)] == 1.0
    assert dead_seen  # the smoothed pass for zero-mass profiles was exercised


def test_optimizer_gradient_matches_finite_differences():
    erasure = casebook("erasure", p=0.5, L=2, D=0.6).model
    two_measures = random_source_model(np.random.default_rng(3), 3, 2, side=2)
    for model in (erasure, two_measures):
        rng = np.random.default_rng(0)
        ev = _InnerEvaluator(model, [3] * model.L)
        kernels = [rng.dirichlet(np.ones(3), n) * 0.8 + 0.2 / 3 for n in ev.y_sizes]
        kernels = [k / k.sum(axis=1, keepdims=True) for k in kernels]
        slopes = np.linspace(1.3, 2.1, model.K)
        grads = ev.split(ev.gradient(ev.point(joined(kernels), slopes), slopes))
        eps = 1e-7
        for m in range(model.L):
            for i in range(ev.y_sizes[m]):
                for j in range(2):
                    # perturb within the simplex tangent (mass between symbols)
                    kp = [k.copy() for k in kernels]
                    kp[m][i, j] += eps
                    kp[m][i, j + 1] -= eps
                    km = [k.copy() for k in kernels]
                    km[m][i, j] -= eps
                    km[m][i, j + 1] += eps
                    fd = (
                        ev.point(joined(kp), slopes).value - ev.point(joined(km), slopes).value
                    ) / (2 * eps)
                    want = grads[m][i, j] - grads[m][i, j + 1]
                    assert fd == pytest.approx(want, abs=1e-6)


def wrapped_sum_plogp(masses):
    """The entropy kernel as it summed before, through ``ndarray.sum``."""
    m = masses.reshape(-1)
    m = m[m > 0.0]
    terms = np.log(m)
    terms *= m
    return float(-terms.sum())


def wrapped_forward(ev, kernels):
    """The optimizer's former forward chain over a list of kernels, each
    step's left factor a reshape of the last product, kept as a test-only
    oracle."""
    b = ev.table
    lefts = []
    for y_size, ker in zip(ev.y_sizes, kernels):
        left = b.reshape(y_size, -1)
        lefts.append(left)
        b = left.T @ ker
    return b.reshape(len(ev.ln_ps1), ev.table.shape[-1], -1), lefts


def wrapped_point(ev, kernels, slopes):
    """The optimizer's former forward pass, through numpy's Python-level
    wrappers (``ndarray.sum`` and ``min``), kept as a test-only oracle."""
    q, lefts = wrapped_forward(ev, kernels)
    own = sum(
        wrapped_sum_plogp(p[:, None] * ker) - h for p, h, ker in zip(ev.p_y, ev.h_y, kernels)
    )
    rate = wrapped_sum_plogp(q[:, 0]) - ev.h_side - own
    costs = [q[:, ch] for ch in ev.channels]
    dists = tuple(float(c.min(axis=1).sum()) for c in costs)
    return _Point(kernels, q, lefts, costs, rate, dists, rate + float(np.dot(slopes, dists)))


def wrapped_gradient(ev, point, slopes):
    """The optimizer's former reverse sweep, with ``np.put_along_axis``,
    ``np.any`` and ``np.zeros_like``, kept as a test-only oracle."""
    kernels, q, costs = point.kernels, point.q, point.costs
    argmins = [c.argmin(axis=1) for c in costs]
    dead = [c.max(axis=1) == 0.0 for c in costs]
    if any(np.any(d) for d in dead):
        smoothed = [(1.0 - 1e-3) * ker + 1e-3 / ker.shape[1] for ker in kernels]
        q_smooth, _ = wrapped_forward(ev, smoothed)
        for k, ch in enumerate(ev.channels):
            argmins[k] = np.where(dead[k], q_smooth[:, ch].argmin(axis=1), argmins[k])
    f = np.zeros_like(q)
    f[:, 0] = ev.ln_ps1[:, None] - (np.log(np.maximum(q[:, 0], 1e-300)) + 1.0)
    for k, ch in enumerate(ev.channels):
        np.put_along_axis(f[:, ch], argmins[k][:, None], slopes[k], axis=1)
    grads = [None] * ev.L
    g = f.reshape(-1, ev.cards[-1])
    for l in range(ev.L - 1, -1, -1):
        ln_k1 = np.log(np.maximum(kernels[l], 1e-300)) + 1.0
        grads[l] = point.lefts[l] @ g + ev.p_y[l][:, None] * ln_k1
        if l:
            g = (kernels[l] @ g.T).reshape(-1, ev.cards[l - 1])
    return grads


def wrapped_mirror_step(kernels, grads, step):
    """The optimizer's former mirror step, with ``np.clip`` and list
    comprehensions, kept as a test-only oracle."""
    cand = [k * np.exp(np.clip(-step * g, -700, 700)) for k, g in zip(kernels, grads)]
    cand = [c / c.sum(axis=1, keepdims=True) for c in cand]
    move = sum(float(np.abs(c - k).sum()) for c, k in zip(cand, kernels))
    return cand, move


# Adapters that run the list-based oracles above on flat kernel sets.


def flat_wrapped_point(ev, flat, slopes):
    return dataclasses.replace(wrapped_point(ev, ev.split(flat), slopes), kernels=flat)


def flat_wrapped_gradient(ev, point, slopes):
    listed = dataclasses.replace(point, kernels=ev.split(point.kernels))
    return joined(wrapped_gradient(ev, listed, slopes))


def flat_wrapped_mirror_step(ev, flat, grads, step):
    cand, move = wrapped_mirror_step(ev.split(flat), ev.split(grads), step)
    return joined(cand), move


def same_bits(got, want):
    """Equal shape, dtype and bytes, so -0.0 and 0.0 differ."""
    if isinstance(got, float):
        return got.hex() == want.hex()
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_entropy_kernel_matches_the_wrapped_sum_bit_for_bit():
    rng = np.random.default_rng(2000)
    for n in (1, 7, 8, 9, 127, 128, 129, 1000, 100_000):
        masses = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.7)
        assert same_bits(_sum_plogp(masses), wrapped_sum_plogp(masses))
        assert same_bits(_sum_plogp(masses.reshape(1, -1, 1)), wrapped_sum_plogp(masses))


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("K", [1, 2])
def test_evaluation_loop_matches_the_wrapped_oracle_bit_for_bit(L, K):
    rng = np.random.default_rng(2100 + 10 * L + K)
    dead_seen = pairwise_seen = False
    # Six trials draw |U_l| from 2..4, four more from 2..9: rows of 8 or more
    # entries are summed pairwise by numpy.
    for trial, top in enumerate([5] * 6 + [10] * 4):
        model = random_source_model(rng, L, K, side=1 + trial % 2)
        ev = _InnerEvaluator(model, [int(c) for c in rng.integers(2, top, size=L)])
        pairwise_seen |= max(ev.cards) >= 8
        assert all(same_bits(h, wrapped_sum_plogp(p)) for h, p in zip(ev.h_y, ev.p_y))
        slopes = rng.uniform(0.5, 5.0, size=K)
        for flat in (ev.random_kernels(rng), zeroed_kernels(rng, ev)):
            kernels = ev.split(flat)
            got, want = ev.point(flat, slopes), wrapped_point(ev, kernels, slopes)
            assert same_bits(got.q, want.q)
            assert all(same_bits(a, b) for a, b in zip(got.costs, want.costs))
            for a, b in zip((got.rate, got.value) + got.dists, (want.rate, want.value) + want.dists):
                assert same_bits(a, b)
            dead_seen |= any(bool((c.max(axis=1) == 0.0).any()) for c in got.costs)
            grads, want_grads = ev.gradient(got, slopes), wrapped_gradient(ev, want, slopes)
            assert all(same_bits(a, b) for a, b in zip(ev.split(grads), want_grads))
            steps = [(t, grads, joined(want_grads)) for t in (1e-3, 0.5, 1e8)]
            # Exponents of up to 900 in size: some rows clipped at one end only.
            wide = rng.uniform(-900.0, 900.0, size=flat.shape)
            steps.append((1.0, wide, wide))
            for step, g_got, g_want in steps:
                cand, move = _mirror_step(ev, flat, g_got, step)
                want_cand, want_move = flat_wrapped_mirror_step(ev, flat, g_want, step)
                assert same_bits(move, want_move)
                assert same_bits(cand, want_cand)
    assert dead_seen  # the smoothed pass for zero-mass profiles was exercised
    assert pairwise_seen


def fingerprint(res):
    """Every output of a search, as bytes: what the oracle runs must equal."""
    return (
        res.sum_rate.hex(), [d.hex() for d in res.distortions], res.evaluations,
        res.restarts, res.message, [k.rows.tobytes() for k in res.gamma.encoder_kernels],
    )


def use_the_wrapped_oracle(monkeypatch):
    """Run every search step through the list-based oracles, without the
    cached forward pass."""
    monkeypatch.setattr(_InnerEvaluator, "point", flat_wrapped_point)
    monkeypatch.setattr(_InnerEvaluator, "gradient", flat_wrapped_gradient)
    monkeypatch.setattr(mtsc_bounds.regions, "_mirror_step", flat_wrapped_mirror_step)


def test_optimizer_matches_the_wrapped_oracle_bit_for_bit(monkeypatch):
    # The last two are benchmark searches: erasure L = 3 and 2 at caps 0.6
    # and 0.8, seed 1.
    cases = [
        (casebook("erasure", p=0.5, L=2, D=0.6).model, [0.4], [3, 3], 1500, 3),
        (casebook("erasure", p=0.5, L=3, D=0.6).model, [0.6], [3, 3, 3], 800, 3),
        (two_distortion_model(), [0.2, 0.1], [2, 2], 800, 3),
        (casebook("erasure", p=0.5, L=3, D=0.6).model, [0.6], [3, 3, 3], 4000, 1),
        (casebook("erasure", p=0.5, L=2, D=0.6).model, [0.8], [3, 3], 10_000, 1),
    ]

    def search(model, caps, cards, budget, seed):
        return fingerprint(optimize_bt_inner_sum_rate(model, caps, cards, budget=budget, seed=seed))

    got = [search(*case) for case in cases]
    use_the_wrapped_oracle(monkeypatch)
    assert got == [search(*case) for case in cases]


def test_a_repeated_kernel_set_reuses_the_last_forward_pass(monkeypatch):
    model = casebook("erasure", p=0.5, L=3, D=0.6).model
    ev = _InnerEvaluator(model, [3, 3, 3])
    flat = ev.random_kernels(np.random.default_rng(0))
    first = ev.point(flat, [2.0])
    again = ev.point(flat.copy(), [5.0])
    assert again.q is first.q and again.rate == first.rate and again.dists == first.dists
    assert same_bits(again.value, first.rate + 5.0 * first.dists[0])
    moved = flat.copy()
    moved[0] = np.nextafter(moved[0], 1.0)
    assert ev.point(moved, [2.0]).q is not first.q

    # One search counted both ways: the oracle makes a forward pass for every
    # evaluation and every smoothed pass, the search fewer, with the same result.
    passes = {"search": 0, "oracle": 0}
    forward, oracle_forward = _InnerEvaluator._forward, wrapped_forward

    def counted(self, flat):
        passes["search"] += 1
        return forward(self, flat)

    def oracle_counted(ev, kernels):
        passes["oracle"] += 1
        return oracle_forward(ev, kernels)

    monkeypatch.setattr(_InnerEvaluator, "_forward", counted)
    monkeypatch.setitem(globals(), "wrapped_forward", oracle_counted)
    res = optimize_bt_inner_sum_rate(model, [0.6], [3, 3, 3], budget=4000, seed=1)
    use_the_wrapped_oracle(monkeypatch)
    want = optimize_bt_inner_sum_rate(model, [0.6], [3, 3, 3], budget=4000, seed=1)
    assert res.evaluations == 1314
    assert fingerprint(res) == fingerprint(want)
    assert passes["oracle"] > res.evaluations
    assert 0 < passes["search"] < passes["oracle"]


@pytest.mark.parametrize("budget", [10_000, 800, 400, 40, 1])
def test_optimizer_budget_counts_evaluated_points(monkeypatch, budget):
    # 400, 40 and 1 run out inside restart 0, the others in later restarts.
    calls = []
    point = _InnerEvaluator.point

    def counted(self, kernels, slopes):
        calls.append(None)
        return point(self, kernels, slopes)

    monkeypatch.setattr(_InnerEvaluator, "point", counted)
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    res = optimize_bt_inner_sum_rate(inst.model, [0.6], [3, 3], budget=budget, seed=1)
    assert res.feasible
    assert res.evaluations == len(calls)
    assert res.evaluations <= budget


def test_optimizer_reaches_erasure_target_quickly():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    res = optimize_bt_inner_sum_rate(inst.model, [0.6], [3, 3], budget=4000, seed=5)
    closed = erasure_sum_rate(ErasureParams(0.5, 2, 0.6))
    assert res.feasible
    assert res.sum_rate <= closed + 5e-4
    assert res.distortions[0] <= 0.6 + 1e-9
    # reported constraints come from the actual reported system
    assert res.constraints.full_set == res.sum_rate


def test_optimizer_trivial_and_infeasible_caps():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    trivial = optimize_bt_inner_sum_rate(inst.model, [1e6], [1, 1], budget=100, seed=0)
    assert trivial.feasible and trivial.sum_rate == pytest.approx(0.0, abs=1e-12)
    infeasible = optimize_bt_inner_sum_rate(inst.model, [0.1], [3, 3], budget=1500, seed=0)
    assert not infeasible.feasible
    assert infeasible.gamma is None and math.isinf(infeasible.sum_rate)


def test_optimizer_refuses_a_distortion_its_gradient_would_overflow():
    # A slope times 1e308 is past the float range; 1e280 is the largest
    # entry the search takes, and the bound evaluators take any finite one.
    payload = casebook("appendix_c").model.to_json()
    payload["distortions"][0][41] = 1e308
    model = SourceModel.from_json(payload)
    with pytest.raises(ValueError, match=r"distortions up to 1e\+280, got 1e\+308"):
        optimize_bt_inner_sum_rate(model, [0.6], [3, 3], budget=5, seed=1)
    payload["distortions"][0][41] = 1e280
    assert optimize_bt_inner_sum_rate(SourceModel.from_json(payload), [0.6], [3, 3], budget=5, seed=1).feasible


def test_optimizer_deterministic_given_seed():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    a = optimize_bt_inner_sum_rate(inst.model, [0.6], [3, 3], budget=2500, seed=9)
    b = optimize_bt_inner_sum_rate(inst.model, [0.6], [3, 3], budget=2500, seed=9)
    assert a.sum_rate == b.sum_rate
    assert a.distortions == b.distortions
    for k1, k2 in zip(a.gamma.encoder_kernels, b.gamma.encoder_kernels):
        assert np.array_equal(k1.rows, k2.rows)


@pytest.mark.parametrize("L, budget", [(2, 1500), (3, 800), (4, 800), (5, 600), (6, 400)])
def test_optimizer_never_beats_the_erasure_closed_form(L, budget):
    inst = casebook("erasure", p=0.5, L=L, D=0.6)
    res = optimize_bt_inner_sum_rate(inst.model, [0.6], [3] * L, budget=budget, seed=L)
    closed = erasure_sum_rate(ErasureParams(0.5, L, 0.6))
    assert res.feasible
    assert closed - 1e-9 <= res.sum_rate <= closed + 1e-3


def test_optimizer_meets_the_erasure_closed_form_at_l8():
    # The check of the result takes the support path, whose lattice table
    # has 3^8 * 511 cells, under the optimizer's cap.
    inst = casebook("erasure", p=0.5, L=8, D=0.6)
    res = optimize_bt_inner_sum_rate(inst.model, [0.6], [3] * 8, budget=1000, seed=8)
    closed = erasure_sum_rate(ErasureParams(0.5, 8, 0.6))
    assert res.feasible and res.evaluations <= 1000
    assert closed - 1e-9 <= res.sum_rate <= closed + 1e-6


def test_optimizer_refuses_a_check_over_its_cell_cap():
    # A dense source checks its result on the dense joint of 2 * 3^7 source
    # cells, prod |U_l| and |Z| = 3: 28.7 M cells for |U_l| = 3 at L = 7.
    rng = np.random.default_rng(7)
    sizes = (2,) + (3,) * 7 + (1,)
    joint = JointPmf(tuple(zip(source_names(7), sizes)), rng.dirichlet(np.ones(2 * 3**7)))
    model = SourceModel(7, 1, joint, (rng.uniform(size=sizes + (3,)),), (3,))
    assert _InnerEvaluator(model, [3] * 7).L == 7
    with pytest.raises(ValueError, match="dense joint would have 38,263,752 cells"):
        _InnerEvaluator(model, [3] * 6 + [4])
    # Erasure L = 10: the search's forward result over (side, c, u) has
    # 1 + |Z| = 4 channels, 4 * 3^10 cells for |U_l| = 3, 4 * 6^10 for
    # |U_l| = 6 and 4 * 5^10 for |U_l| = 5.
    inst = casebook("erasure", p=0.5, L=10, D=0.6)
    assert _InnerEvaluator(inst.model, [3] * 10).L == 10
    with pytest.raises(ValueError, match="search's forward table would have 241,864,704 cells"):
        optimize_bt_inner_sum_rate(inst.model, [0.6], [6] * 10, budget=10, seed=0)
    with pytest.raises(ValueError, match="search's forward table would have 39,062,500 cells"):
        optimize_bt_inner_sum_rate(inst.model, [0.6], [5] * 10, budget=10, seed=0)


def test_optimizer_refuses_nan_caps():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    with pytest.raises(ValueError, match="distortion caps, none NaN"):
        optimize_bt_inner_sum_rate(inst.model, [math.nan], [3, 3], budget=200, seed=0)


def per_row_decoder(ev, point):
    """The optimizer's former decoder build, one callback per input tuple,
    kept as a test-only oracle."""
    side_size = len(ev.ln_ps1)
    choices = [c.argmin(axis=1).reshape((side_size,) + ev.cards) for c in point.costs]

    def decode(*args):
        zs = [int(c[(args[ev.L],) + args[: ev.L]]) for c in choices]
        return int(np.ravel_multi_index(zs, ev.model.reproduction_sizes))

    inputs = tuple((f"U{l}", n) for l, n in enumerate(ev.cards, start=1))
    inputs += ((f"Y{ev.L + 1}", side_size), ("T", 1))
    return Channel.deterministic(inputs, ("Z", ev.model.z_size), decode)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [1, 2])
def test_bayes_decoder_matches_the_per_row_build(L, K):
    rng = np.random.default_rng(1500 + 10 * L + K)
    for side in (1, 2, 3):
        model = random_source_model(rng, L, K, side)
        ev = _InnerEvaluator(model, [1 + (l + side) % 3 for l in range(L)])
        point = ev.point(zeroed_kernels(rng, ev), np.ones(K))
        got, want = ev.bayes_decoder(point), per_row_decoder(ev, point)
        assert (got.inputs, got.output) == (want.inputs, want.output)
        assert np.array_equal(got.rows, want.rows)


def test_optimizer_bits_do_not_depend_on_the_hash_seed():
    # The L = 5 evaluations run on the joint's support, whose group-bys are
    # keyed by variable sets; the class check reports every residual.
    script = (
        "from mtsc_bounds import *\n"
        "model = casebook('erasure', p=0.5, L=2, D=0.6).model\n"
        "res = optimize_bt_inner_sum_rate(model, [0.4], [3, 3], budget=10000, seed=1)\n"
        "print(res.constraints.full_set.hex())\n"
        "inst = casebook('erasure', p=0.5, L=5, D=0.6)\n"
        "got = new_outer_constraints(inst.model, inst.x, inst.gamma)\n"
        "print([v.hex() for v in got.subset_bounds.values()], got.distortions[0].hex())\n"
        "report = check_gamma_class(inst.model, inst.gamma, 'bt_inner')\n"
        "print([v.hex() for _, v in report.residuals])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(mtsc_bounds.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in range(4)
    }
    assert len(outputs) == 1, outputs


def test_optimizer_result_is_valid_inner_system():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    res = optimize_bt_inner_sum_rate(inst.model, [0.6], [3, 3], budget=3000, seed=2)
    constraints = bt_inner_constraints(inst.model, res.gamma)  # would raise on failure
    assert constraints.full_set == pytest.approx(res.sum_rate, abs=1e-12)


def test_optimizer_validates_arguments():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    with pytest.raises(ValueError):
        optimize_bt_inner_sum_rate(inst.model, [0.6, 0.1], [3, 3], budget=10, seed=0)
    with pytest.raises(ValueError):
        optimize_bt_inner_sum_rate(inst.model, [0.6], [3, 3], budget=0, seed=0)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        optimize_bt_inner_sum_rate(inst.model, [0.6], [3, 3], budget=10, seed=-1)


def test_optimizer_refuses_non_integral_cardinalities():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    with pytest.raises(ValueError, match=r"cardinalities must be an integer, got 3\.7"):
        optimize_bt_inner_sum_rate(inst.model, [0.6], [3.7, 3], budget=10, seed=0)
    assert optimize_bt_inner_sum_rate(inst.model, [0.6], [3.0, 3], budget=10, seed=0).feasible


@pytest.mark.parametrize("budget", [2.5, math.inf])
def test_optimizer_refuses_a_non_integral_budget(budget):
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    with pytest.raises(ValueError, match=f"budget must be an integer, got {budget!r}"):
        optimize_bt_inner_sum_rate(inst.model, [0.6], [3, 3], budget=budget, seed=0)
    assert optimize_bt_inner_sum_rate(inst.model, [0.6], [3, 3], budget=3.0, seed=0).evaluations == 3


def test_optimizer_refuses_a_non_integral_seed():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    with pytest.raises(ValueError, match=r"seed must be an integer, got 1\.5"):
        optimize_bt_inner_sum_rate(inst.model, [0.6], [3, 3], budget=10, seed=1.5)


def two_distortion_model():
    """Hidden bit with two observations; d1 targets Y0, d2 targets Y1."""
    joint = JointPmf((("Y0", 2),), np.array([0.5, 0.5]))
    joint = joint.extend(
        Channel((("Y0", 2),), ("Y1", 2), np.array([[0.85, 0.15], [0.15, 0.85]]))
    )
    joint = joint.extend(
        Channel((("Y0", 2),), ("Y2", 2), np.array([[0.9, 0.1], [0.2, 0.8]]))
    )
    joint = joint.product(JointPmf((("Y3", 1),), np.array([1.0])))
    d1 = np.zeros((2, 2, 2, 1, 2))
    d2 = np.zeros((2, 2, 2, 1, 2))
    for y0 in range(2):
        for z in range(2):
            d1[y0, :, :, 0, z] = float(y0 != z)
    for y1 in range(2):
        for z in range(2):
            d2[:, y1, :, 0, z] = float(y1 != z)
    return SourceModel(2, 2, joint, (d1, d2), (2, 2))


def test_two_distortions_product_reproduction():
    model = two_distortion_model()
    wt = JointPmf((("W", 1), ("T", 1)), np.array([1.0]))
    encoders = tuple(
        Channel(((f"Y{l}", 2), ("W", 1), ("T", 1)), (f"U{l}", 2), np.eye(2))
        for l in (1, 2)
    )
    # Z = (Z1, Z2) product-encoded, both components copying U1.
    decoder = Channel.deterministic(
        (("U1", 2), ("U2", 2), ("Y3", 1), ("T", 1)),
        ("Z", 4),
        lambda u1, u2, y3, t: int(np.ravel_multi_index((u1, u1), (2, 2))),
    )
    gamma = AuxSystem(wt, encoders, decoder)
    c = bt_inner_constraints(model, gamma)
    # Z1 = Y1 errs on Y0 exactly at the crossover; Z2 = Y1 is lossless.
    assert c.distortions[0] == pytest.approx(0.15, abs=1e-12)
    assert c.distortions[1] == 0.0


def test_optimizer_with_two_caps():
    model = two_distortion_model()
    res = optimize_bt_inner_sum_rate(model, [0.2, 0.1], [2, 2], budget=6000, seed=0)
    assert res.feasible
    assert res.distortions[0] <= 0.2 + 1e-9
    assert res.distortions[1] <= 0.1 + 1e-9
    assert res.constraints.full_set == res.sum_rate


def test_optimizer_with_informative_side_information():
    # Side information reveals the hidden bit half the time; the distortion
    # floor for a binary description is (1/2) * 0.15 = 0.075.
    joint = JointPmf((("Y0", 2),), np.array([0.5, 0.5]))
    joint = joint.extend(
        Channel((("Y0", 2),), ("Y1", 2), np.array([[0.85, 0.15], [0.15, 0.85]]))
    )
    joint = joint.extend(
        Channel((("Y0", 2),), ("Y2", 3), np.array([[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]))
    )
    d = np.zeros((2, 2, 3, 2))
    for y0 in range(2):
        for z in range(2):
            d[y0, :, :, z] = float(y0 != z)
    model = SourceModel(1, 1, joint, (d,), (2,))
    res = optimize_bt_inner_sum_rate(model, [0.1], [2], budget=6000, seed=0)
    assert res.feasible and res.distortions[0] <= 0.1 + 1e-9
    assert bt_inner_constraints(model, res.gamma).full_set == pytest.approx(
        res.sum_rate, abs=1e-12
    )
    too_tight = optimize_bt_inner_sum_rate(model, [0.05], [2], budget=2000, seed=0)
    assert not too_tight.feasible


def test_inner_bounds_dominated_by_outer_bounds():
    # For a system in the inner class, I(Y_A; U_A | ...) <= I(Y; U_A | ...)
    # subset-by-subset (the left argument only grows).
    rng = np.random.default_rng(505)
    for _ in range(15):
        model = random_ceo_model(rng)
        gamma = random_gamma(rng, model, w_size=1, t_size=2)
        inner = bt_inner_constraints(model, gamma)
        outer = bt_outer_constraints(model, gamma)
        for mask in inner.subset_bounds:
            assert inner.subset_bounds[mask] <= outer.subset_bounds[mask] + 1e-10


def test_erasure_three_encoders_cross_module():
    inst = casebook("erasure", p=0.5, L=3, D=0.5)
    c = new_outer_constraints(inst.model, inst.x, inst.gamma)
    closed = erasure_sum_rate(ErasureParams(0.5, 3, 0.5))
    assert abs(c.full_set - closed) <= 1e-9
    assert c.distortions[0] == pytest.approx(0.5, abs=1e-12)
    ci = bt_inner_constraints(inst.model, inst.gamma)
    v = contrapolymatroid_vertex(ci, (2, 3, 1))
    assert v.sum_rate == pytest.approx(ci.full_set, abs=1e-10)


def test_trivial_x_on_independent_observations():
    # Independent observations admit a constant coupled variable; with
    # deterministic W the improved outer bound then reproduces the
    # inner-bound constraints: R_l >= log 2 at zero distortion for the
    # coordinate-guessing instance.
    inst = casebook("toy_bt_gamma")
    c = new_outer_constraints(inst.model, inst.x, inst.gamma)
    bi = bt_inner_constraints(inst.model, inst.gamma)
    for mask in c.subset_bounds:
        assert c.subset_bounds[mask] == pytest.approx(bi.subset_bounds[mask], abs=1e-10)
    assert c.bound([1]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_identities_three_encoders():
    rng = np.random.default_rng(31)
    model = random_ceo_model(rng, L=3)
    gamma_det = random_gamma(rng, model, w_size=1, t_size=2)
    x = x_channel_from_sources(model, ("Y0",))
    na = new_outer_constraints(model, x, gamma_det)
    bi = bt_inner_constraints(model, gamma_det)
    assert len(na.subset_bounds) == 7
    for mask, bound in na.subset_bounds.items():
        assert bound == pytest.approx(bi.subset_bounds[mask], abs=1e-10)
    for order in ((1, 2, 3), (3, 1, 2)):
        v = contrapolymatroid_vertex(bi, order)
        assert v.sum_rate == pytest.approx(bi.full_set, abs=1e-10)
        for mask, bound in bi.subset_bounds.items():
            got = sum(v.rates[l - 1] for l in (1, 2, 3) if mask & (1 << (l - 1)))
            assert got >= bound - 1e-10


# ---------------------------------------------------------------------------
# Serialization of constraint sets
# ---------------------------------------------------------------------------


def test_region_constraints_serialization():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    c = bt_inner_constraints(inst.model, inst.gamma)
    payload = c.to_json()
    labels = [row["A"] for row in payload["bounds"]]
    assert labels == ["0b01", "0b10", "0b11"]
    csv = c.to_csv()
    assert csv.splitlines()[0] == "subset,bound"
    assert len(csv.splitlines()) == 4
    # csv floats round-trip exactly through repr
    value = float(csv.splitlines()[3].split(",")[1])
    assert value == c.full_set


def test_rate_point_validation():
    with pytest.raises(ValueError):
        RatePoint((-0.5, 1.0), (0.1,))
    p = RatePoint((1.0, -1e-12), (0.1,))
    assert p.rates[1] == 0.0


def test_region_constraints_need_every_mask_once():
    with pytest.raises(ValueError, match="every nonempty subset mask of L=2"):
        RegionConstraints(2, 1, {0b01: 1.0, 0b10: 1.0}, (0.0,))
    with pytest.raises(ValueError, match="every nonempty subset mask of L=2"):
        RegionConstraints(2, 1, {0b01: 1.0, 0b10: 1.0, 0b11: 2.0, 0b100: 2.0}, (0.0,))
    with pytest.raises(ValueError, match="every nonempty subset mask of L=2"):
        RegionConstraints(2, 1, {0: 0.0, 0b01: 1.0, 0b10: 1.0, 0b11: 2.0}, (0.0,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -2e-9])
def test_region_constraints_name_the_first_bad_mask(bad):
    bounds = {m: 1.0 for m in range(1, 8)}
    bounds[0b101] = bad
    bounds[0b110] = bad  # later in the dict: not the one named
    with pytest.raises(ValueError, match=f"bound for mask 0b101 is {bad!r}; must be finite, >= 0"):
        RegionConstraints(3, 1, bounds, (0.0,))


def test_region_constraints_store_small_negatives_as_plus_zero():
    bounds = {0b01: -1e-10, 0b10: -0.0, 0b11: 0.5}
    stored = RegionConstraints(2, 1, bounds, (0.0,)).subset_bounds
    assert stored == {0b01: 0.0, 0b10: 0.0, 0b11: 0.5}
    assert math.copysign(1.0, stored[0b01]) == 1.0
    assert math.copysign(1.0, stored[0b10]) == 1.0
    assert bounds[0b10] == 0.0 and math.copysign(1.0, bounds[0b10]) == -1.0  # input untouched
    assert all(type(v) is float for v in stored.values())


@pytest.mark.parametrize("text", ["1.5", b"1.5", None])
def test_region_constraints_refuse_a_value_that_is_not_a_number(text):
    with pytest.raises(TypeError):
        RegionConstraints(2, 1, {0b01: 1.0, 0b10: text, 0b11: 2.0}, (0.0,))


def test_region_constraints_keep_the_key_order():
    rng = np.random.default_rng(17)
    masks = [int(m) for m in rng.permutation(np.arange(1, 1 << 6))]
    values = {m: float(v) for m, v in zip(masks, rng.uniform(0, 3, len(masks)))}
    values[masks[0]] = 2  # an int is stored as its float
    region = RegionConstraints(6, 1, values, (0.0,))
    assert list(region.subset_bounds) == masks
    assert region.subset_bounds == values and type(region.subset_bounds[masks[0]]) is float
    assert [row["A"] for row in region.to_json()["bounds"]] == [
        subset_label(m, 6) for m in range(1, 1 << 6)
    ]


def test_deterministic_kernel_refused_over_the_table_cap():
    # X = (Y1..Y9) on the erasure casebook: 2 * 3^9 input rows by 3^9
    # symbols, 5.77 GiB of floats, refused before the rows are made.
    inst = casebook("erasure", p=0.5, L=9, D=0.3)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="774,840,978 cells, over the cap of 33,554,432"):
            x_channel_full_observation(inst.model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_inner_bound_cardinalities():
    from mtsc_bounds import inner_bound_cardinalities

    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    assert inner_bound_cardinalities(inst.model) == (7, 7)  # 3 + 2^2 + 1 - 1
    toy = casebook("toy")
    assert inner_bound_cardinalities(toy.model) == (8, 8)  # 4 + 2^2 + 1 - 1
    # the safe sizes work in the optimizer (a quick budget suffices here)
    res = optimize_bt_inner_sum_rate(
        inst.model, [0.6], inner_bound_cardinalities(inst.model), budget=2500, seed=0
    )
    assert res.feasible
