"""Tests for source models, auxiliary systems, Markov checks, and the casebook."""

import functools
import io
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from mtsc_bounds import (
    AlphabetMismatchError,
    AuxSystem,
    Channel,
    InvalidDistributionError,
    JointPmf,
    MarkovCheckError,
    SourceModel,
    VariableError,
    XChannel,
    build_full_joint,
    casebook,
    check_chi,
    check_gamma_class,
    conditional_mutual_information,
    expected_distortion,
    expected_distortions,
    gamma_class_residuals,
    x_channel_from_sources,
    x_channel_full_observation,
    x_channel_trivial,
)
from mtsc_bounds.model import MARKOV_TOL, MarkovReport

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Brute-force oracle for the coordinate-guessing instance
# ---------------------------------------------------------------------------


def toy_oracle():
    """Exact-rational enumeration of the randomized-selector construction."""
    atoms = {}
    for y11, y12, y21, y22, w in product((0, 1), repeat=5):
        u1 = (y11, y12)[w]
        u2 = (y21, y22)[w]
        key = (y11, y12, y21, y22, w, u1, u2)
        atoms[key] = atoms.get(key, Fraction(0)) + Fraction(1, 32)

    def h_of(fn):
        masses = {}
        for atom, m in atoms.items():
            k = fn(atom)
            masses[k] = masses.get(k, Fraction(0)) + m
        return -sum(float(m) * math.log(float(m)) for m in masses.values() if m > 0)

    def mi(fa, fb):
        return h_of(fa) + h_of(fb) - h_of(lambda t: (fa(t), fb(t)))

    fy = lambda t: t[0:4]
    i_full = mi(fy, lambda t: (t[5], t[6]))
    i_u1 = mi(fy, lambda t: t[5])
    # I(Y;U1|U2) = H(Y,U2) + H(U1,U2) - H(Y,U1,U2) - H(U2)
    i_cond = (
        h_of(lambda t: (t[0:4], t[6]))
        + h_of(lambda t: (t[5], t[6]))
        - h_of(lambda t: (t[0:4], t[5], t[6]))
        - h_of(lambda t: t[6])
    )
    return i_full, i_u1, i_cond


def test_toy_informations_match_oracle_and_closed_forms():
    inst = casebook("toy")
    joint = build_full_joint(inst.model, inst.gamma)
    ys = ("Y1", "Y2")
    i_full = conditional_mutual_information(joint, ys, ("U1", "U2"))
    i_u1 = conditional_mutual_information(joint, ys, ("U1",))
    i_cond = conditional_mutual_information(joint, ys, ("U1",), ("U2",))
    o_full, o_u1, o_cond = toy_oracle()
    assert i_full == pytest.approx(o_full, abs=1e-12)
    assert i_u1 == pytest.approx(o_u1, abs=1e-12)
    assert i_cond == pytest.approx(o_cond, abs=1e-12)
    assert i_full == pytest.approx(1.25 * LN2, abs=1e-12)
    assert i_u1 == pytest.approx(0.5 * LN2, abs=1e-12)
    assert i_cond == pytest.approx(0.75 * LN2, abs=1e-12)


def test_toy_selector_is_deterministic_given_w():
    # Conditioned on the selector pointing at the first coordinate, U1 equals
    # that coordinate with probability one.
    inst = casebook("toy")
    joint = build_full_joint(inst.model, inst.gamma).marginalize(("Y1", "W", "U1"))
    table = joint.reordered(("Y1", "W", "U1")).table
    for y1 in range(4):
        first_bit = y1 >> 1
        assert table[y1, 0, 1 - first_bit] == 0.0
        assert table[y1, 0, first_bit] > 0.0


def test_toy_distortion_is_zero():
    inst = casebook("toy")
    assert expected_distortion(inst.model, inst.gamma, 0) == 0.0


def test_build_with_constant_system_is_product_of_point_masses():
    # Deterministic W, T and constant channels: the built joint is the source
    # law times point masses on the constant auxiliary values.
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    model = inst.model
    wt = JointPmf((("W", 1), ("T", 1)), np.array([1.0]))
    encoders = tuple(
        Channel(((f"Y{l}", 3), ("W", 1), ("T", 1)), (f"U{l}", 1), np.ones((3, 1)))
        for l in (1, 2)
    )
    decoder = Channel(
        (("U1", 1), ("U2", 1), ("Y3", 1), ("T", 1)), ("Z", 3),
        np.array([[0.0, 1.0, 0.0]]),
    )
    joint = build_full_joint(model, AuxSystem(wt, encoders, decoder))
    np.testing.assert_array_equal(
        joint.marginalize(("Y0", "Y1", "Y2", "Y3")).probs, model.joint.probs
    )
    z = joint.marginalize(("Z",)).table
    assert z[1] == 1.0 and z[0] == 0.0 and z[2] == 0.0


# ---------------------------------------------------------------------------
# Class checks
# ---------------------------------------------------------------------------


def test_kernel_built_systems_pass_their_classes():
    toy = casebook("toy")
    assert check_gamma_class(toy.model, toy.gamma, "outer").worst <= 1e-12
    assert check_gamma_class(toy.model, toy.gamma, "bt_outer").worst <= 1e-12

    toy_bt = casebook("toy_bt_gamma")
    assert check_gamma_class(toy_bt.model, toy_bt.gamma, "bt_inner").worst <= 1e-12

    er = casebook("erasure", p=0.5, L=2, D=0.6)
    for cls in ("outer", "bt_inner", "bt_outer"):
        assert check_gamma_class(er.model, er.gamma, cls).worst <= 1e-12

    appc = casebook("appendix_c")
    assert check_gamma_class(appc.model, appc.gamma, "outer").worst <= 1e-12
    assert check_gamma_class(appc.model, appc.gamma, "bt_outer").worst <= 1e-12


def test_public_checks_read_the_support_past_the_dense_limit():
    # The dense joint at erasure L = 8 has 2 * 9^8 * 3 cells, 1.9 GiB; the
    # evaluators' oracle reads its support of 2 * 3^8 rows instead.
    er = casebook("erasure", p=0.5, L=8, D=0.6)
    for cls in ("outer", "bt_inner", "bt_outer"):
        assert check_gamma_class(er.model, er.gamma, cls).worst <= 1e-12
    assert expected_distortions(er.model, er.gamma)[0] == pytest.approx(0.6, abs=1e-12)


def test_erasure_casebook_refuses_a_distortion_table_over_the_cap():
    # The table over (sources, Z) has 2 * 3^L * 3 cells: 28.7 M at L = 14,
    # 86.1 M at L = 15.  It is refused before the model is built.
    with pytest.raises(ValueError, match="distortion table would have 86,093,442 cells"):
        casebook("erasure", p=0.5, L=15, D=0.6)


def test_unknown_class_name_is_refused_by_both_checks():
    toy = casebook("toy")
    joint = build_full_joint(toy.model, toy.gamma)
    with pytest.raises(ValueError, match="cls must be one of"):
        check_gamma_class(toy.model, toy.gamma, "inner")
    with pytest.raises(ValueError, match="cls must be one of"):
        gamma_class_residuals(joint, toy.model.L, "inner")


def test_shared_selector_fails_inner_class():
    # The randomized coordinate selector correlates U1 and U2 beyond what the
    # inner class allows; the correlated on/off pair construction likewise.
    toy = casebook("toy")
    report = check_gamma_class(toy.model, toy.gamma, "bt_inner")
    assert not report.passed
    assert report.worst > 0.1

    appc = casebook("appendix_c")
    report = check_gamma_class(appc.model, appc.gamma, "bt_inner")
    assert not report.passed
    assert report.worst == pytest.approx(0.07277579150809177, abs=1e-9)


def test_hand_built_joint_copying_other_observation_fails():
    # U1 = Y2 on two i.i.d. uniform bits: the encoder-1 Markov residual is
    # exactly ln 2. Brute-force joint, no kernels involved.
    bits = JointPmf(
        (("Y0", 1), ("Y1", 2), ("Y2", 2), ("Y3", 1)), np.full(4, 0.25)
    )
    joint = bits.extend(Channel((("Y2", 2),), ("U1", 2), np.eye(2)))
    joint = joint.product(JointPmf((("T", 1),), np.array([1.0])))
    joint = joint.extend(Channel((("T", 1),), ("U2", 1), np.array([[1.0]])))
    joint = joint.extend(Channel((("T", 1),), ("Z", 1), np.array([[1.0]])))
    report = gamma_class_residuals(joint, 2, "bt_inner")
    assert report.as_dict()["encoder_1_markov"] == pytest.approx(LN2, abs=1e-12)
    assert not report.passed


def test_check_chi_accepts_partial_observation_vector():
    inst = casebook("erasure", p=0.4, L=2, D=0.5)
    x = x_channel_from_sources(inst.model, ("Y1",))
    assert check_chi(inst.model, x).passed


def test_check_chi_accepts_hidden_source_for_ceo():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    assert check_chi(inst.model, inst.x).passed
    appc = casebook("appendix_c")
    assert check_chi(appc.model, appc.x).passed


def test_check_chi_rejects_trivial_x_on_correlated_observations():
    # Observations correlated through the hidden source: a constant X fails
    # with residual exactly I(Y1; Y2 | side info).
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    x = x_channel_trivial(inst.model)
    report = check_chi(inst.model, x)
    want = conditional_mutual_information(inst.model.joint, ("Y1",), ("Y2",), ("Y3",))
    assert not report.passed
    assert report.worst == pytest.approx(want, abs=1e-12)


def test_markov_coupling_property():
    # X attached by build_full_joint interacts with the auxiliary system only
    # through the sources.
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    joint = build_full_joint(inst.model, inst.gamma, inst.x)
    residual = conditional_mutual_information(
        joint, ("X",), ("U1", "U2", "Z", "W", "T"), ("Y0", "Y1", "Y2", "Y3")
    )
    assert residual <= 1e-10

    joint2 = build_full_joint(inst.model, inst.gamma, x_channel_full_observation(inst.model))
    residual2 = conditional_mutual_information(
        joint2, ("X",), ("U1", "U2", "Z", "W", "T"), ("Y0", "Y1", "Y2", "Y3")
    )
    assert residual2 <= 1e-10


# ---------------------------------------------------------------------------
# Distortions
# ---------------------------------------------------------------------------


def test_erasure_distortion_and_no_errors():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    d = expected_distortion(inst.model, inst.gamma, 0)
    assert d == pytest.approx(0.6, abs=1e-12)
    # error probability is exactly zero: joint mass of Y0 != Z in {-1,+1}
    joint = build_full_joint(inst.model, inst.gamma).marginalize(("Y0", "Z"))
    table = joint.reordered(("Y0", "Z")).table
    assert table[0, 2] == 0.0 and table[1, 0] == 0.0
    # hence the distortion is independent of the error penalty
    small = casebook("erasure", p=0.5, L=2, D=0.6, lam=10.0)
    assert expected_distortion(small.model, small.gamma, 0) == d


def test_erasure_marginal_matches_target_root():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    joint = build_full_joint(inst.model, inst.gamma)
    pu = joint.marginalize(("U1",)).table
    assert pu[1] == pytest.approx(0.6**0.5, abs=1e-12)


def test_full_erasure_instance():
    inst = casebook("erasure", p=0.5, L=2, D=1.0)
    assert expected_distortion(inst.model, inst.gamma, 0) == pytest.approx(1.0, abs=1e-12)


def test_constant_impossible_reproduction_hits_max_entry():
    # One uniform bit, two reproduction symbols; symbol 1 always costs 7.
    joint = JointPmf((("Y0", 1), ("Y1", 2), ("Y2", 1)), np.array([0.5, 0.5]))
    d = np.zeros((1, 2, 1, 2))
    d[..., 1] = 7.0
    model = SourceModel(1, 1, joint, (d,), (2,))
    wt = JointPmf((("W", 1), ("T", 1)), np.array([1.0]))
    enc = Channel((("Y1", 2), ("W", 1), ("T", 1)), ("U1", 1), np.array([[1.0], [1.0]]))
    dec = Channel((("U1", 1), ("Y2", 1), ("T", 1)), ("Z", 2), np.array([[0.0, 1.0]]))
    gamma = AuxSystem(wt, (enc,), dec)
    assert expected_distortion(model, gamma, 0) == 7.0


def test_expected_distortion_index_range():
    inst = casebook("toy")
    with pytest.raises(IndexError):
        expected_distortion(inst.model, inst.gamma, 1)


# ---------------------------------------------------------------------------
# Casebook contracts and serialization
# ---------------------------------------------------------------------------


def test_casebook_validation():
    with pytest.raises(ValueError):
        casebook("erasure", p=0.5, L=2, D=0.2)  # below p^L
    with pytest.raises(ValueError):
        casebook("erasure", p=0.5, L=2, D=1.1)
    with pytest.raises(ValueError):
        casebook("erasure", p=1.0, L=2, D=0.6)
    with pytest.raises(ValueError):
        casebook("nonsense")


def test_aux_system_validation():
    wt = JointPmf((("W", 1), ("T", 1)), np.array([1.0]))
    enc = Channel((("Y1", 2), ("W", 1), ("T", 1)), ("U1", 2), np.eye(2))
    dec = Channel((("U1", 2), ("Y2", 1), ("T", 1)), ("Z", 2), np.eye(2))
    AuxSystem(wt, (enc,), dec)  # fine
    bad_dec = Channel((("U1", 3), ("Y2", 1), ("T", 1)), ("Z", 2), np.ones((3, 2)) / 2)
    with pytest.raises(AlphabetMismatchError):
        AuxSystem(wt, (enc,), bad_dec)
    bad_enc = Channel((("Y1", 2), ("W", 2), ("T", 1)), ("U1", 2), np.eye(4)[:, :2] * 0 + 0.5)
    with pytest.raises(AlphabetMismatchError):
        AuxSystem(wt, (bad_enc,), dec)


def test_build_rejects_alphabet_mismatch():
    toy = casebook("toy")
    er = casebook("erasure", p=0.5, L=2, D=0.6)
    with pytest.raises(AlphabetMismatchError):
        build_full_joint(toy.model, er.gamma)


def test_source_model_validation():
    joint = JointPmf((("Y0", 2), ("Y1", 2), ("Y2", 1)), np.full(4, 0.25))
    with pytest.raises(AlphabetMismatchError):
        SourceModel(1, 1, joint, (np.zeros((2, 2, 1, 3)),), (2,))
    bad_names = JointPmf((("A", 2), ("Y1", 2), ("Y2", 1)), np.full(4, 0.25))
    with pytest.raises(VariableError):
        SourceModel(1, 1, bad_names, (np.zeros((2, 2, 1, 2)),), (2,))


def test_markov_report_clamps_fp_noise():
    report = MarkovReport((("a", -3e-16), ("b", 2e-12)))
    assert report.as_dict()["a"] == 0.0
    assert report.passed


def test_markov_report_passes_a_residual_of_exactly_the_tolerance():
    assert MarkovReport((("a", 0.0), ("b", MARKOV_TOL))).passed
    over = np.nextafter(MARKOV_TOL, 1.0)
    report = MarkovReport((("a", MARKOV_TOL), ("b", over), ("c", 0.0)))
    assert not report.passed and report.worst == over
    with pytest.raises(MarkovCheckError) as exc:
        report.require("gamma")
    assert str(exc.value) == f"gamma fails Markov check: b={over:.3e}"
    assert exc.value.report is report


def test_serialization_round_trips_bit_exact():
    for name in ("toy", "toy_bt_gamma", "appendix_c", "erasure"):
        inst = casebook(name)
        model2 = SourceModel.from_json(inst.model.to_json())
        assert np.array_equal(model2.joint.probs, inst.model.joint.probs)
        for t1, t2 in zip(model2.distortions, inst.model.distortions):
            assert np.array_equal(t1, t2)
        gamma2 = AuxSystem.from_json(inst.gamma.to_json())
        assert np.array_equal(gamma2.wt_pmf.probs, inst.gamma.wt_pmf.probs)
        for k1, k2 in zip(gamma2.encoder_kernels, inst.gamma.encoder_kernels):
            assert np.array_equal(k1.rows, k2.rows)
        assert np.array_equal(gamma2.decoder_kernel.rows, inst.gamma.decoder_kernel.rows)
        if inst.x is not None:
            x2 = XChannel.from_json(inst.x.to_json())
            assert np.array_equal(x2.kernel.rows, inst.x.kernel.rows)


def test_expected_distortions_vector():
    inst = casebook("erasure", p=0.5, L=2, D=0.6)
    assert expected_distortions(inst.model, inst.gamma) == (
        expected_distortion(inst.model, inst.gamma, 0),
    )


# ---------------------------------------------------------------------------
# Per-row oracle for the casebook's kernels and tables
# ---------------------------------------------------------------------------
# Test-only copies of the former builders: a deterministic kernel written one
# row at a time, one Python callback per input tuple, and the distortion
# tables written by nested loops.  The package builds each as one array
# expression over the input grid.


def per_row_deterministic(inputs, output, fn):
    sizes = [s for _, s in inputs]
    n_rows = math.prod(sizes)
    rows = np.zeros((n_rows, int(output[1])))
    for flat in range(n_rows):
        tup = np.unravel_index(flat, sizes) if sizes else ()
        rows[flat, int(fn(*map(int, tup)))] = 1.0
    return Channel(inputs, output, rows)


def per_row_x_from_sources(model, names):
    src = tuple(f"Y{i}" for i in range(model.L + 2))
    inputs = tuple((n, model.joint.size_of(n)) for n in src)
    positions = tuple(src.index(n) for n in names)
    sizes = tuple(model.joint.size_of(n) for n in names)

    def fn(*values):
        flat = 0
        for pos, size in zip(positions, sizes):
            flat = flat * size + values[pos]
        return flat

    return XChannel(per_row_deterministic(inputs, ("X", math.prod(sizes)), fn))


def per_row_x_trivial(model):
    inputs = tuple((f"Y{i}", model.joint.shape[i]) for i in range(model.L + 2))
    return XChannel(per_row_deterministic(inputs, ("X", 1), lambda *v: 0))


def per_row_toy_model():
    joint = JointPmf((("Y0", 1), ("Y1", 4), ("Y2", 4), ("Y3", 1)), np.full(16, 1.0 / 16.0))
    d = np.ones((1, 4, 4, 1, 4))
    for y1 in range(4):
        y11, y12 = y1 >> 1, y1 & 1
        for y2 in range(4):
            y21, y22 = y2 >> 1, y2 & 1
            for z in range(4):
                za, zb = z >> 1, z & 1
                if (za, zb) == (y11, y21) or (za, zb) == (y12, y22):
                    d[0, y1, y2, 0, z] = 0.0
    return SourceModel(2, 1, joint, (d,), (4,))


def uniform_wt(w_size, t_size):
    w, t = np.full(w_size, 1.0 / w_size), np.full(t_size, 1.0 / t_size)
    return JointPmf((("W", w_size), ("T", t_size)), np.outer(w, t).reshape(-1))


def per_row_toy_gamma(fold_w_into_t):
    w_size, t_size = (1, 2) if fold_w_into_t else (2, 1)
    encoders = []
    for l in (1, 2):
        def pick(y, w, t, _l=l):
            sel = t if fold_w_into_t else w
            return (y >> 1) & 1 if sel == 0 else y & 1

        encoders.append(
            per_row_deterministic(((f"Y{l}", 4), ("W", w_size), ("T", t_size)), (f"U{l}", 2), pick)
        )
    decoder = per_row_deterministic(
        (("U1", 2), ("U2", 2), ("Y3", 1), ("T", t_size)), ("Z", 4),
        lambda u1, u2, y3, t: 2 * u1 + u2,
    )
    return AuxSystem(uniform_wt(w_size, t_size), tuple(encoders), decoder)


def per_row_erasure_model(p, L, lam):
    joint = JointPmf((("Y0", 2),), np.array([0.5, 0.5]))
    for l in range(1, L + 1):
        rows = np.zeros((2, 3))
        rows[0, 1] = p
        rows[0, 0] = 1.0 - p
        rows[1, 1] = p
        rows[1, 2] = 1.0 - p
        joint = joint.extend(Channel((("Y0", 2),), (f"Y{l}", 3), rows))
    joint = joint.product(JointPmf(((f"Y{L + 1}", 1),), np.array([1.0])))
    d = np.empty(joint.shape + (3,))
    for y0_idx in range(2):
        y0_val = 2 * y0_idx - 1
        for z_idx in range(3):
            z_val = z_idx - 1
            if z_val == y0_val:
                val = 0.0
            elif z_val == 0:
                val = 1.0
            else:
                val = lam
            d[(y0_idx,) + (slice(None),) * L + (0, z_idx)] = val
    return SourceModel(L, 1, joint, (d,), (3,))


@functools.lru_cache(maxsize=None)
def per_row_sign_decoder(L):
    def sgn_sum(*args):
        total = sum(v - 1 for v in args[:L])
        return 1 + (0 if total == 0 else (1 if total > 0 else -1))

    inputs = tuple((f"U{l}", 3) for l in range(1, L + 1)) + ((f"Y{L + 1}", 1), ("T", 1))
    return per_row_deterministic(inputs, ("Z", 3), sgn_sum)


def per_row_erasure_gamma(p, L, D):
    q = (D ** (1.0 / L) - p) / (1.0 - p)
    rows = np.zeros((3, 3))
    rows[0, 0] = 1.0 - q
    rows[0, 1] = q
    rows[1, 1] = 1.0
    rows[2, 2] = 1.0 - q
    rows[2, 1] = q
    encoders = tuple(
        Channel(((f"Y{l}", 3), ("W", 1), ("T", 1)), (f"U{l}", 3), rows) for l in range(1, L + 1)
    )
    return AuxSystem(uniform_wt(1, 1), encoders, per_row_sign_decoder(L))


def per_row_appendix_c_gamma():
    wt = JointPmf((("W", 4), ("T", 1)), np.array([1.0 / 5.0, 2.0 / 5.0, 2.0 / 5.0, 0.0]))
    encoders = []
    for l in (1, 2):
        def mul(y, w, t, _l=l):
            w_l = (w >> 1) & 1 if _l == 1 else w & 1
            return (y - 1) * w_l + 1

        encoders.append(per_row_deterministic(((f"Y{l}", 3), ("W", 4), ("T", 1)), (f"U{l}", 3), mul))
    decoder = per_row_deterministic(
        (("U1", 3), ("U2", 3), ("Y3", 1), ("T", 1)), ("Z", 3),
        lambda u1, u2, y3, t: 1 + int(np.sign((u1 - 1) + (u2 - 1))),
    )
    return AuxSystem(wt, tuple(encoders), decoder)


@functools.lru_cache(maxsize=None)
def per_row_erasure_x_json(L):
    # X = Y0 reads only the alphabet sizes, which do not depend on p.
    return per_row_x_from_sources(per_row_erasure_model(0.5, L, 1.0), ("Y0",)).to_json()


def per_row_casebook_json(name, p=0.5, L=2, D=0.6, lam=1e6):
    """The to_json() of the per-row build's model, gamma and x."""
    if name in ("toy", "toy_bt_gamma"):
        model = per_row_toy_model()
        objs = model, per_row_toy_gamma(name == "toy_bt_gamma"), per_row_x_trivial(model)
    elif name == "appendix_c":
        model = per_row_erasure_model(0.5, 2, lam)
        objs = model, per_row_appendix_c_gamma(), per_row_x_from_sources(model, ("Y0",))
    else:
        model, gamma = per_row_erasure_model(p, L, lam), per_row_erasure_gamma(p, L, D)
        return model.to_json(), gamma.to_json(), per_row_erasure_x_json(L)
    return tuple(obj.to_json() for obj in objs)


ORACLE_CASES = [("toy", {}), ("toy_bt_gamma", {}), ("appendix_c", {})] + [
    ("erasure", dict(p=p, L=L, D=D))
    for L in range(1, 11)
    for p in (0.3, 0.5)
    for D in (0.3, 0.6, 0.9)
    if p**L <= D
]


@pytest.mark.parametrize("name, params", ORACLE_CASES, ids=lambda v: str(v))
def test_casebook_matches_the_per_row_build(name, params):
    inst = casebook(name, **params)
    model, gamma, x = per_row_casebook_json(name, **params)
    assert inst.model.to_json() == model
    assert inst.gamma.to_json() == gamma
    assert inst.x.to_json() == x


def test_dumped_erasure_files_match_the_per_row_build(tmp_path):
    from mtsc_bounds.cli import main

    prefix = str(tmp_path / "er6")
    assert main(["info", "--dump", "erasure", "--p", "0.5", "--L", "6", "--D", "0.3",
                 "--out", prefix]) == 0
    for suffix, payload in zip(("model", "gamma", "x"), per_row_casebook_json("erasure", 0.5, 6, 0.3)):
        want = io.StringIO()
        json.dump(payload, want)
        with open(f"{prefix}.{suffix}.json", "rb") as fh:
            assert fh.read() == want.getvalue().encode()


def test_deterministic_calls_fn_per_row_with_python_ints():
    seen = []

    def fn(*values):
        assert all(type(v) is int for v in values)
        seen.append(values)
        return (3 * sum(values) + values[0]) % 5 if values else 4

    for inputs in ((("A", 2), ("B", 3), ("C", 1), ("D", 4)), (("A", 7),), ()):
        seen.clear()
        got = Channel.deterministic(inputs, ("Z", 5), fn)
        # One call per row, in row-major order.
        assert seen == list(product(*(range(s) for _, s in inputs)))
        want = per_row_deterministic(inputs, ("Z", 5), fn)
        assert (got.inputs, got.output) == (want.inputs, want.output)
        assert np.array_equal(got.rows, want.rows)


@pytest.mark.parametrize("index", [-1, 3])
def test_deterministic_refuses_an_index_outside_the_output(index):
    with pytest.raises(InvalidDistributionError, match=r"onto 'Z' .*outside \[0, 3\)"):
        Channel.deterministic((("A", 2),), ("Z", 3), lambda a: index)
