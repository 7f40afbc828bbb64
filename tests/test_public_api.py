"""The public surface: the names the package exports, and the refusals of
bad input that it reaches.

Each refusal raises its documented exception type with a message naming
the bad value; each CLI case exits 1 with an ``error:`` line, not a
traceback.
"""

import numpy as np
import pytest

import mtsc_bounds
from mtsc_bounds import (
    AlphabetMismatchError,
    AuxSystem,
    Channel,
    InfeasibleError,
    JointPmf,
    RegionConstraints,
    SourceModel,
    VariableError,
    XChannel,
    berger_yeung_bounds,
    build_full_joint,
    casebook,
    check_chi,
    entropy,
    x_channel_from_sources,
)
from mtsc_bounds.cli import main

PUBLIC_NAMES = [
    "AlphabetMismatchError", "AuxSystem", "CasebookInstance", "Channel",
    "ErasureCounterexample", "ErasureParams", "GaussianCounterexample", "GaussianParams",
    "InfeasibleError", "InvalidDistributionError", "JointPmf", "MarkovCheckError",
    "MarkovReport", "MtscError", "OptimizeResult", "RatePoint", "RegionConstraints",
    "RootShapeReport", "ShapeReport", "SourceModel", "SupermodularityError", "VariableError",
    "XChannel", "berger_yeung_bounds", "binary_entropy", "bt_inner_constraints",
    "bt_outer_constraints", "build_full_joint", "casebook", "check_chi", "check_gamma_class",
    "check_supermodular", "chi_residual", "conditional_mutual_information",
    "contrapolymatroid_vertex", "entropy", "erasure_bt_counterexample", "erasure_sum_rate",
    "expected_distortion", "expected_distortions", "g_function", "g_root_shape_report",
    "g_shape_report", "gamma_class_residuals", "gaussian_bt_counterexample",
    "gaussian_min_sum_rate", "gaussian_region_contains", "inner_bound_cardinalities",
    "mutual_information", "new_outer_constraints", "noise_info_minimum", "oohama_gap",
    "optimize_bt_inner_sum_rate", "search_bt_counterexample", "slepian_wolf_bounds",
    "subset_label", "sum_rate_curve", "sum_rate_curve_csv", "x_channel_from_sources",
    "x_channel_full_observation", "x_channel_trivial",
]


def test_the_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 61
    assert sorted(mtsc_bounds.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(mtsc_bounds, name) is not None, name


def erasure(L=2):
    return casebook("erasure", p=0.5, L=L, D=0.6)


def pair():
    return JointPmf((("A", 2), ("B", 2)), np.full(4, 0.25))


def uniform(inputs, output):
    cells = int(np.prod([s for _, s in inputs]))
    return Channel(inputs, output, np.full((cells, output[1]), 1.0 / output[1]))


def gamma_with_decoder(side=1, t=1, z=3):
    """The erasure L = 2 system with a uniform decoder of the given sizes."""
    gamma = erasure().gamma
    decoder = uniform((("U1", 3), ("U2", 3), ("Y3", side), ("T", t)), ("Z", z))
    return AuxSystem(gamma.wt_pmf, gamma.encoder_kernels, decoder)


def source_model(L=2, sizes=(3,), tables=1):
    model = erasure().model
    return SourceModel(L, 1, model.joint, model.distortions * tables, sizes)


def x_with_y1_size(size):
    inputs = (("Y0", 2), ("Y1", size), ("Y2", 3), ("Y3", 1))
    return XChannel(uniform(inputs, ("X", 2)))


CLI = "cli"

# case: (the documented type, or CLI; the call or argv; a message naming the bad value)
REFUSALS = {
    "cli info --dump without --out": (
        CLI, ("info", "--dump", "erasure"), "--dump requires --out PREFIX"),
    "cli bounds new-outer without --x": (
        CLI, ("bounds", "--model", "{prefix}.model.json", "--gamma", "{prefix}.gamma.json",
              "--kind", "new-outer"), "--kind new-outer requires --x"),
    "RegionConstraints K != distortions": (
        ValueError, lambda: RegionConstraints(1, 2, {1: 0.1}, (0.0,)),
        "need K=2 distortions, got 1"),
    "RegionConstraints.bound mask out of range": (
        ValueError, lambda: RegionConstraints(1, 1, {1: 0.1}, (0.0,)).bound(2),
        "subset mask 2 out of range for L=1"),
    "berger_yeung_bounds at L = 3": (
        InfeasibleError, lambda: berger_yeung_bounds(erasure(3).model, erasure(3).gamma),
        "Berger-Yeung form requires L = 2, got L=3"),
    "SourceModel L < 1": (
        ValueError, lambda: source_model(L=0), "need L >= 1 and K >= 1, got L=0, K=1"),
    "SourceModel reproduction sizes": (
        ValueError, lambda: source_model(sizes=(3, 3)),
        "need K=1 positive reproduction sizes, got (3, 3)"),
    "SourceModel tables": (
        ValueError, lambda: source_model(tables=2), "need K=1 distortion tables, got 2"),
    "AuxSystem with no encoders": (
        ValueError, lambda: AuxSystem(erasure().gamma.wt_pmf, (), erasure().gamma.decoder_kernel),
        "need at least one encoder kernel"),
    "AuxSystem decoder T size": (
        AlphabetMismatchError, lambda: gamma_with_decoder(t=2),
        "decoder T size 2 disagrees with wt_pmf's 1"),
    "gamma L != model L": (
        AlphabetMismatchError, lambda: build_full_joint(erasure(2).model, erasure(3).gamma),
        "gamma has L=3, model has L=2"),
    "gamma side-information size": (
        AlphabetMismatchError, lambda: build_full_joint(erasure().model, gamma_with_decoder(side=2)),
        "decoder side-information size 2 disagrees with the model's 1"),
    "gamma decoder output size": (
        AlphabetMismatchError, lambda: build_full_joint(erasure().model, gamma_with_decoder(z=2)),
        "decoder output size 2 != product reproduction size 3"),
    "X kernel input size": (
        AlphabetMismatchError, lambda: check_chi(erasure().model, x_with_y1_size(2)),
        "x kernel input 'Y1' size 2 != model size 3"),
    "x_channel_from_sources unknown name": (
        VariableError, lambda: x_channel_from_sources(erasure().model, ("Y9",)),
        "'Y9' is not a source variable of this model"),
    "x_channel_from_sources empty": (
        VariableError, lambda: x_channel_from_sources(erasure().model, ()),
        "names must be nonempty"),
    "JointPmf.size_of unknown name": (
        VariableError, lambda: pair().size_of("C"), "unknown variable 'C'; have ('A', 'B')"),
    "JointPmf.extend colliding name": (
        VariableError, lambda: pair().extend(uniform((("A", 2),), ("B", 2))),
        "name collision: 'B' already present"),
    "JointPmf.extend wrong size": (
        AlphabetMismatchError, lambda: pair().extend(uniform((("A", 3),), ("C", 2))),
        "variable 'A': joint size 2 != channel size 3"),
    "JointPmf.reordered non-permutation": (
        VariableError, lambda: pair().reordered(("A", "A")),
        "order ('A', 'A') is not a permutation of ('A', 'B')"),
    "entropy with no variables": (
        VariableError, lambda: entropy(pair(), ()), "variables must be nonempty"),
    "entropy with overlapping sets": (
        VariableError, lambda: entropy(pair(), ("A", "B"), ("B",)),
        "variables and given overlap: ['B']"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_names_the_bad_value(tmp_path, capsys, case):
    kind, call, message = REFUSALS[case]
    if kind is CLI:
        prefix = str(tmp_path / "er")
        assert main(["info", "--dump", "erasure", "--out", prefix]) == 0
        capsys.readouterr()
        code = main([a.format(prefix=prefix) for a in call])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"error: {message}" in captured.err and "Traceback" not in captured.err
    else:
        with pytest.raises(kind) as info:
            call()
        assert type(info.value) is kind and message in str(info.value)
