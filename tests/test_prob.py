"""Unit and property tests for the finite-alphabet probability core."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtsc_bounds import (
    Channel,
    InvalidDistributionError,
    JointPmf,
    VariableError,
    binary_entropy,
    conditional_mutual_information,
    entropy,
    mutual_information,
)
from mtsc_bounds.prob import EntropyOracle

LN2 = math.log(2.0)


def uniform_bit(name):
    return JointPmf(((name, 2),), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# Construction contracts
# ---------------------------------------------------------------------------


def test_joint_rejects_negative_entries():
    with pytest.raises(InvalidDistributionError):
        JointPmf((("A", 2),), np.array([1.1, -0.1]))


def test_joint_rejects_bad_normalization():
    with pytest.raises(InvalidDistributionError):
        JointPmf((("A", 2),), np.array([0.6, 0.5]))


def test_joint_rejects_duplicate_names():
    with pytest.raises(VariableError):
        JointPmf((("A", 2), ("A", 2)), np.full(4, 0.25))


def test_joint_rejects_wrong_length():
    with pytest.raises(InvalidDistributionError):
        JointPmf((("A", 2), ("B", 2)), np.array([0.5, 0.5]))


def test_channel_rejects_nonstochastic_rows():
    with pytest.raises(InvalidDistributionError):
        Channel((("A", 2),), ("B", 2), np.array([[0.5, 0.5], [0.7, 0.2]]))
    with pytest.raises(InvalidDistributionError):
        Channel((("A", 2),), ("B", 2), np.array([[1.2, -0.2], [0.5, 0.5]]))


def test_probs_are_immutable():
    joint = uniform_bit("A")
    with pytest.raises(ValueError):
        joint.probs[0] = 0.3


def test_constructor_copies_and_every_derived_pmf_is_read_only():
    arr = np.array([0.1, 0.2, 0.3, 0.4])
    joint = JointPmf((("A", 2), ("B", 2)), arr)
    arr[:] = 0.25
    np.testing.assert_array_equal(joint.probs, [0.1, 0.2, 0.3, 0.4])
    derived = [
        joint.extend(Channel((("B", 2),), ("C", 3), np.full((2, 3), 1 / 3))),
        joint.product(uniform_bit("D")),
        joint.marginalize(("A",)),
        joint.marginalize(("A", "B")),  # nothing summed: a view of joint.probs
        joint.reordered(("B", "A")),
        joint.reordered(("A", "B")),  # identity order: a view as well
    ]
    for pmf in derived:
        assert not pmf.probs.flags.writeable
        with pytest.raises(ValueError):
            pmf.probs[0] = 0.5
    np.testing.assert_array_equal(joint.probs, [0.1, 0.2, 0.3, 0.4])


def test_derived_pmfs_are_validated():
    # The adopting path skips only the copy, not a check.
    half = uniform_bit("A").probs
    for probs in ([0.6, 0.5], [1.5, -0.5], [math.nan, 1.0]):
        with pytest.raises(InvalidDistributionError):
            JointPmf._owning((("A", 2),), np.array(probs))
    with pytest.raises(InvalidDistributionError):
        JointPmf._owning((("A", 3),), half)
    with pytest.raises(VariableError):
        JointPmf._owning((("A", 1), ("A", 2)), half)


# ---------------------------------------------------------------------------
# extend / marginalize / product
# ---------------------------------------------------------------------------


def test_extend_identity_channel_copies():
    joint = uniform_bit("Y")
    ident = Channel((("Y", 2),), ("U", 2), np.eye(2))
    out = joint.extend(ident)
    table = out.table
    assert table[0, 0] == 0.5 and table[1, 1] == 0.5
    assert table[0, 1] == 0.0 and table[1, 0] == 0.0


def test_extend_erasure_channel_hits_p_exactly():
    p = 0.3
    joint = uniform_bit("Y")
    # output symbols: 0 -> copy of Y=0, 1 -> erasure, 2 -> copy of Y=1
    rows = np.array([[1 - p, p, 0.0], [0.0, p, 1 - p]])
    out = joint.extend(Channel((("Y", 2),), ("U", 3), rows))
    assert out.marginalize(("U",)).table[1] == p


def test_extend_validates_inputs():
    joint = uniform_bit("Y")
    with pytest.raises(VariableError):
        joint.extend(Channel((("Q", 2),), ("U", 2), np.eye(2)))
    with pytest.raises(VariableError):
        joint.extend(Channel((("Y", 2),), ("Y", 2), np.eye(2)))


def test_extend_twice_with_correlated_selectors_gives_three_fifths():
    # Binary erasure CEO instance (p = 1/2, two encoders) with the
    # correlated on/off pair (W1, W2) ~ [[1/5, 2/5], [2/5, 0]]:
    # Pr(U1 = 0, U2 = 0) = Pr(N1 W1 = 0, N2 W2 = 0) = 3/5.
    y0 = JointPmf((("Y0", 2),), np.array([0.5, 0.5]))
    noisy = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])  # Y_l = N_l * Y0
    joint = y0.extend(Channel((("Y0", 2),), ("Y1", 3), noisy))
    joint = joint.extend(Channel((("Y0", 2),), ("Y2", 3), noisy))
    w = JointPmf((("W", 4),), np.array([0.2, 0.4, 0.4, 0.0]))  # w = 2*w1 + w2
    joint = joint.product(w)
    for l in (1, 2):
        rows = np.zeros((3 * 4, 3))
        for y in range(3):
            for wv in range(4):
                w_l = (wv >> 1) & 1 if l == 1 else wv & 1
                rows[y * 4 + wv, (y - 1) * w_l + 1] = 1.0
        joint = joint.extend(Channel(((f"Y{l}", 3), ("W", 4)), (f"U{l}", 3), rows))
    pu = joint.marginalize(("U1", "U2")).table
    assert pu[1, 1] == pytest.approx(0.6, abs=1e-15)


def test_marginalize_independent_pair():
    a = JointPmf((("A", 2),), np.array([0.25, 0.75]))
    b = JointPmf((("B", 3),), np.array([0.2, 0.3, 0.5]))
    joint = a.product(b)
    np.testing.assert_allclose(joint.marginalize(("A",)).probs, a.probs, atol=0)
    np.testing.assert_allclose(joint.marginalize(("B",)).probs, b.probs, atol=0)


def test_marginalize_selector_pair_gives_marginal():
    w = JointPmf((("W1", 2), ("W2", 2)), np.array([0.2, 0.4, 0.4, 0.0]))
    np.testing.assert_allclose(w.marginalize(("W1",)).probs, [0.6, 0.4], atol=1e-15)


def test_marginalize_all_vars_is_identity():
    w = JointPmf((("W1", 2), ("W2", 2)), np.array([0.2, 0.4, 0.4, 0.0]))
    out = w.marginalize(("W1", "W2"))
    np.testing.assert_array_equal(out.probs, w.probs)
    assert out.variables == w.variables


def test_marginalize_errors():
    joint = uniform_bit("A")
    with pytest.raises(VariableError):
        joint.marginalize(())
    with pytest.raises(VariableError):
        joint.marginalize(("Q",))


def test_product_rejects_shared_names():
    with pytest.raises(VariableError):
        uniform_bit("A").product(uniform_bit("A"))


def test_reordered_permutes():
    w = JointPmf((("A", 2), ("B", 3)), np.arange(6) / 15.0)
    out = w.reordered(("B", "A"))
    np.testing.assert_array_equal(out.table, w.table.T)


# ---------------------------------------------------------------------------
# Information measures
# ---------------------------------------------------------------------------


def test_mi_independent_bits_is_zero():
    joint = uniform_bit("Y1").product(uniform_bit("Y2"))
    assert abs(mutual_information(joint, ("Y1",), ("Y2",))) <= 1e-15


def test_mi_copied_bit_is_ln2():
    joint = JointPmf((("Y1", 2), ("Y2", 2)), np.array([0.5, 0.0, 0.0, 0.5]))
    assert mutual_information(joint, ("Y1",), ("Y2",)) == pytest.approx(LN2, abs=1e-15)


def test_cmi_validates_sets():
    joint = uniform_bit("A").product(uniform_bit("B"))
    with pytest.raises(VariableError):
        conditional_mutual_information(joint, ("A",), ())
    with pytest.raises(VariableError):
        conditional_mutual_information(joint, ("A",), ("A",))
    with pytest.raises(VariableError):
        conditional_mutual_information(joint, ("A",), ("B",), ("A",))
    with pytest.raises(VariableError):
        conditional_mutual_information(joint, ("A",), ("Q",))


def test_entropy_basic_identities():
    joint = uniform_bit("A").product(uniform_bit("B"))
    assert entropy(joint, ("A",)) == pytest.approx(LN2, abs=1e-15)
    assert entropy(joint, ("A", "B")) == pytest.approx(2 * LN2, abs=1e-15)
    assert entropy(joint, ("A",), ("B",)) == pytest.approx(LN2, abs=1e-15)


def test_binary_entropy_endpoints_and_half():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    with pytest.raises(ValueError):
        binary_entropy(math.nan)


def test_binary_entropy_against_extended_precision():
    # Independent oracle: the same formula evaluated in extended precision.
    x = 0.774597
    xl = np.longdouble(x)
    want = float(-xl * np.log(xl) - (1 - xl) * np.log(1 - xl))
    assert binary_entropy(x) == pytest.approx(want, abs=1e-15)
    assert binary_entropy(x) == pytest.approx(0.5336617905842673, abs=1e-12)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


def joints(min_vars=3, max_vars=4, alphabet_sizes=(2, 3)):
    """Random dense joints over alphabets of the given sizes (2-3 by default)."""

    @st.composite
    def build(draw):
        n_vars = draw(st.integers(min_vars, max_vars))
        sizes = [draw(st.sampled_from(alphabet_sizes)) for _ in range(n_vars)]
        total = int(np.prod(sizes))
        weights = draw(
            st.lists(
                st.floats(0.01, 1.0, allow_nan=False), min_size=total, max_size=total
            )
        )
        probs = np.asarray(weights)
        probs = probs / probs.sum()
        names = [f"V{i}" for i in range(n_vars)]
        return JointPmf(tuple(zip(names, sizes)), probs)

    return build()


@settings(max_examples=60, deadline=None)
@given(joints())
def test_chain_rule(joint):
    names = joint.names
    a, b, c, d = [names[0]], [names[1]], [names[2]], list(names[3:])
    lhs = conditional_mutual_information(joint, a, b + c, d)
    rhs = conditional_mutual_information(joint, a, b, d) + conditional_mutual_information(
        joint, a, c, b + d
    )
    assert lhs == pytest.approx(rhs, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(joints())
def test_nonnegativity(joint):
    names = joint.names
    assert conditional_mutual_information(joint, [names[0]], [names[1]], list(names[2:])) >= -1e-12
    assert entropy(joint, [names[0]], list(names[1:])) >= -1e-12


@settings(max_examples=40, deadline=None)
@given(joints(min_vars=2, max_vars=3), st.integers(0, 2**32 - 1))
def test_data_processing_on_composed_channels(joint, seed):
    rng = np.random.default_rng(seed)
    b_name, b_size = joint.variables[-1]
    rows = rng.dirichlet(np.ones(2), size=b_size)
    extended = joint.extend(Channel(((b_name, b_size),), ("C", 2), rows))
    a = [joint.names[0]]
    i_ab = mutual_information(extended, a, [b_name])
    i_ac = mutual_information(extended, a, ["C"])
    assert i_ac <= i_ab + 1e-10


@settings(max_examples=40, deadline=None)
@given(joints(min_vars=2, max_vars=3), st.integers(0, 2**32 - 1))
def test_extend_marginalize_round_trip(joint, seed):
    rng = np.random.default_rng(seed)
    name, size = joint.variables[0]
    rows = rng.dirichlet(np.ones(3), size=size)
    extended = joint.extend(Channel(((name, size),), ("NEW", 3), rows))
    back = extended.marginalize(joint.names)
    assert np.max(np.abs(back.probs - joint.probs)) <= 1e-12
    assert back.variables == joint.variables


def _extend_by_gather(joint, channel):
    """Reference for JointPmf.extend: gather each cell's channel row through
    an index grid the size of the joint."""
    shape = joint.shape
    idx = np.zeros(shape, dtype=np.intp)
    stride = 1
    for name, size in reversed(channel.inputs):
        grid_shape = [1] * len(shape)
        grid_shape[joint.names.index(name)] = size
        idx = idx + np.arange(size, dtype=np.intp).reshape(grid_shape) * stride
        stride *= size
    return (joint.table[..., None] * channel.rows[idx]).reshape(-1)


@settings(max_examples=80, deadline=None)
@given(joints(min_vars=1, max_vars=4, alphabet_sizes=(1, 2, 3)), st.data())
def test_extend_matches_index_grid_gather(joint, data):
    # Inputs are any subset of the joint's variables in any order, like the
    # decoder's (U..., Y_{L+1}, T) against the joint's (Y..., W, T, U...).
    inputs = data.draw(st.permutations(joint.variables))
    inputs = tuple(inputs[: data.draw(st.integers(0, len(inputs)))])
    out_size = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_rows = int(np.prod([s for _, s in inputs], dtype=np.int64))
    channel = Channel(inputs, ("NEW", out_size), rng.dirichlet(np.ones(out_size), size=n_rows))
    assert np.array_equal(joint.extend(channel).probs, _extend_by_gather(joint, channel))


def test_extend_conditional_law_matches_rows():
    rng = np.random.default_rng(5)
    joint = uniform_bit("A").product(JointPmf((("B", 3),), np.array([0.2, 0.5, 0.3])))
    rows = rng.dirichlet(np.ones(2), size=6)
    chan = Channel((("A", 2), ("B", 3)), ("C", 2), rows)
    table = joint.extend(chan).table
    for a, b in product(range(2), range(3)):
        mass = table[a, b].sum()
        np.testing.assert_allclose(table[a, b] / mass, rows[a * 3 + b], atol=1e-12)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.ones(12))
    joint = JointPmf((("A", 2), ("B", 2), ("C", 3)), probs)
    again = JointPmf.from_json(joint.to_json())
    assert np.array_equal(again.probs, joint.probs)
    assert again.variables == joint.variables

    rows = rng.dirichlet(np.ones(3), size=4)
    chan = Channel((("A", 2), ("B", 2)), ("C", 3), rows)
    again = Channel.from_json(chan.to_json())
    assert np.array_equal(again.rows, chan.rows)
    assert again.inputs == chan.inputs and again.output == chan.output


def test_cmi_against_fraction_oracle():
    # Brute-force oracle with exact rational masses on a handcrafted joint.
    atoms = {}
    for a, b, c in product(range(2), range(2), range(2)):
        atoms[(a, b, c)] = Fraction(1 + a + 2 * b * c, 14)
    total = sum(atoms.values())
    atoms = {k: v / total for k, v in atoms.items()}

    def h_of(fn):
        masses = {}
        for atom, m in atoms.items():
            key = fn(atom)
            masses[key] = masses.get(key, Fraction(0)) + m
        return -sum(float(m) * math.log(float(m)) for m in masses.values() if m > 0)

    want = (
        h_of(lambda t: (t[0], t[2]))
        + h_of(lambda t: (t[1], t[2]))
        - h_of(lambda t: t)
        - h_of(lambda t: t[2])
    )
    probs = np.array([float(atoms[(a, b, c)]) for a, b, c in product(range(2), repeat=3)])
    joint = JointPmf((("A", 2), ("B", 2), ("C", 2)), probs)
    got = conditional_mutual_information(joint, ("A",), ("B",), ("C",))
    assert got == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# The memoized entropy oracle against the dense formula it replaced
# ---------------------------------------------------------------------------


def _dense_h(names, table, keep):
    """H of the marginal on ``keep``, summed straight from a dense table."""
    if not keep:
        return 0.0
    m = table.sum(axis=tuple(i for i, n in enumerate(names) if n not in keep)).reshape(-1)
    m = m[m > 0.0]
    return float(-(m * np.log(m)).sum())


def _dense_cmi(joint, a, b, c):
    """I(A;B|C) the way it was computed before the oracle: reduce the whole
    joint to A, B, C, then sum that down for every entropy term."""
    abc = set(a) | set(b) | set(c)
    names = [n for n in joint.names if n in abc]
    reduced = joint.table.sum(axis=tuple(i for i, n in enumerate(joint.names) if n not in abc))
    return (
        _dense_h(names, reduced, set(a) | set(c))
        + _dense_h(names, reduced, set(b) | set(c))
        - _dense_h(names, reduced, abc)
        - _dense_h(names, reduced, set(c))
    )


@st.composite
def joints_with_queries(draw):
    """A joint over 3-5 variables and a sequence of (A, B, C) splits of them."""
    joint = draw(joints(min_vars=3, max_vars=5))
    n = len(joint.names)
    roles = st.lists(st.sampled_from("ABC-"), min_size=n, max_size=n).filter(
        lambda r: "A" in r and "B" in r
    )
    queries = []
    for r in draw(st.lists(roles, min_size=1, max_size=8)):
        queries.append(tuple([v for v, role in zip(joint.names, r) if role == x] for x in "ABC"))
    return joint, queries


@settings(max_examples=60, deadline=None)
@given(joints_with_queries())
def test_oracle_matches_dense_formula(case):
    joint, queries = case
    oracle = EntropyOracle(joint, joint.names)
    for a, b, c in queries:
        for names in (a, b + c, a + b + c):
            assert abs(oracle.h(names) - _dense_h(joint.names, joint.table, set(names))) <= 1e-12
        got = oracle.cmi(a, b, c)
        assert abs(got - _dense_cmi(joint, a, b, c)) <= 1e-12
        assert got >= -1e-12
        assert abs(conditional_mutual_information(joint, a, b, c) - got) <= 1e-12


def test_oracle_reduces_to_keep_and_validates_names():
    joint = uniform_bit("A").product(uniform_bit("B")).product(uniform_bit("C"))
    oracle = EntropyOracle(joint, ("A", "B"))
    assert oracle.h(("A", "B")) == pytest.approx(2 * LN2, abs=1e-15)
    assert oracle.h(()) == 0.0
    with pytest.raises(VariableError):
        oracle.h(("C",))
    with pytest.raises(VariableError):
        EntropyOracle(joint, ("Q",))
    with pytest.raises(VariableError):
        oracle.cmi(("A",), ("A",))
