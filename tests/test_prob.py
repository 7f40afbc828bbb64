"""Unit and property tests for the finite-alphabet probability core."""

import math
from fractions import Fraction
from itertools import permutations, product

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
from mtsc_bounds import prob
from mtsc_bounds.prob import EntropyOracle, _Support

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
    oracle = EntropyOracle(joint)
    for a, b, c in queries:
        for names in (a, b + c, a + b + c):
            assert abs(oracle.h(names) - _dense_h(joint.names, joint.table, set(names))) <= 1e-12
        got = oracle.cmi(a, b, c)
        assert abs(got - _dense_cmi(joint, a, b, c)) <= 1e-12
        assert got >= -1e-12
        assert abs(conditional_mutual_information(joint, a, b, c) - got) <= 1e-12


def test_oracle_validates_names():
    joint = uniform_bit("A").product(uniform_bit("B")).product(uniform_bit("C"))
    oracle = EntropyOracle(joint)
    assert oracle.h(("A", "B")) == pytest.approx(2 * LN2, abs=1e-15)
    assert oracle.h(()) == 0.0
    with pytest.raises(VariableError):
        oracle.h(("Q",))
    with pytest.raises(VariableError):
        oracle.cmi(("A",), ("A",))


# ---------------------------------------------------------------------------
# The support root: the nonzero cells, against the dense joint
# ---------------------------------------------------------------------------


def sparse_joint(rng, names, sizes, zero_frac):
    """A random joint with about ``zero_frac`` of its cells exactly zero."""
    probs = rng.random(int(np.prod(sizes)))
    probs[rng.random(probs.size) < zero_frac] = 0.0
    probs[rng.integers(probs.size)] = 1.0  # never all zero
    return JointPmf(tuple(zip(names, sizes)), probs / probs.sum())


def sparse_channel(rng, inputs, output, zero_frac):
    rows = rng.random((int(np.prod([s for _, s in inputs])), output[1]))
    rows[rng.random(rows.shape) < zero_frac] = 0.0
    rows[np.arange(len(rows)), rng.integers(output[1], size=len(rows))] = 1.0
    return Channel(inputs, output, rows / rows.sum(axis=1, keepdims=True))


def random_built_joint(rng, zero_frac):
    """A sparse joint times an independent pmf, extended by three kernels:
    the dense joint and the support built the same way."""
    base = sparse_joint(rng, ("A", "B"), [int(s) for s in rng.integers(1, 4, 2)], zero_frac)
    other = sparse_joint(rng, ("C",), [int(rng.integers(1, 4))], zero_frac)
    joint = base.product(other)
    support = _Support.of(joint)
    for name, inputs in (("D", ("A", "C")), ("E", ("D", "B")), ("F", ("E",))):
        variables = tuple((n, joint.size_of(n)) for n in inputs)
        channel = sparse_channel(rng, variables, (name, int(rng.integers(1, 4))), zero_frac)
        joint, support = joint.extend(channel), support.extend(channel)
    return joint, support


def assert_narrow_contiguous_codes(support):
    """``codes`` is a tuple of one C-contiguous array per variable, each in
    the narrowest unsigned type of that variable's own alphabet."""
    assert isinstance(support.codes, tuple) and len(support.codes) == len(support.variables)
    for codes, (name, size) in zip(support.codes, support.variables):
        assert codes.shape == (support.rows,) and codes.flags.c_contiguous, name
        assert codes.dtype == np.min_scalar_type(size - 1), (name, size, codes.dtype)


def assert_codes_are_cells(codes, cells, shape):
    """Each variable's codes are its row of np.unravel_index of the cells."""
    want = np.unravel_index(cells, shape)
    assert len(codes) == len(want)
    for got, row in zip(codes, want):
        assert np.array_equal(got, row)


@pytest.mark.parametrize("zero_frac", [0.0, 0.3, 0.7])
def test_support_holds_the_nonzero_cells_bit_for_bit(zero_frac):
    rng = np.random.default_rng(int(zero_frac * 10))
    for _ in range(20):
        joint, support = random_built_joint(rng, zero_frac)
        cells = np.flatnonzero(joint.probs)
        assert support.names == joint.names
        assert np.array_equal(support.masses[support.masses > 0], joint.probs[cells])
        assert_narrow_contiguous_codes(support)
        kept = support.masses > 0
        assert_codes_are_cells([c[kept] for c in support.codes], cells, joint.shape)


@pytest.mark.parametrize("dense_cells_per_row, small_table", [(0, 0), (4, 1 << 12), (10**9, 0)])
def test_support_oracle_matches_the_dense_oracle(monkeypatch, dense_cells_per_row, small_table):
    # (0, 0) groups every marginal by sorting and counts the grouped table
    # from the support's cells; 10**9 sums every marginal into a dense table.
    monkeypatch.setattr(prob, "_DENSE_CELLS_PER_ROW", dense_cells_per_row)
    monkeypatch.setattr(prob, "_SMALL_TABLE", small_table)
    rng = np.random.default_rng(7)
    for trial in range(30):
        joint, support = random_built_joint(rng, 0.3 * (trial % 3))
        names = joint.names
        got, want = EntropyOracle(support), EntropyOracle(joint)
        for _ in range(6):
            role = rng.integers(4, size=len(names) - 1)  # A, B, C or left out
            a, b, c = ([n for n, r in zip(names[1:], role) if r == k] for k in range(3))
            if a and b:
                assert got.cmi(a, b, c) == pytest.approx(want.cmi(a, b, c), abs=1e-12)
            for s in (a, b + c, a + b + c):
                assert got.h(s) == pytest.approx(want.h(s), abs=1e-12)
        order = [(n,) for n in rng.permutation(names[1:4])]
        assert np.allclose(got.grouped(order), want.grouped(order), rtol=0, atol=1e-15)
        groups = [("B",), ("D", "C"), ("F", "E")]
        tables = [o.grouped(groups) for o in (got, want)]
        assert tables[0].flags.c_contiguous and tables[0].ndim == 3
        for got_h, want_h in zip(*(prob._lattice_entropies(t) for t in tables)):
            assert got_h == pytest.approx(want_h, abs=1e-12)
    with pytest.raises(VariableError):
        got.h(("A", "Q"))


def test_support_keys_rank_tuples_past_the_int64_range():
    # 5^40 tuples overflow a mixed-radix int64 key; the ranks still order
    # the rows as their tuples do.
    rng = np.random.default_rng(3)
    codes = rng.integers(5, size=(40, 2000)).astype(np.uint8)
    codes[:, 1000:] = codes[:, :1000]  # every tuple twice
    variables = tuple((f"V{i}", 5) for i in range(40))
    support = _Support(variables, tuple(codes), np.full(2000, 1 / 2000))
    key, span = support.keys(n for n, _ in variables)
    assert key.max() < span <= 1 << 62
    tuples = [tuple(column) for column in codes.T.tolist()]
    rank = {t: i for i, t in enumerate(sorted(set(tuples)))}
    _, by_key = np.unique(key, return_inverse=True)
    assert by_key.tolist() == [rank[t] for t in tuples]
    # Within range the key is the mixed-radix index itself.
    key, span = support.keys(["V3", "V1"])
    assert span == 25 and np.array_equal(key, 5 * codes[3] + codes[1])


def ravel_keys(support, names):
    """The mixed-radix key by np.ravel_multi_index over every axis: the
    reference for Horner's rule."""
    index = [support._row[n] for n in names]
    sizes = [support.variables[i][1] for i in index]
    if not index:
        return np.zeros(support.rows, np.intp), 1
    return np.ravel_multi_index([support.codes[i] for i in index], sizes), math.prod(sizes)


def unique_ranks(key):
    """Each key's rank among the distinct keys, by np.unique."""
    return np.unique(key, return_inverse=True)[1].reshape(-1)


def unique_group_sums(key, masses):
    """The masses of each distinct key, in key order, by np.add.reduceat
    over the rows ordered stably by np.unique's inverse: the reference for
    the sorted group-by."""
    ranks = unique_ranks(key)
    order = np.argsort(ranks, kind="stable")
    return np.add.reduceat(masses[order], np.searchsorted(ranks[order], np.arange(ranks.max() + 1)))


def assert_group_sums_near_fsum(sums, key, masses, ulps):
    """Each group sum is within ``ulps`` units in the last place of the
    correctly rounded sum of its masses."""
    for k, got in zip(np.unique(key), sums):
        want = math.fsum(masses[key == k])
        assert abs(got - want) <= ulps * np.spacing(want), (k, got, want)


def random_wide_support(rng):
    """A support with size-1 axes, rows in row-major order (so keys over
    leading axes come nearly sorted), and uint8 codes but for, at random,
    one alphabet of 300 symbols, whose codes are uint16."""
    sizes = [int(rng.choice([1, 2, 3, 5])) for _ in range(4)]
    names = ("A", "B", "C", "D")
    joint = sparse_joint(rng, names, sizes, 0.4)
    support = _Support.of(joint)
    for name, inputs, out in (("E", ("A", "C"), 1), ("F", ("B",), 4), ("G", ("E", "D"), 3)):
        if name == "F" and rng.random() < 0.5:
            out = 300  # F's codes are uint16; the others stay uint8
        variables = tuple((n, support.variables[support._row[n]][1]) for n in inputs)
        support = support.extend(sparse_channel(rng, variables, (name, out), 0.5))
    return support


def test_support_keys_and_ranks_match_ravel_and_unique():
    rng = np.random.default_rng(23)
    dtypes = set()
    for _ in range(40):
        support = random_wide_support(rng)
        assert_narrow_contiguous_codes(support)
        dtypes.update(c.dtype for c in support.codes)
        names = support.names
        for _ in range(8):
            chosen = [str(n) for n in rng.permutation(names)[: int(rng.integers(0, len(names) + 1))]]
            key, span = support.keys(chosen)
            want, want_span = ravel_keys(support, chosen)
            assert span == want_span and key.dtype == np.intp
            assert np.array_equal(key, want)
    assert dtypes == {np.dtype(np.uint8), np.dtype(np.uint16)}
    # Alphabets of 256 and 257 symbols, with uint8 and uint16 codes: each
    # partial key's type holds the size it is multiplied by.
    codes = (
        np.array([0, 255, 7, 255], np.uint8),
        np.array([1, 0, 2, 2], np.uint8),
        np.array([256, 3, 0, 256], np.uint16),
    )
    support = _Support((("A", 256), ("B", 3), ("C", 257)), codes, np.full(4, 0.25))
    assert_narrow_contiguous_codes(support)
    for names in permutations(support.names):
        for k in range(4):
            assert np.array_equal(support.keys(names[:k])[0], ravel_keys(support, names[:k])[0])


def test_group_sums_on_nearly_sorted_and_repeated_keys():
    # Without a span the sums are those of the keys that occur, in key order;
    # with one, the dense table, counted in row order at under 4,096 rows a cell.
    rng = np.random.default_rng(29)
    for n in (1, 2, 7, 1000):
        runs = np.sort(rng.integers(0, 50, n))
        swaps = rng.integers(0, n, n // 20 + 1)
        runs[swaps] = runs[swaps[::-1]]
        for key in (runs, runs[::-1].copy(), np.zeros(n, np.intp), rng.integers(0, 3, n)):
            key, masses = key.astype(np.intp), rng.random(n)
            sums = prob._group_sum(key, masses)
            assert np.array_equal(sums, unique_group_sums(key, masses))
            assert_group_sums_near_fsum(sums, key, masses, 4)
            table = prob._group_sum(key.copy(), masses, 50)
            assert np.array_equal(table, np.bincount(key, masses, minlength=50))


def test_large_marginals_sum_bit_for_bit_as_by_unique(monkeypatch):
    # Every marginal takes the sorted path; its group sums are np.add.reduceat
    # over the rows ordered stably by np.unique's inverse of the ravelled
    # key, bit for bit, and each is within a few ulps of math.fsum.
    monkeypatch.setattr(prob, "_DENSE_CELLS_PER_ROW", 0)
    monkeypatch.setattr(prob, "_SMALL_TABLE", 0)
    rng = np.random.default_rng(31)
    for _ in range(20):
        support = random_wide_support(rng)
        assert_narrow_contiguous_codes(support)
        oracle = EntropyOracle(support)
        for _ in range(6):
            s = frozenset(str(n) for n in rng.choice(support.names, int(rng.integers(1, 6)), False))
            names = tuple(n for n in support.names if n in s)
            key = ravel_keys(support, names)[0]
            got = oracle._masses(s)
            assert np.array_equal(got, unique_group_sums(key, support.masses))
            assert_group_sums_near_fsum(got, key, support.masses, 4)


def test_dense_group_sums_over_a_million_rows_a_cell_stay_near_fsum():
    # A running sum of 10^6 masses drifts by hundreds of ulps; the dense
    # count adds blocks of _SUM_BLOCK rows pairwise and stays within a few.
    rng = np.random.default_rng(43)
    n = 3_100_001  # over 10^6 rows in each of three cells, and a last partial block
    masses = rng.random(n) * (2 / n)
    codes = np.array([rng.integers(0, 3, n), rng.integers(0, 2, n)], np.uint8)
    key = codes[0].astype(np.intp)
    assert np.bincount(key).min() >= 10**6
    got = EntropyOracle(_Support((("A", 3), ("B", 2)), tuple(codes), masses)).grouped([("A",)])
    assert got.shape == (3,)
    assert_group_sums_near_fsum(got, key, masses, 4)
    assert np.array_equal(prob._group_sum(key.copy(), masses, 3), got)


def test_large_keys_leaving_one_variable_out_are_derived():
    rng = np.random.default_rng(37)
    for _ in range(20):
        support = random_wide_support(rng)
        assert_narrow_contiguous_codes(support)
        oracle = EntropyOracle(support)
        full = support.names
        assert np.array_equal(oracle._large_key(full), support.keys(full)[0])
        for left_out in full:
            names = tuple(n for n in full if n != left_out)
            assert np.array_equal(oracle._large_key(names), ravel_keys(support, names)[0])
            assert oracle._key[0] == full  # a derived key does not replace the kept one
        # A key that is not the kept one less one variable is computed and kept.
        names = full[2:]
        assert np.array_equal(oracle._large_key(names), ravel_keys(support, names)[0])
        assert oracle._key[0] == names


def test_support_extend_writes_contiguous_codes():
    joint = sparse_joint(np.random.default_rng(41), ("A", "B"), [3, 4], 0.3)
    support = _Support.of(joint)
    channel = sparse_channel(np.random.default_rng(42), (("B", 4),), ("C", 300), 0.5)
    extended = support.extend(channel)
    assert_narrow_contiguous_codes(extended)
    dense = joint.extend(channel)
    assert_codes_are_cells(extended.codes, np.flatnonzero(dense.probs), dense.shape)


def test_support_extend_shares_the_codes_it_keeps():
    # A kernel with one positive entry per row keeps every cell: the new
    # support holds its parent's code arrays themselves.  Any other kernel
    # gathers new arrays and leaves its parent's as they were.
    joint = sparse_joint(np.random.default_rng(47), ("A", "B"), [3, 4], 0.3)
    support = _Support.of(joint)
    before = [c.copy() for c in support.codes]
    one = Channel.deterministic((("A", 3), ("B", 4)), ("C", 5), lambda a, b: (a + b) % 5)
    kept = support.extend(one)
    assert kept.rows == support.rows
    assert all(new is old for new, old in zip(kept.codes, support.codes))
    split = support.extend(sparse_channel(np.random.default_rng(48), (("B", 4),), ("D", 3), 0.0))
    assert split.rows > support.rows
    assert not any(new is old for new, old in zip(split.codes, support.codes))
    assert all(np.array_equal(c, b) for c, b in zip(support.codes, before))
    for extended in (kept, split):
        assert_narrow_contiguous_codes(extended)


def test_support_codes_take_the_type_of_their_own_alphabet():
    # A 300-symbol output gets uint16 codes; the other variables keep uint8,
    # through extends that keep and that gather their codes.
    joint = sparse_joint(np.random.default_rng(53), ("A", "B"), [3, 4], 0.3)
    dense, support = joint, _Support.of(joint)
    channels = (
        sparse_channel(np.random.default_rng(54), (("B", 4),), ("C", 300), 0.5),
        Channel.deterministic((("A", 3),), ("D", 2), lambda a: a % 2),
        sparse_channel(np.random.default_rng(55), (("D", 2),), ("E", 3), 0.0),
    )
    for channel in channels:
        dense, support = dense.extend(channel), support.extend(channel)
        assert_narrow_contiguous_codes(support)
    assert [c.dtype for c in support.codes] == [np.uint8, np.uint8, np.uint16, np.uint8, np.uint8]
    assert_codes_are_cells(support.codes, np.flatnonzero(dense.probs), dense.shape)


# ---------------------------------------------------------------------------
# Subset-lattice entropies
# ---------------------------------------------------------------------------


def walk_lattice_entropies(table):
    """The lattice entropies as one depth-first walk, one marginal per node:
    the reference for the blocked version."""
    n = table.ndim
    out = np.zeros(1 << n)

    def walk(t, mask, first):
        out[mask] = prob._sum_plogp(t)
        for a in range(first, n):
            child = mask & ~(1 << a)
            if child:
                pos = (mask & ((1 << a) - 1)).bit_count()
                walk(prob._sum_axes(t, (pos,)), child, a + 1)

    if n:
        walk(table, (1 << n) - 1, 0)
    return out


def random_lattice_table(rng, n):
    """A pmf table with n axes: mostly alphabets 1 to 3, some up to 300,
    exact zeros, and now and then an all-zero slice."""
    shape = [
        int(rng.integers(4, 301)) if rng.random() < 0.15 else int(rng.integers(1, 4))
        for _ in range(n)
    ]
    while math.prod(shape) > 1 << 14:
        shape[int(np.argmax(shape))] //= 2
    table = np.array(rng.random(shape) * (rng.random(shape) < 0.7))  # 0-d for n = 0
    wide = [a for a in range(n) if shape[a] > 1]
    if wide and rng.random() < 0.5:
        a = int(rng.choice(wide))
        index = [slice(None)] * n
        index[a] = int(rng.integers(shape[a]))
        table[tuple(index)] = 0.0
    if table.sum() == 0.0:
        table[(0,) * n] = 1.0
    return table / table.sum()


@pytest.mark.parametrize(
    "block_table, block_cells",
    [(0, 0), (prob._BLOCK_TABLE, prob._BLOCK_CELLS), (10**12, 10**12)],
    ids=["walk", "default", "one-block"],
)
def test_lattice_entropies_match_the_walk(monkeypatch, block_table, block_cells):
    # (0, 0) walks every node; 10**12 takes the whole lattice as one block.
    monkeypatch.setattr(prob, "_BLOCK_TABLE", block_table)
    monkeypatch.setattr(prob, "_BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(11)
    for n in range(13):
        for _ in range(4 if n < 10 else 2):
            table = random_lattice_table(rng, n)
            got = prob._lattice_entropies(table)
            assert got[0] == 0.0
            assert np.abs(got - walk_lattice_entropies(table)).max() <= 1e-12
    # A long axis next to short ones; size-1 axes first, last and between.
    for shape in [(300, 2, 3), (2, 300, 1, 2), (1, 2, 1, 3, 2, 1), (1,) * 5, (3, 1, 257)]:
        table = rng.dirichlet(np.ones(math.prod(shape))).reshape(shape)
        got = prob._lattice_entropies(table)
        assert got[0] == 0.0
        assert np.abs(got - walk_lattice_entropies(table)).max() <= 1e-12


def test_lattice_entropies_peak_memory_on_eleven_bits():
    # The block limits keep the extended tables small: a whole-lattice
    # block on 11 bits (3^11 cells) peaks at about 2.7 MB.
    import tracemalloc

    table = np.random.default_rng(5).dirichlet(np.ones(1 << 11)).reshape((2,) * 11)
    tracemalloc.start()
    try:
        prob._lattice_entropies(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_support_oracle_refuses_a_counted_table_over_the_cap(monkeypatch):
    # A dense table counted from the support's cells for ``grouped`` is
    # refused over the cap and named by its variables; an entropy over a
    # larger table groups the cells by sorting instead.
    monkeypatch.setattr(prob, "_MAX_TABLE_CELLS", 5)
    joint = sparse_joint(np.random.default_rng(3), ("A", "B", "C"), [2, 3, 2], 0.3)
    oracle = EntropyOracle(_Support.of(joint))
    with pytest.raises(ValueError, match="table over A, B would have 6 cells, over the cap of 5"):
        oracle.grouped([("A",), ("B",)])
    with pytest.raises(ValueError, match="table over B, C, A would have 12 cells"):
        oracle.grouped([("B",), ("C", "A")])
    assert oracle.h(joint.names) == pytest.approx(EntropyOracle(joint).h(joint.names))
    want = joint.marginalize(("A", "C")).table.T.reshape(-1)
    assert np.allclose(oracle.grouped([("C", "A")]), want, rtol=0, atol=1e-15)


def test_support_oracle_drops_a_large_cmi_table(monkeypatch):
    # The table over A, B, C is kept only while the smaller marginals of the
    # CMI are summed from it; from a dense root it is the root and stays.
    monkeypatch.setattr(prob, "_SMALL_TABLE", 4)
    joint = sparse_joint(np.random.default_rng(4), ("A", "B", "C"), [2, 3, 2], 0.0)
    dense = EntropyOracle(joint)
    support = EntropyOracle(_Support.of(joint))
    want = dense.cmi(["A"], ["B"], ["C"])
    assert support.cmi(["A"], ["B"], ["C"]) == pytest.approx(want, abs=1e-12)
    assert set(support._tables) == {frozenset("AC"), frozenset("BC"), frozenset("C")}
    assert frozenset("ABC") in dense._tables
