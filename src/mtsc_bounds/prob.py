"""Exact probability algebra and information measures on finite alphabets.

Everything here works with dense joint probability mass functions over named
finite variables and with conditional pmfs (stochastic kernels).  All
information measures are returned in nats and are computed by exact summation
with the conventions 0 log 0 = 0 and 0 log(0/0) = 0 applied entrywise.

Layout convention (normative, also used by the JSON schema): the flat ``probs``
vector of a :class:`JointPmf` is row-major in variable order.  For two binary
variables ``A`` then ``B`` the entries are ordered

    probs = [p(A=0,B=0), p(A=0,B=1), p(A=1,B=0), p(A=1,B=1)]

and a :class:`Channel` with inputs ``(A, B)`` stores one row per input tuple in
the same order: rows[0] is the output pmf given (A=0,B=0), rows[1] given
(A=0,B=1), and so on.

Values are immutable after construction and all operations are pure, so
everything in this module is safe for concurrent use without synchronization.
The one exception is the private ``EntropyOracle``, a cache that each bound,
region or report builds for itself and never shares.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import AlphabetMismatchError, InvalidDistributionError, VariableError

# Normalization tolerance on input.  A violation is an error; silent
# renormalization is never performed.
NORMALIZATION_TOL = 1e-9

Name = str
Variable = tuple[Name, int]


def _as_variables(variables: Iterable[Variable]) -> tuple[Variable, ...]:
    out = []
    for name, size in variables:
        name = str(name)
        size = int(size)
        if size < 1:
            raise VariableError(f"variable {name!r} has nonpositive alphabet size {size}")
        out.append((name, size))
    names = [n for n, _ in out]
    if len(set(names)) != len(names):
        raise VariableError(f"duplicate variable names in {names}")
    return tuple(out)


@dataclass(frozen=True)
class JointPmf:
    """Dense pmf over an ordered list of named finite variables.

    ``probs`` is the flat row-major array; ``table`` exposes it reshaped to one
    axis per variable.  Entries must be nonnegative and sum to 1 within
    ``NORMALIZATION_TOL``.
    """

    variables: tuple[Variable, ...]
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "variables", _as_variables(self.variables))
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        expected = int(np.prod([s for _, s in self.variables], dtype=np.int64))
        if probs.size != expected:
            raise InvalidDistributionError(
                f"probs has length {probs.size}, expected {expected} for sizes "
                f"{[s for _, s in self.variables]}"
            )
        if not np.all(np.isfinite(probs)):
            raise InvalidDistributionError("probs contains non-finite entries")
        if np.any(probs < 0.0):
            raise InvalidDistributionError(
                f"probs contains negative entries (min {probs.min():.3e})"
            )
        total = float(probs.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidDistributionError(
                f"probs sums to {total!r}, violating |sum-1| <= {NORMALIZATION_TOL}"
            )
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    # -- basic structure ---------------------------------------------------

    @property
    def names(self) -> tuple[Name, ...]:
        return tuple(n for n, _ in self.variables)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.variables)

    @property
    def table(self) -> np.ndarray:
        """The pmf reshaped to one axis per variable (read-only view)."""
        return self.probs.reshape(self.shape)

    def size_of(self, name: Name) -> int:
        for n, s in self.variables:
            if n == name:
                return s
        raise VariableError(f"unknown variable {name!r}; have {self.names}")

    def _axes_of(self, names: Iterable[Name]) -> tuple[int, ...]:
        have = self.names
        axes = []
        for name in names:
            if name not in have:
                raise VariableError(f"unknown variable {name!r}; have {have}")
            axes.append(have.index(name))
        return tuple(axes)

    # -- algebra -----------------------------------------------------------

    def marginalize(self, keep: Iterable[Name]) -> "JointPmf":
        """Sum out every variable not in ``keep`` (original order preserved)."""
        names, table = self._summed(keep)
        variables = tuple(v for v in self.variables if v[0] in names)
        return JointPmf(variables, table.reshape(-1))

    def _summed(self, keep: Iterable[Name]) -> tuple[tuple[Name, ...], np.ndarray]:
        """Names and table of the marginal on ``keep``, not validated again."""
        keep = set(keep)
        if not keep:
            raise VariableError("keep set must be nonempty")
        self._axes_of(keep)  # validates names
        return _sum_out(self.names, self.table, keep)

    def extend(self, channel: "Channel") -> "JointPmf":
        """Attach ``channel``'s output variable, drawn conditionally on its inputs.

        The returned joint marginalizes back to ``self`` and gives the new
        variable the conditional law specified by the channel rows.
        """
        out_name, out_size = channel.output
        if out_name in self.names:
            raise VariableError(f"name collision: {out_name!r} already present")
        for name, size in channel.inputs:
            if name not in self.names:
                raise VariableError(f"channel input {name!r} not among {self.names}")
            if self.size_of(name) != size:
                raise AlphabetMismatchError(
                    f"variable {name!r}: joint size {self.size_of(name)} != channel size {size}"
                )
        in_axes = self._axes_of(name for name, _ in channel.inputs)
        new_table = _times_kernel(self.table, in_axes, channel.rows)
        return JointPmf(self.variables + (channel.output,), new_table.reshape(-1))

    def product(self, other: "JointPmf") -> "JointPmf":
        """Independent product of two joints over disjoint variable sets."""
        overlap = set(self.names) & set(other.names)
        if overlap:
            raise VariableError(f"variables {sorted(overlap)} present on both sides")
        table = np.multiply.outer(self.table, other.table)
        return JointPmf(self.variables + other.variables, table.reshape(-1))

    def reordered(self, order: Sequence[Name]) -> "JointPmf":
        """Same distribution with variables permuted into ``order``."""
        if sorted(order) != sorted(self.names):
            raise VariableError(f"order {order} is not a permutation of {self.names}")
        axes = self._axes_of(order)
        table = np.transpose(self.table, axes)
        variables = tuple(self.variables[a] for a in axes)
        return JointPmf(variables, table.reshape(-1))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "variables": [{"name": n, "size": s} for n, s in self.variables],
            "probs": [float(x) for x in self.probs],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "JointPmf":
        variables = [(v["name"], int(v["size"])) for v in payload["variables"]]
        return cls(tuple(variables), np.asarray(payload["probs"], dtype=float))


@dataclass(frozen=True)
class Channel:
    """Conditional pmf from a tuple of input variables to one output variable.

    ``rows`` is a stochastic matrix with one row per input tuple (row-major in
    input order); each row must sum to 1 within ``NORMALIZATION_TOL``.
    """

    inputs: tuple[Variable, ...]
    output: Variable
    rows: np.ndarray

    def __post_init__(self):
        inputs = _as_variables(self.inputs)
        out_name, out_size = self.output
        out = (str(out_name), int(out_size))
        if out[1] < 1:
            raise VariableError(f"output {out[0]!r} has nonpositive alphabet size {out[1]}")
        if out[0] in [n for n, _ in inputs]:
            raise VariableError(f"output name {out[0]!r} collides with an input name")
        n_rows = int(np.prod([s for _, s in inputs], dtype=np.int64)) if inputs else 1
        rows = np.asarray(self.rows, dtype=float).reshape(n_rows, out[1])
        if not np.all(np.isfinite(rows)):
            raise InvalidDistributionError("channel rows contain non-finite entries")
        if np.any(rows < 0.0):
            raise InvalidDistributionError(
                f"channel rows contain negative entries (min {rows.min():.3e})"
            )
        sums = rows.sum(axis=1)
        bad = np.abs(sums - 1.0) > NORMALIZATION_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InvalidDistributionError(
                f"channel row {i} sums to {sums[i]!r}, violating |sum-1| <= {NORMALIZATION_TOL}"
            )
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "output", out)
        object.__setattr__(self, "rows", rows)

    def to_json(self) -> dict:
        return {
            "inputs": [{"name": n, "size": s} for n, s in self.inputs],
            "output": {"name": self.output[0], "size": self.output[1]},
            "rows": [[float(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Channel":
        inputs = tuple((v["name"], int(v["size"])) for v in payload["inputs"])
        output = (payload["output"]["name"], int(payload["output"]["size"]))
        return cls(inputs, output, np.asarray(payload["rows"], dtype=float))

    @classmethod
    def deterministic(cls, inputs, output, fn) -> "Channel":
        """Channel putting all mass on ``fn(input tuple) -> output index``."""
        inputs = _as_variables(inputs)
        sizes = [s for _, s in inputs]
        n_rows = int(np.prod(sizes, dtype=np.int64)) if sizes else 1
        rows = np.zeros((n_rows, int(output[1])))
        for flat in range(n_rows):
            tup = np.unravel_index(flat, sizes) if sizes else ()
            rows[flat, int(fn(*map(int, tup)))] = 1.0
        return cls(inputs, output, rows)


def _times_kernel(table: np.ndarray, in_axes: Sequence[int], rows: np.ndarray) -> np.ndarray:
    """``table`` times the conditional pmf ``rows``, with its output axis appended.

    ``rows`` holds p(out | inputs), one row per input tuple, row-major in the
    order of ``in_axes``: the table axes the inputs sit on, in any order.
    Each cell of the result is the single product table[cell] * rows[row of
    the cell's inputs, out].  This is the one place a kernel is multiplied
    into a dense table.
    """
    n_in = len(in_axes)
    shape = [1] * table.ndim
    for a in in_axes:
        shape[a] = table.shape[a]
    rows = rows.reshape([shape[a] for a in in_axes] + [-1])
    order = sorted(range(n_in), key=in_axes.__getitem__) + [n_in]
    return table[..., None] * rows.transpose(order).reshape(shape + [-1])


# ---------------------------------------------------------------------------
# Information measures (all in nats)
# ---------------------------------------------------------------------------


def _sum_plogp(masses: np.ndarray) -> float:
    """-sum m log m over the positive entries of ``masses``: the entropy kernel."""
    m = masses.reshape(-1)
    m = m[m > 0.0]
    terms = np.log(m)
    terms *= m
    return float(-terms.sum())


def _sum_axes(table: np.ndarray, axes: Iterable[int]) -> np.ndarray:
    """Sum out ``axes`` of ``table``; size-1 axes are dropped by a reshape,
    which copies nothing."""
    axes = tuple(axes)
    shape = table.shape
    summed = tuple(i for i in axes if shape[i] > 1)
    if summed:
        table = table.sum(axis=summed)
    if len(summed) < len(axes):
        table = table.reshape([size for i, size in enumerate(shape) if i not in axes])
    return table


def _sum_out(
    names: tuple[Name, ...], table: np.ndarray, keep
) -> tuple[tuple[Name, ...], np.ndarray]:
    """Sum out the axes of ``table`` not named in ``keep``."""
    summed = (i for i, n in enumerate(names) if n not in keep)
    return tuple(n for n in names if n in keep), _sum_axes(table, summed)


def _lattice_entropies(table: np.ndarray) -> np.ndarray:
    """H of every marginal of ``table``, indexed by the bitmask of the axes it
    keeps (bit i for axis i); entry 0, the empty marginal, is 0.

    One depth-first walk of the subset lattice: a node sums one axis out of
    its parent's table, and axes are dropped in increasing index order, so
    each marginal is summed exactly once and at most ndim + 1 tables are
    live at a time.
    """
    n = table.ndim
    out = np.zeros(1 << n)

    def walk(t: np.ndarray, mask: int, first: int) -> None:
        out[mask] = _sum_plogp(t)
        for a in range(first, n):
            child = mask & ~(1 << a)
            if child:
                # ``t`` has the axes of ``mask`` in order; a follows those below it.
                pos = (mask & ((1 << a) - 1)).bit_count()
                walk(_sum_axes(t, (pos,)), child, a + 1)

    if n:
        walk(table, (1 << n) - 1, 0)
    return out


class EntropyOracle:
    """Memoized entropies H(S) of the marginals of one joint.

    The joint is summed once down to the variables in ``keep``.  After that
    each new marginal is a plain ndarray summed from the smallest cached
    table that contains it; it is not validated again, since the joint was
    at construction.  H(S) is cached by ``frozenset(S)``.  An oracle holds
    every table it has summed, so it is made for one bound, region or report
    and dropped when that returns.
    """

    def __init__(self, joint: JointPmf, keep: Iterable[Name]):
        names, table = joint._summed(keep)
        # Every table keeps the axes of ``names`` that it has, in this order.
        self._order = names
        self._names = frozenset(names)
        self._sizes = dict(zip(names, table.shape))
        self._tables = {self._names: table}
        self._by_size = [(table.size, self._names)]  # ascending cells
        self._h: dict[frozenset, float] = {}

    def _superset(self, s: frozenset) -> frozenset:
        """The smallest cached variable set that contains ``s``."""
        # A proper superset of S has at least cells(S) times the least
        # alphabet size outside S cells, so a cached S + {v} with v of that
        # size is a smallest one; only when there is none, scan by size.
        # Candidates go in the joint's variable order, not frozenset (string
        # hash) order, so the table chosen, and every last bit, is the same
        # in every process.
        outside = [v for v in self._order if v not in s]
        least = min(self._sizes[v] for v in outside)
        for v in outside:
            if self._sizes[v] == least and (s | {v}) in self._tables:
                return s | {v}
        for _, have in self._by_size:
            if s <= have:
                return have

    def _table(self, s: frozenset) -> np.ndarray:
        table = self._tables.get(s)
        if table is None:
            have = self._superset(s)
            names = tuple(n for n in self._order if n in have)
            table = self._tables[s] = _sum_out(names, self._tables[have], s)[1]
            bisect.insort(self._by_size, (table.size, s), key=lambda t: t[0])
        return table

    def h(self, names: Iterable[Name]) -> float:
        """H(S) in nats; 0 for the empty set."""
        s = frozenset(names)
        value = self._h.get(s)
        if value is None:
            if not s <= self._names:
                raise VariableError(
                    f"unknown variables {sorted(s - self._names)}; have {sorted(self._names)}"
                )
            value = _sum_plogp(self._table(s)) if s else 0.0
            self._h[s] = value
        return value

    def cmi(self, a: Iterable[Name], b: Iterable[Name], c: Iterable[Name] = ()) -> float:
        """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), in nats.

        A, B, C must be pairwise disjoint and A, B nonempty.
        """
        a, b, c = frozenset(a), frozenset(b), frozenset(c)
        if not a or not b:
            raise VariableError("A and B must be nonempty")
        for left, right, x, y in (("A", "B", a, b), ("A", "C", a, c), ("B", "C", b, c)):
            overlap = x & y
            if overlap:
                raise VariableError(f"{left} and {right} overlap: {sorted(overlap)}")
        # H(A,B,C) first, so that the smaller marginals are summed from it.
        h_abc = self.h(a | b | c)
        return self.h(a | c) + self.h(b | c) - h_abc - self.h(c)


def entropy(joint: JointPmf, variables: Iterable[Name], given: Iterable[Name] = ()) -> float:
    """H(variables | given) in nats, by exact summation.

    ``given`` may be empty (plain entropy).  This is the degenerate
    I(A;A|C) case of conditional mutual information.
    """
    variables = tuple(variables)
    given = tuple(given)
    if not variables:
        raise VariableError("variables must be nonempty")
    overlap = set(variables) & set(given)
    if overlap:
        raise VariableError(f"variables and given overlap: {sorted(overlap)}")
    oracle = EntropyOracle(joint, variables + given)
    return oracle.h(variables + given) - oracle.h(given)


def conditional_mutual_information(
    joint: JointPmf,
    a: Iterable[Name],
    b: Iterable[Name],
    c: Iterable[Name] = (),
) -> float:
    """I(A;B|C) in nats; C may be empty (plain mutual information).

    A, B, C must be pairwise disjoint and A, B nonempty.  Computed as
    H(A,C) + H(B,C) - H(A,B,C) - H(C); terms with zero mass drop out of the
    sums, which realizes the 0 log 0 conventions exactly.  Values are
    mathematically >= 0; floating point can leave a residue of order -1e-15.
    """
    a, b, c = tuple(a), tuple(b), tuple(c)
    return EntropyOracle(joint, a + b + c).cmi(a, b, c)


def mutual_information(joint: JointPmf, a: Iterable[Name], b: Iterable[Name]) -> float:
    """I(A;B) in nats; shorthand for an empty conditioning set."""
    return conditional_mutual_information(joint, a, b, ())


def binary_entropy(x: float) -> float:
    """h(x) = -x ln x - (1-x) ln(1-x) with h(0) = h(1) = 0, in nats."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy requires 0 <= x <= 1, got {x!r}")
    return float(_binary_entropies(x))


def _binary_entropies(x) -> np.ndarray:
    """h elementwise, 0 outside (0, 1): the one binary-entropy kernel."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -xi * np.log(xi) - (1.0 - xi) * np.log(1.0 - xi)
    return out
