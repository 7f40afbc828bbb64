"""Exact probability algebra and information measures on finite alphabets.

Everything here works with dense joint probability mass functions over named
finite variables and with conditional pmfs (stochastic kernels); the private
``_Support`` holds a joint's nonzero cells instead, for the evaluators.  All
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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import AlphabetMismatchError, InvalidDistributionError, VariableError

# Normalization tolerance on input.  A violation is an error; silent
# renormalization is never performed.
NORMALIZATION_TOL = 1e-9

Name = str
Variable = tuple[Name, int]


def _whole(value, field: str, error: type[ValueError] = ValueError) -> int:
    """``int(value)``, refusing a number it would truncate, an infinity, a NaN
    or text ``int`` cannot read with an ``error`` that names ``field``."""
    try:
        n = int(value)
    except (OverflowError, ValueError):
        n = None
    if n is None or n != value and not isinstance(value, str):
        raise error(f"{field} must be an integer, got {value!r}")
    return n


def _as_variables(variables: Iterable[Variable]) -> tuple[Variable, ...]:
    out = []
    for name, size in variables:
        name = str(name)
        size = _whole(size, f"alphabet size of {name!r}")
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
        self._init(self.variables, self.probs, copy=True)

    @classmethod
    def _owning(cls, variables, probs: np.ndarray) -> "JointPmf":
        """A validated pmf that adopts ``probs`` uncopied: an array nothing
        else holds, or a view of one that is already read-only."""
        pmf = object.__new__(cls)
        pmf._init(variables, probs, copy=False)
        return pmf

    def _init(self, variables, probs, copy: bool) -> None:
        object.__setattr__(self, "variables", _as_variables(variables))
        probs = np.asarray(probs, dtype=float).reshape(-1)
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
        if copy:
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
        # ``table`` is a fresh sum or a view of the read-only ``self.table``.
        return JointPmf._owning(variables, table)

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
        return JointPmf._owning(self.variables + (channel.output,), new_table)

    def product(self, other: "JointPmf") -> "JointPmf":
        """Independent product of two joints over disjoint variable sets."""
        overlap = set(self.names) & set(other.names)
        if overlap:
            raise VariableError(f"variables {sorted(overlap)} present on both sides")
        table = np.multiply.outer(self.table, other.table)
        return JointPmf._owning(self.variables + other.variables, table)

    def reordered(self, order: Sequence[Name]) -> "JointPmf":
        """Same distribution with variables permuted into ``order``."""
        if sorted(order) != sorted(self.names):
            raise VariableError(f"order {order} is not a permutation of {self.names}")
        axes = self._axes_of(order)
        table = np.transpose(self.table, axes)  # flattening copies unless axes is the identity
        variables = tuple(self.variables[a] for a in axes)
        return JointPmf._owning(variables, table)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "variables": [{"name": n, "size": s} for n, s in self.variables],
            "probs": [float(x) for x in self.probs],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "JointPmf":
        variables = [(v["name"], v["size"]) for v in payload["variables"]]
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
        self._init(self.inputs, self.output, self.rows, copy=True)

    @classmethod
    def _owning(cls, inputs, output, rows: np.ndarray) -> "Channel":
        """A validated channel that adopts ``rows`` uncopied: an array
        nothing else holds."""
        channel = object.__new__(cls)
        channel._init(inputs, output, rows, copy=False)
        return channel

    def _init(self, inputs, output, rows, copy: bool) -> None:
        inputs = _as_variables(inputs)
        out_name, out_size = output
        out = (str(out_name), _whole(out_size, f"alphabet size of {out_name!r}"))
        if out[1] < 1:
            raise VariableError(f"output {out[0]!r} has nonpositive alphabet size {out[1]}")
        if out[0] in [n for n, _ in inputs]:
            raise VariableError(f"output name {out[0]!r} collides with an input name")
        n_rows = int(np.prod([s for _, s in inputs], dtype=np.int64)) if inputs else 1
        rows = np.asarray(rows, dtype=float).reshape(n_rows, out[1])
        if not np.all(np.isfinite(rows)):
            raise InvalidDistributionError("channel rows contain non-finite entries")
        if np.any(rows < 0.0):
            raise InvalidDistributionError(
                f"channel rows contain negative entries (min {rows.min():.3e})"
            )
        sums = rows.sum(axis=1)
        gaps = sums - 1.0
        bad = np.abs(gaps, out=gaps) > NORMALIZATION_TOL  # one row-sized temporary
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InvalidDistributionError(
                f"channel row {i} sums to {sums[i]!r}, violating |sum-1| <= {NORMALIZATION_TOL}"
            )
        if copy:
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
        inputs = tuple((v["name"], v["size"]) for v in payload["inputs"])
        output = (payload["output"]["name"], payload["output"]["size"])
        return cls(inputs, output, np.asarray(payload["rows"], dtype=float))

    @classmethod
    def deterministic(cls, inputs, output, fn) -> "Channel":
        """Channel putting all mass on ``fn(input tuple) -> output index``,
        with ``fn`` called on Python ints, one input tuple at a time;
        refused over the table cap before its rows are made."""

        def index(*grid):
            sizes = [g.size for g in grid]
            return np.reshape([int(fn(*t)) for t in itertools.product(*map(range, sizes))], sizes)

        return cls._indexed(inputs, output, index)

    @classmethod
    def _indexed(cls, inputs, output, index) -> "Channel":
        """Channel putting all mass on the output index ``index(*grid)``, where
        ``grid`` is ``np.indices(sizes, sparse=True)``: one int array per input
        along its own axis, so an array expression over it broadcasts to one
        index per row.  Refused over the table cap, from the sizes alone,
        before the grid is made; an index outside the output alphabet is
        refused.  The one writer of one-hot rows."""
        inputs = _as_variables(inputs)
        sizes = tuple(s for _, s in inputs)
        n_rows, n_out = math.prod(sizes), int(output[1])
        _refuse_over_cap(n_rows * n_out, f"deterministic kernel onto {output[0]!r}")
        z = np.broadcast_to(index(*np.indices(sizes, sparse=True)), sizes).reshape(-1)
        lo, hi = int(z.min()), int(z.max())
        if lo < 0 or hi >= n_out:
            raise InvalidDistributionError(
                f"deterministic kernel onto {output[0]!r} maps to indices in "
                f"[{lo}, {hi}], outside [0, {n_out})"
            )
        rows = np.zeros((n_rows, n_out))
        rows[np.arange(n_rows), z] = 1.0
        del z  # only the rows outlive the checks
        return cls._owning(inputs, output, rows)


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
    return float(-np.add.reduce(terms))


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


# A lattice node whose table has at most _BLOCK_TABLE cells, and whose
# extension by its free axes at most _BLOCK_CELLS, is one block.  Below the
# first limit numpy's per-call cost outweighs the summing; the second bounds
# the block's memory.
_BLOCK_TABLE = 1 << 11
_BLOCK_CELLS = 1 << 16


def _lattice_entropies(table: np.ndarray) -> np.ndarray:
    """H of every marginal of ``table``, indexed by the bitmask of the axes it
    keeps (bit i for axis i); entry 0, the empty marginal, is 0.

    Size-1 axes are squeezed out first, since a marginal has the entropy of
    its restriction to the other axes.  The rest is a depth-first walk of
    the subset lattice: a node sums one axis out of its parent's table, and
    axes are dropped in increasing index order, so each marginal is summed
    exactly once and at most ndim + 1 tables are live at a time.  A node
    whose table has at most ``_BLOCK_TABLE`` cells takes its whole
    sub-lattice in one block (``_block_sums``) instead, as long as the
    block's extended table has at most ``_BLOCK_CELLS`` cells.
    """
    n = table.ndim
    wide = [a for a in range(n) if table.shape[a] > 1]
    table = table.reshape([table.shape[a] for a in wide])
    m = len(wide)
    out = np.zeros(1 << m)

    def walk(t: np.ndarray, mask: int, first: int) -> None:
        free = m - first  # t's last ``free`` axes, the ones it may still drop
        # With one free axis a block makes more numpy calls than the walk.
        if free > 1 and t.size <= _BLOCK_TABLE:
            tail = t.shape[t.ndim - free :]
            if t.size // math.prod(tail) * math.prod(k + 1 for k in tail) <= _BLOCK_CELLS:
                # Axes first..m-1 are all in ``mask``, so each drop clears its bit.
                out[mask - (np.arange(1 << free) << first)] = -_block_sums(t, free)
                return
        out[mask] = _sum_plogp(t)
        for a in range(first, m):
            child = mask & ~(1 << a)
            if child:
                # ``t`` has the axes of ``mask`` in order; a follows those below it.
                pos = (mask & ((1 << a) - 1)).bit_count()
                walk(_sum_axes(t, (pos,)), child, a + 1)

    if m:
        walk(table, (1 << m) - 1, 0)
    out[0] = 0.0  # a root block also summed the empty marginal
    if m == n:
        return out
    # Bit j of the squeezed index is bit wide[j] of the mask.
    masks = np.arange(1 << n)
    index = np.zeros_like(masks)
    for j, a in enumerate(wide):
        index |= ((masks >> a) & 1) << j
    return out[index]


def _block_sums(table: np.ndarray, free: int) -> np.ndarray:
    """sum m log m over each marginal of ``table`` that keeps its leading
    axes and any subset of its last ``free`` (at least 1) axes, indexed by
    the bitmask of the free axes it drops (bit j for the j-th free axis).

    The "data cube" (Gray et al., 1997; Yates's factorial margins): each
    free axis grows one slot that holds its sum, so one extended table holds
    every such marginal.  m log m is taken once over it, and each free axis
    then collapses to two slots: the sum of its first k slots (kept) and the
    sum slot (dropped).  Every step views the table as (k, rest), with the
    axis it works on in front, and writes it as (rest, k'), so the next axis
    comes to the front and each sum runs over contiguous rows.
    """
    sizes = table.shape[table.ndim - free :]
    cells = math.prod(sizes)
    cube = table.reshape(-1, cells).T  # free axes in front, the leading ones last
    for k in sizes:
        rows = cube.reshape(k, -1)
        cube = np.empty((rows.shape[1], k + 1))
        cube[:, :k] = rows.T
        np.add.reduce(rows, axis=0, out=cube[:, k])
    del rows  # here and below: at most two extended-size tables live at once
    # The leading axes are in front again: take m log m, then sum them out.
    logs = np.maximum(cube, np.finfo(float).tiny)
    np.log(logs, out=logs)  # finite, so a zero mass's term is 0
    cube *= logs
    del logs
    cube = np.add.reduce(cube.reshape(table.size // cells, -1), axis=0)
    for k in sizes:
        rows = cube.reshape(k + 1, -1)
        cube = np.empty((rows.shape[1], 2))
        np.add.reduce(rows[:k], axis=0, out=cube[:, 0])
        cube[:, 1] = rows[k]
    # The first free axis is in front, on the highest bit; reverse the axes.
    return cube.reshape((2,) * free).transpose().reshape(-1)


class _Support:
    """The cells of a joint that no factor zeroes, in row-major order.

    ``codes`` is a tuple of one C-contiguous array per variable, holding
    every cell's symbol in the smallest unsigned type that fits its
    alphabet, and ``masses`` the cells' probabilities.  Built from a dense
    pmf and extended by kernels, it holds the nonzero cells of the dense
    joint the same extensions build, with bit for bit its masses, in the
    same order.
    """

    def __init__(self, variables: tuple[Variable, ...], codes: tuple, masses: np.ndarray):
        self.variables = variables
        self.codes = codes
        self.masses = masses
        self.names = tuple(n for n, _ in variables)
        self._row = {n: i for i, n in enumerate(self.names)}

    @classmethod
    def of(cls, joint: JointPmf) -> "_Support":
        cells = np.flatnonzero(joint.probs)
        symbols = np.unravel_index(cells, joint.shape)
        codes = tuple(c.astype(_code_dtype((k,))) for c, k in zip(symbols, joint.shape))
        return cls(joint.variables, codes, joint.probs[cells])

    @property
    def rows(self) -> int:
        return self.masses.size

    def extend(self, channel: "Channel") -> "_Support":
        """Attach ``channel``'s output, as ``JointPmf.extend``: each cell
        splits into one cell per positive entry of its kernel row, with mass
        the single product cell mass * entry.  Its codes are kept, or
        gathered by cell where a row has more than one positive entry."""
        key, _ = self.keys(name for name, _ in channel.inputs)
        entries = channel.rows[key]  # each cell's kernel row
        parent, outs = np.nonzero(entries)  # row-major: by cell, then output
        codes = self.codes
        if parent.size != self.rows:  # else one positive entry per row: ``parent`` is every row
            codes = tuple(c[parent] for c in codes)
        codes += (outs.astype(_code_dtype((channel.output[1],))),)
        masses = self.masses[parent] * entries[parent, outs]
        return _Support(self.variables + (channel.output,), codes, masses)

    def keys(self, names: Iterable[Name]) -> tuple[np.ndarray, int]:
        """Every cell's rank among the tuples of ``names``, row-major in that
        order, and the number of ranks: the mixed-radix index, or, where that
        could overflow, the rank among the tuples that occur."""
        index = []
        for name in names:
            if name not in self._row:
                raise VariableError(f"unknown variable {name!r}; have {self.names}")
            index.append(self._row[name])
        sizes = [self.variables[i][1] for i in index]
        span = math.prod(sizes)
        if span > _MAX_KEY:
            tuples = np.stack([self.codes[i] for i in index])
            occurring, key = np.unique(tuples, axis=1, return_inverse=True)
            return key.reshape(-1), occurring.shape[1]
        # np.ravel_multi_index's integer by Horner's rule, one code array at
        # a time.  An axis of one symbol has code 0 and is skipped, and each
        # partial key is held in the narrowest type that holds its span (and
        # so the size it is multiplied by), so there is less to read and write.
        key, partial = np.zeros(self.rows, np.uint8), 1
        for i, size in zip(index, sizes):
            if size > 1:
                partial *= size
                key = key.astype(np.min_scalar_type(partial), copy=False)
                key *= size
                key += self.codes[i]
        return key.astype(np.intp), span


def _group_sum(key: np.ndarray, masses: np.ndarray, span: Optional[int] = None) -> np.ndarray:
    """``masses`` summed by ``key``, the one place a support's masses are
    added.  With ``span``, the dense table over ``range(span)``: a
    ``bincount`` in row order, or, when the cells average at least
    ``_SUM_BLOCK`` rows, one count per block of that many rows with the
    blocks then added pairwise, so that no running sum is long (``key`` is
    overwritten then).  Without, the sums of the keys that occur, in key
    order, by one ``np.add.reduceat`` over the runs of a stable sort, fast
    on a row-major support's nearly sorted keys; it adds each run pairwise."""
    if span is not None:
        if key.size < _SUM_BLOCK * span:
            return np.bincount(key, weights=masses, minlength=span)
        blocks = -(-key.size // _SUM_BLOCK)
        key *= blocks  # the key of (cell, block), block last
        whole = key[: (blocks - 1) * _SUM_BLOCK].reshape(blocks - 1, _SUM_BLOCK)
        whole += np.arange(blocks - 1)[:, None]
        key[whole.size :] += blocks - 1
        table = np.bincount(key, weights=masses, minlength=span * blocks)
        return np.add.reduce(table.reshape(span, blocks), axis=1)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    del ordered
    return np.add.reduceat(masses[order], starts)


def _code_dtype(sizes: Iterable[int]) -> np.dtype:
    return np.min_scalar_type(max(sizes, default=1) - 1)


_MAX_KEY = 1 << 62
_MAX_TABLE_CELLS = 1 << 25  # the most cells of any table built for a system


def _refuse_over_cap(cells: int, what: str) -> None:
    """Raise ``ValueError`` when ``what`` would have over ``_MAX_TABLE_CELLS`` cells."""
    if cells > _MAX_TABLE_CELLS:
        cap = _MAX_TABLE_CELLS
        raise ValueError(f"the {what} would have {cells:,} cells, over the cap of {cap:,}")


# From a support root, a marginal with at most this many cells per support
# row, or at most _SMALL_TABLE cells, is summed into a dense table and kept;
# a larger one is grouped by sorting its keys, and only its occurring masses
# are used.  Tables up to _SMALL_TABLE cells are cheap whatever the support's
# size: summing one costs less than setting up a sort or a group-by.
_DENSE_CELLS_PER_ROW = 4
_SMALL_TABLE = 1 << 12
# A running sum over n masses can be off by about n units in the last place;
# a dense count adds at most this many rows in a row before pairing blocks.
_SUM_BLOCK = 1 << 12


class EntropyOracle:
    """Memoized entropies H(S) of the marginals of one joint.

    The root is a dense ``JointPmf``, cached as its table, or a
    ``_Support``.  From a support root a marginal is one group-by of the
    cells on their key over S (``_group_sum``): into a dense table, refused
    over ``_MAX_TABLE_CELLS`` cells, or, for an entropy whose table would be
    large, into the masses of the tuples that occur
    (``_DENSE_CELLS_PER_ROW``, ``_SMALL_TABLE``).  A marginal is summed
    instead from the smallest cached table that contains it, whenever that
    table is cheaper to sum than a group-by.  Tables are not validated
    again, since the joint was at construction.  H(S) is cached by
    ``frozenset(S)``.  An oracle holds every table it has summed, except,
    from a support root, a CMI's table over A, B, C of over ``_SMALL_TABLE``
    cells, so it is made for one bound, region or report and dropped when
    that returns.
    """

    def __init__(self, root: JointPmf | _Support):
        self._tables: dict[frozenset, np.ndarray] = {}
        if isinstance(root, _Support):
            self._support = root
        else:
            self._support = None
            self._tables[frozenset(root.names)] = root.table
        # Every table keeps the axes of ``_order`` that it has, in this order.
        self._order = root.names
        self._names = frozenset(self._order)
        self._sizes = dict(root.variables)
        self._h: dict[frozenset, float] = {}
        self._key: Optional[tuple[tuple[Name, ...], np.ndarray]] = None

    def _superset(self, s: frozenset) -> Optional[frozenset]:
        """The smallest cached variable set that contains ``s``, if any; of equal
        sizes the first cached wins, so every last bit is the same in every process."""
        have = [t for t in self._tables if s <= t]
        return min(have, key=lambda t: self._tables[t].size, default=None)

    def _masses(self, s: frozenset) -> np.ndarray:
        """The marginal on ``s``: a cached table with the axes of ``s`` in
        ``_order``, or, from a support root when that table would be large,
        the masses of the tuples that occur."""
        table = self._tables.get(s)
        if table is not None:
            return table
        have = self._superset(s)
        support = self._support
        # Summing a cached table that has no more cells than the support has
        # rows, or that is small anyway, is cheaper than a group-by.
        if have is not None and (
            support is None or self._tables[have].size <= max(support.rows, _SMALL_TABLE)
        ):
            names = tuple(n for n in self._order if n in have)
            return self._tables.setdefault(s, _sum_out(names, self._tables[have], s)[1])
        names = tuple(n for n in self._order if n in s)
        shape = [self._sizes[n] for n in names]
        if math.prod(shape) > self._dense_limit():
            return _group_sum(self._large_key(names), support.masses)
        return self._tables.setdefault(s, self._counted(names).reshape(shape))

    def _large_key(self, names: tuple[Name, ...]) -> np.ndarray:
        """Every support cell's key over ``names``, in ``_order``, for a large
        marginal.  The last such key computed from the codes is kept: the
        encoder checks group one tuple, then that tuple with each U_l left
        out, and the key that leaves out a variable of ``size`` symbols
        followed by axes of ``stride`` tuples is read from the kept one as
        (key // (stride * size)) * stride + key % stride."""
        if self._key is not None:
            kept, key = self._key
            if len(kept) == len(names) + 1 and set(names) < set(kept):
                i = kept.index((set(kept) - set(names)).pop())
                stride = math.prod(self._sizes[n] for n in kept[i + 1 :])
                return key // (stride * self._sizes[kept[i]]) * stride + key % stride
        key, span = self._support.keys(names)
        # A key over _MAX_KEY is a rank among the occurring tuples, not mixed-radix.
        self._key = (names, key) if span <= _MAX_KEY else None
        return key

    def _dense_limit(self) -> int:
        """The most cells a support root sums into a dense table for an entropy."""
        return min(max(_DENSE_CELLS_PER_ROW * self._support.rows, _SMALL_TABLE), _MAX_TABLE_CELLS)

    def _counted(self, names: Sequence[Name]) -> np.ndarray:
        """The flat table over ``names``, row-major, counted from the support's
        cells; refused over the table cap."""
        _refuse_over_cap(math.prod(self._sizes[n] for n in names), "table over " + ", ".join(names))
        key, span = self._support.keys(names)
        return _group_sum(key, self._support.masses, span)

    def grouped(self, groups: Sequence[Sequence[Name]]) -> np.ndarray:
        """The marginal on the variables of ``groups``, as a C-contiguous
        table with one axis per group; a group of several variables is one
        axis over all their tuples, row-major.  From a support root, a table
        larger than its dense tables is counted from the cells, not cached."""
        names = [n for g in groups for n in g]
        sizes = [math.prod(self._sizes[n] for n in g) for g in groups]
        if self._support is None or math.prod(sizes) <= self._dense_limit():
            have = [n for n in self._order if n in names]
            table = self._masses(frozenset(names)).transpose([have.index(n) for n in names])
            return np.ascontiguousarray(table).reshape(sizes)
        return self._counted(names).reshape(sizes)

    def h(self, names: Iterable[Name]) -> float:
        """H(S) in nats; 0 for the empty set."""
        s = frozenset(names)
        value = self._h.get(s)
        if value is None:
            if not s <= self._names:
                raise VariableError(
                    f"unknown variables {sorted(s - self._names)}; have {sorted(self._names)}"
                )
            value = _sum_plogp(self._masses(s)) if s else 0.0
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
        abc = a | b | c
        h_abc = self.h(abc)
        value = self.h(a | c) + self.h(b | c) - h_abc - self.h(c)
        # From a support root a large table over A, B, C is dropped once used; CMIs seldom share it.
        if self._support is not None and math.prod(self._sizes[n] for n in abc) > _SMALL_TABLE:
            self._tables.pop(abc, None)
        return value


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
    oracle = EntropyOracle(joint)
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
    return EntropyOracle(joint).cmi(a, b, c)


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
