"""Rate-region constraint evaluators and a desk-scale test-channel optimizer.

Subsets A of encoders {1..L} are encoded as bitmasks (bit l-1 set means
encoder l is in A), so a constraint set holds 2^L - 1 subset rate lower
bounds plus the K expected distortions.  The representation caps L at 16
and the 2^25-cell table cap a dense model at about 6; a sparse one is
evaluated on its support, every evaluator on the erasure casebook up to
L = 14, the largest the casebook's table cap admits.
"""

from __future__ import annotations

import io
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InfeasibleError, SupermodularityError
from .model import (
    AuxSystem,
    SourceModel,
    XChannel,
    _class_residuals,
    _distortions,
    _support_is_smaller,
    _system_oracle,
    check_chi,
    encoder_names,
    source_names,
)
from .prob import Channel, JointPmf, _lattice_entropies, _refuse_over_cap, _sum_plogp, _whole

FEASIBILITY_SLACK = 1e-9  # "meets the cap" means distortion <= cap + this
SUPERMODULAR_SLACK = 1e-9  # a pair may fall short of supermodular by this


def _mask_of(members: Iterable[int], L: int) -> int:
    mask = 0
    for member in members:
        l = _whole(member, "subset member")
        if not 1 <= l <= L:
            raise ValueError(f"subset member {l} out of range 1..{L} for L={L}")
        mask |= 1 << (l - 1)
    return mask


def subset_label(mask: int, L: int) -> str:
    """Normative textual form of a subset bitmask, e.g. 0b011 for {1, 2}."""
    return format(mask, f"#0{L + 2}b")


@dataclass(frozen=True)
class RegionConstraints:
    """The 2^L - 1 subset rate lower bounds (nats) plus K distortions."""

    L: int
    K: int
    subset_bounds: dict[int, float]
    distortions: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "L", _whole(self.L, "L"))
        object.__setattr__(self, "K", _whole(self.K, "K"))
        bounds = self.subset_bounds
        if bounds.keys() != set(range(1, 1 << self.L)):
            raise ValueError(
                f"subset_bounds must cover every nonempty subset mask of L={self.L}"
            )
        # One array of the values, read in one pass.  Text, None and other
        # objects make a dtype that is not a real number's, and are refused.
        values = np.array(list(bounds.values()))
        if values.dtype.kind not in "biuf":
            for mask, v in bounds.items():
                if np.asarray(v).dtype.kind not in "biuf":
                    raise TypeError(f"bound for mask {mask:#b} is {v!r}; must be a real number")
        values = values.astype(float, copy=False)
        bad = ~np.isfinite(values) | (values < -1e-9)
        if bad.any():
            mask = list(bounds)[int(np.argmax(bad))]
            raise ValueError(f"bound for mask {mask:#b} is {bounds[mask]!r}; must be finite, >= 0")
        # max(0.0, v) for each v: -0.0 and a small negative value become +0.0.
        values = np.where(values > 0.0, values, 0.0)
        object.__setattr__(self, "subset_bounds", dict(zip(bounds, values.tolist())))
        object.__setattr__(self, "distortions", tuple(float(d) for d in self.distortions))
        if len(self.distortions) != self.K:
            raise ValueError(f"need K={self.K} distortions, got {len(self.distortions)}")

    def bound(self, subset) -> float:
        """Bound for a subset given as an integral bitmask or an iterable of encoder indices."""
        mask = int(subset) if isinstance(subset, numbers.Integral) else _mask_of(subset, self.L)
        if not 1 <= mask < (1 << self.L):
            raise ValueError(f"subset mask {mask} out of range for L={self.L}")
        return self.subset_bounds[mask]

    @property
    def full_set(self) -> float:
        return self.subset_bounds[(1 << self.L) - 1]

    def to_json(self) -> dict:
        return {
            "L": self.L,
            "K": self.K,
            "bounds": [
                {"A": subset_label(mask, self.L), "bound_nats": self.subset_bounds[mask]}
                for mask in sorted(self.subset_bounds)
            ],
            "distortions": list(self.distortions),
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("subset,bound\n")
        for mask in sorted(self.subset_bounds):
            out.write(f"{subset_label(mask, self.L)},{self.subset_bounds[mask]!r}\n")
        return out.getvalue()


@dataclass(frozen=True)
class RatePoint:
    """A rate vector (nats per source symbol) with its distortion vector."""

    rates: tuple[float, ...]
    distortions: tuple[float, ...]

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        if any(not np.isfinite(r) or r < -1e-9 for r in rates):
            raise ValueError(f"rates must be finite and >= 0, got {rates}")
        object.__setattr__(self, "rates", tuple(max(0.0, r) for r in rates))
        object.__setattr__(self, "distortions", tuple(float(d) for d in self.distortions))

    @property
    def sum_rate(self) -> float:
        return float(sum(self.rates))


# ---------------------------------------------------------------------------
# Constraint evaluators
# ---------------------------------------------------------------------------


def bt_inner_constraints(model: SourceModel, gamma: AuxSystem) -> RegionConstraints:
    """Berger-Tung inner-bound constraints of a system in the inner class.

    bound(A) = I(Y_A; U_A | U_{A^c}, side info, T).  The system must pass the
    inner-class Markov check (W trivial or folded into T).  It is computed as
    I(Y; U_A | U_{A^c}, side, T), which exceeds it by at most the check's
    summed encoder residuals: by 0 when the encoder chains hold exactly.
    """
    return _evaluate(model, gamma, None, "bt_inner", "gamma (Berger-Tung inner class)")


def bt_outer_constraints(model: SourceModel, gamma: AuxSystem) -> RegionConstraints:
    """Berger-Tung outer-bound constraints: bound(A) = I(Y; U_A | U_{A^c}, side, T)
    with the full observation vector Y on the left."""
    return _evaluate(model, gamma, None, "bt_outer", "gamma (Berger-Tung outer class)")


def new_outer_constraints(model: SourceModel, x: XChannel, gamma: AuxSystem) -> RegionConstraints:
    """Constraints of the improved outer bound for a coupled variable X.

    bound(A) = I(X; U_A | U_{A^c}, side, T)
             + sum_{l in A} I(Y_l; U_l | X, side, W, T),
    evaluated under the coupling in which X interacts with the auxiliary
    system only through the sources.  X must pass ``check_chi``.
    """
    return _evaluate(model, gamma, x, "outer", "gamma (outer class)")


def _evaluate(model, gamma, x, cls, what) -> RegionConstraints:
    """The one evaluator body: with ``x``, ``check_chi`` first (its joint
    rooted by the same rule), then one oracle over the system's joint
    (``_system_oracle``, under the table cap), from which it requires
    class ``cls`` (named ``what``) and, with S = (side, T), assembles

        bound(A) = H(U_A | U_{A^c}, S) - H(U_A | V, U_{A^c}, S) + sum_{l in A} own_l.

    With ``x``, V = X and own_l = I(Y_l; U_l | X, side, W, T).  Without, V = Y,
    all observations, and own_l = 0, unless W is trivial: then the kernels
    draw the U_l independently given (Y, S), so H(U_A | Y, U_{A^c}, S) is
    sum_{l in A} H(U_l | Y_l, T), and there is no V axis and own_l is
    -H(U_l | Y_l, T).  The entropies come from the subset lattice of one
    table with axes (U_1..U_L[, V], S), and the distortions from the
    (sources, Z) marginal.
    """
    L = model.L
    us, ys, s = encoder_names(L), source_names(L)[1 : L + 1], (f"Y{L + 1}", "T")
    if x is not None:
        check_chi(model, x).require("x (conditional-independence class)")
    oracle = _system_oracle(model, gamma, x)
    _class_residuals(oracle, L, cls).require(what)
    if x is not None:
        v, own = [("X",)], lambda y, u: oracle.cmi([y], [u], ("X", "W") + s)
    elif gamma.wt_pmf.size_of("W") == 1:
        # Both entropies are cached by the encoder Markov check.
        v, own = [], lambda y, u: oracle.h([y, "T"]) - oracle.h([y, u, "T"])
    else:
        v, own = [ys], None
    # C-contiguous, U axes first, V and S one axis each: a lattice over at
    # most L + 2 axes, of which a one-symbol S is squeezed out.
    h = _lattice_entropies(oracle.grouped([(u,) for u in us] + v + [s]))
    s_bit = 1 << (L + len(v))
    bounds = _conditional_entropies(h, L, s_bit)
    if v:
        bounds -= _conditional_entropies(h, L, (1 << L) | s_bit)
    if own:
        members = (np.arange(1, 1 << L)[:, None] >> np.arange(L)) & 1
        bounds += members @ np.array([own(y, u) for y, u in zip(ys, us)])
    distortions = _distortions(model, oracle.grouped([source_names(L) + ("Z",)]))
    return RegionConstraints(L, model.K, dict(enumerate(bounds.tolist(), start=1)), distortions)


def _conditional_entropies(h: np.ndarray, L: int, c: int) -> np.ndarray:
    """H(axes A | the rest of the first L axes, the axes in c) for every mask
    A = 1..2^L - 1, from the lattice entropies ``h`` of a table."""
    full = (1 << L) - 1
    return h[full | c] - h[(full ^ np.arange(1, 1 << L)) | c]


def slepian_wolf_bounds(model: SourceModel) -> RegionConstraints:
    """Lossless bounds H(Y_A | Y_{A^c}) for every nonempty A (no side information)."""
    L = model.L
    # Axis l-1 of the table is Y_l, so h[mask] = H(Y_mask) in the mask encoding.
    h = _lattice_entropies(model.joint._summed(f"Y{l}" for l in range(1, L + 1))[1])
    bounds = dict(enumerate(_conditional_entropies(h, L, 0).tolist(), start=1))
    return RegionConstraints(L, model.K, bounds, (0.0,) * model.K)


def berger_yeung_bounds(model: SourceModel, gamma: AuxSystem) -> tuple[float, float, float]:
    """The two-encoder bounds for the lossless-component structure Y1 = Y0.

    Returns (R1_min, R2_min, sum_min) =
    (H(Y1 | U2, T), I(Y2; U2 | Y1, T), H(Y1) + I(Y2; U2 | Y1, T)).
    """
    if model.L != 2:
        raise InfeasibleError(f"Berger-Yeung form requires L = 2, got L={model.L}")
    pair = model.joint.marginalize(("Y0", "Y1")).table
    if pair.shape[0] != pair.shape[1] or float(pair.sum() - np.trace(pair)) > 1e-12:
        raise InfeasibleError("Berger-Yeung form requires Y1 = Y0 almost surely")
    oracle = _system_oracle(model, gamma, None)
    _class_residuals(oracle, 2, "bt_inner").require("gamma (Berger-Tung inner class)")
    r1 = oracle.h(["Y1", "U2", "T"]) - oracle.h(["U2", "T"])
    i2 = oracle.cmi(["Y2"], ["U2"], ["Y1", "T"])
    h1 = oracle.h(["Y1"])
    return (r1, i2, h1 + i2)


# ---------------------------------------------------------------------------
# Contrapolymatroid vertices
# ---------------------------------------------------------------------------


def _locally_supermodular(F: np.ndarray, L: int) -> bool:
    """True when f(S+i+j) + f(S) >= f(S+i) + f(S+j) - tol for every S and
    i, j not in S, with a tol that certifies the pair condition of
    ``check_supermodular`` at its slack (``SUPERMODULAR_SLACK``).  ``F``
    holds f on all 2^L masks.

    A pair's defect f(A or B) + f(A and B) - f(A) - f(B) telescopes into
    |A - B| * |B - A| <= c = floor(L/2) * ceil(L/2) local defects, so local
    ones >= -slack / (2c) keep every pair's >= -slack / 2.  tol also gives up
    4 (c + 1) eps * max|f|, more than the float sums and comparisons here and
    in the pair loop can round away, so a certified region never fails the
    pair loop, whatever the scale of f.  Cost O(2^L L^2).
    """
    c = (L // 2) * ((L + 1) // 2)
    if c == 0:
        return True  # L <= 1: there is no pair to violate
    rounding = 4 * (c + 1) * np.finfo(float).eps * float(np.abs(F).max())
    tol = (SUPERMODULAR_SLACK / 2 - rounding) / c
    masks = np.arange(1 << L)
    for i in range(L):
        for j in range(i + 1, L):
            bi, bj = 1 << i, 1 << j
            S = masks[(masks & (bi | bj)) == 0]
            lhs = F[S | bi | bj] + F[S]
            rhs = F[S | bi] + F[S | bj]
            if np.any(lhs < rhs - tol):
                return False
    return True


def check_supermodular(constraints: RegionConstraints) -> None:
    """Raise SupermodularityError on the first pair violating
    f(A or B) + f(A and B) >= f(A) + f(B) - ``SUPERMODULAR_SLACK`` (with
    f(empty) = 0)."""
    L = constraints.L
    F = np.zeros(1 << L)
    F[list(constraints.subset_bounds)] = list(constraints.subset_bounds.values())
    if _locally_supermodular(F, L):
        return

    # Some local defect is too negative to certify; the pair loop decides,
    # and names the first violating pair in its order.  Each a checks every
    # b > a at once, with the same sums in the same order as one pair at a time.
    masks = np.arange(1 << L)
    for a in range(1, 1 << L):
        b = masks[a + 1 :]
        lhs = F[a | b] + F[a & b]
        rhs = F[a] + F[b]
        bad = np.flatnonzero(lhs < rhs - SUPERMODULAR_SLACK)
        if bad.size:
            i = bad[0]
            raise SupermodularityError(
                f"subset bounds are not supermodular: "
                f"f({subset_label(a, L)}) + f({subset_label(int(b[i]), L)}) = {rhs[i]:.12g} "
                f"exceeds f(union) + f(intersection) = {lhs[i]:.12g}",
                pair=(a, int(b[i])),
            )


def contrapolymatroid_vertex(
    constraints: RegionConstraints, order: Sequence[int]
) -> RatePoint:
    """Greedy vertex of the subset-bound region for an encoder permutation.

    With f the subset bound, the vertex assigns
    R_{pi(i)} = f({pi(1..i)}) - f({pi(1..i-1)}); the rates satisfy every
    subset constraint and their sum equals the full-set bound.
    """
    L = constraints.L
    order = tuple(_whole(l, "order") for l in order)
    if sorted(order) != list(range(1, L + 1)):
        raise ValueError(f"order must be a permutation of 1..{L}, got {order}")
    check_supermodular(constraints)
    rates = [0.0] * L
    prefix = 0
    prev = 0.0
    for l in order:
        prefix |= 1 << (l - 1)
        value = constraints.subset_bounds[prefix]
        rates[l - 1] = value - prev
        prev = value
    return RatePoint(tuple(rates), constraints.distortions)


# ---------------------------------------------------------------------------
# Berger-Tung inner-bound sum-rate optimizer
# ---------------------------------------------------------------------------


def inner_bound_cardinalities(model: SourceModel) -> tuple[int, ...]:
    """Description-alphabet sizes sufficient for the inner bound.

    |U_l| = |Y_l| + 2^L + K - 1 per encoder suffices to realize every point
    of the inner-bound region (with |T| = 2^L + K for time sharing), so
    these sizes are safe search-space limits for the optimizer.  Far smaller
    alphabets usually do the job in practice.
    """
    extra = (1 << model.L) + model.K - 1
    return tuple(model.observation_size(l) + extra for l in range(1, model.L + 1))


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of a sum-rate search; infeasible caps are reported, not fatal.

    ``evaluations`` counts the kernel sets evaluated, at most the budget, and
    ``restarts`` the restarts that ran: a restart begins only while budget
    remains.
    """

    feasible: bool
    sum_rate: float
    gamma: Optional[AuxSystem]
    constraints: Optional[RegionConstraints]
    distortions: tuple[float, ...]
    evaluations: int
    restarts: int
    message: str


_ONE_CELL_WT = JointPmf((("W", 1), ("T", 1)), np.array([1.0]))
_RESTARTS = 4  # restarts of one search, sharing its budget in order
_ROUNDS = 60  # slope updates per restart
_ITERS = 150  # mirror-descent steps of a restart's first and last solve
_TOL = 1e-12  # relative improvement below which a solve stops
# The largest distortion entry the search takes: a slope (under 4e14, since
# the slope search stops past 1e14) times a sum of up to _MAX_TABLE_CELLS
# such entries stays finite in the gradient.
_MAX_SEARCH_DISTORTION = 1e280


@dataclass(slots=True)
class _Point:
    """One evaluated kernel set: its forward pass and what the search reads."""

    kernels: np.ndarray  # the L kernels' rows, one kernel after another
    q: np.ndarray  # forward result over (side, c, u1..uL flattened)
    lefts: list[np.ndarray]  # left factor of every forward step
    costs: list[np.ndarray]  # per-k decoder cost tables over (side, z_k, u)
    rate: float
    dists: tuple[float, ...]
    value: float  # rate + slopes . dists


class _InnerEvaluator:
    """Sum-rate / distortion evaluation for encoder kernels on the simplex.

    W and T are trivial here; the decoder is the deterministic Bayes-optimal
    map for the current encoder kernels at every evaluation, so the search
    space is the encoder kernels alone.  Also provides the exact gradient of
    rate + slopes . distortions in the kernel entries (for the fixed Bayes
    decoder of the evaluation point, a valid descent direction for the min
    over decoders).

    Every quantity comes from one tensor over (y1..yL, side, c), built once:
    channel c = 0 holds p(y, side), and measure k owns the channels
    e_k(y, side, z_k) = sum_y0 p(y0, y, side) d_k(y0, y, side, z_k).  Only Y0
    is summed ahead of time, so this holds for every model.  Contracting the
    tensor with the L kernels gives p(u, side) and every decoder cost at once.

    A kernel set is one flat array: kernel l's rows, row-major, fill
    ``flat[ends[l]:ends[l + 1]]``, and ``split`` views it as L (|Y_l|, |U_l|)
    matrices, so every per-entry step runs once over the whole set.  The
    mirror step's row sums and per-kernel sums run once a run of kernels of
    one shape (``runs``).
    """

    def __init__(self, model: SourceModel, cardinalities: Sequence[int]):
        self.model = model
        self.L = model.L
        self.cards = tuple(_whole(c, "cardinalities") for c in cardinalities)
        if len(self.cards) != self.L or any(c < 1 for c in self.cards):
            raise ValueError(f"need {self.L} cardinalities >= 1, got {cardinalities}")
        if not _support_is_smaller(model.joint.product(_ONE_CELL_WT)):  # the check's root is dense
            cells = model.joint.probs.size * model.z_size * math.prod(self.cards)
            _refuse_over_cap(cells, "result check's dense joint")
        cells = model.joint.shape[-1] * (1 + sum(model.reproduction_sizes)) * math.prod(self.cards)
        _refuse_over_cap(cells, "search's forward table")
        dmax = max(float(t.max()) for t in model.distortions)
        if dmax > _MAX_SEARCH_DISTORTION:
            raise ValueError(f"the search takes distortions up to {_MAX_SEARCH_DISTORTION:g}, got {dmax!r}")
        # The softening scale that keeps every symbol alive without tripping
        # large penalty entries (stray mass times the worst table entry stays
        # well below the ordinary cost scale).
        self.seed_mass = min(1e-6, 1e-2 / max(1.0, dmax))
        self.y_sizes = tuple(model.observation_size(l) for l in range(1, self.L + 1))
        src = model.joint.table  # axes: y0, y1..yL, side
        p_obs = src.sum(axis=0)  # axes: y1..yL, side
        blocks = [p_obs[..., None]] + [(src[..., None] * d).sum(axis=0) for d in model.distortions]
        self.table = np.concatenate(blocks, axis=-1)
        ends = np.cumsum((1,) + model.reproduction_sizes).tolist()
        self.channels = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]  # measure k's c
        self.p_y = [
            p_obs.sum(axis=tuple(a for a in range(self.L + 1) if a != l)) for l in range(self.L)
        ]
        self.h_y = [_sum_plogp(p) for p in self.p_y]
        p_side = p_obs.reshape(-1, p_obs.shape[-1]).sum(axis=0)
        self.h_side = _sum_plogp(p_side)
        self.ln_ps1 = np.log(np.maximum(p_side, 1e-300)) + 1.0
        # Index arrays that write one entry per (side, u) column of the
        # forward result, at the decoder's choice of c.
        self.side_rows = np.arange(p_side.size)[:, None]
        self.u_cols = np.arange(math.prod(self.cards))
        self.sizes = [y * u for y, u in zip(self.y_sizes, self.cards)]
        self.ends = np.cumsum([0] + self.sizes).tolist()
        self.lasts = np.subtract(self.ends[1:], 1)  # each kernel's last entry
        # Runs of consecutive kernels of one shape (|Y_l|, |U_l|), as
        # (start, end, kernels, |U_l|) in the flat set: a per-row or
        # per-kernel step makes one reduce a run.
        self.runs = []
        for (y, u), run in itertools.groupby(zip(self.y_sizes, self.cards)):
            n = len(list(run))
            start = self.runs[-1][1] if self.runs else 0
            self.runs.append((start, start + n * y * u, n, u))
        # p(y_l) on each row of kernel l, for the kernel entropies and their gradient.
        self.weights = np.concatenate([np.repeat(p, u) for p, u in zip(self.p_y, self.cards)])
        # The first forward step's left factor is the tensor itself.
        self.left0 = self.table.reshape(self.y_sizes[0], -1)
        self.left0_t = self.left0.T

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """The L kernels of a flat kernel set, as (|Y_l|, |U_l|) views."""
        return [flat[a:b].reshape(y, -1) for a, b, y in zip(self.ends, self.ends[1:], self.y_sizes)]

    def floor(self, mass: float) -> np.ndarray:
        """mass / |U_l| on every entry of kernel l: the uniform kernel's
        share in a mix that gives it weight ``mass``."""
        return np.repeat([mass / n for n in self.cards], self.sizes)

    def identity_kernels(self) -> np.ndarray:
        """Slightly softened copy kernels u = y mod |U|.

        The softening keeps every symbol alive for the multiplicative
        updates; the copy structure makes the start low-distortion.
        """
        soft = self.seed_mass
        flat = self.floor(soft)
        for y_size, ker in zip(self.y_sizes, self.split(flat)):
            ker[np.arange(y_size), np.arange(y_size) % ker.shape[1]] += 1.0 - soft
        return flat

    def random_kernels(self, rng) -> np.ndarray:
        return np.concatenate(
            [rng.dirichlet(np.ones(u), size=y) for y, u in zip(self.y_sizes, self.cards)],
            axis=None,
        )

    def _forward(self, flat) -> tuple[np.ndarray, list[np.ndarray]]:
        """Contract the tensor with every kernel, one matmul per encoder.

        Step l multiplies the tensor, reshaped with the Y_l axis in front,
        into K_l and appends U_l at the back, so the next Y axis comes to the
        front.  Returns the result over (side, c, u1..uL) with the U axes
        flattened, and the 2-D left factor of every step for the gradient.
        """
        kernels = self.split(flat)
        b = self.left0_t @ kernels[0]
        lefts = [self.left0]
        for y_size, ker in zip(self.y_sizes[1:], kernels[1:]):
            left = b.reshape(y_size, -1)
            lefts.append(left)
            b = left.T @ ker
        return b.reshape(len(self.ln_ps1), self.table.shape[-1], -1), lefts

    def point(self, flat, slopes) -> _Point:
        """One forward pass at the kernel set ``flat``: rate, per-k Bayes
        distortions and rate + slopes . dists, with the pass kept for the
        gradient and the decoder.

        The rate is I(Y; U | side) = H(U, side) - H(side) - sum_l H(U_l | Y_l),
        because the encoders act on disjoint observations.  Each H(U_l | Y_l)
        sums its own kernel's terms, as ``_sum_plogp`` would.
        """
        q, lefts = self._forward(flat)
        masses = self.weights * flat
        positive = masses > 0.0
        masses = masses[positive]
        terms = np.log(masses)
        terms *= masses
        ends = self.ends
        if masses.size < flat.size:
            ends = [0] + positive.cumsum()[self.lasts].tolist()
        own = sum(
            -float(np.add.reduce(terms[a:b])) - h for a, b, h in zip(ends, ends[1:], self.h_y)
        )
        rate = _sum_plogp(q[:, 0]) - self.h_side - own
        costs = [q[:, ch] for ch in self.channels]
        dists = tuple(float(np.add.reduce(np.minimum.reduce(c, axis=1), axis=None)) for c in costs)
        return _Point(flat, q, lefts, costs, rate, dists, rate + float(np.dot(slopes, dists)))

    def gradient(self, point: _Point, slopes) -> np.ndarray:
        """Exact kernel-space gradient of rate + slopes . dists at ``point``.

        With the Bayes decoder of the point fixed, the value depends on the
        kernels through the forward result and through sum_l H(U_l | Y_l).
        Its derivative F in the forward result, over (side, c, u), is pulled
        back through the point's forward matmuls in reverse order: one matmul
        per kernel for its gradient and one to step back.  The kernel
        entropies add p(y_l) (ln K_l + 1).  The gradient is laid out as the
        kernel set is.

        Each decoder choice is the plain argmin over z at its (side, u).  On a
        zero-mass profile every cost is 0, so each term of its sum holds an
        exact 0.0 factor, and its slope reaches only kernel entries that are
        0; the mirror step keeps those at 0 whatever their gradient, so the
        choice there changes no step.  Logarithms are floored only to keep
        the gradient at such entries finite, so that 0 * G stays 0.
        """
        flat, q, costs = point.kernels, point.q, point.costs
        f = np.zeros(q.shape)
        ln_q1 = np.maximum(q[:, 0], 1e-300)
        np.log(ln_q1, out=ln_q1)
        ln_q1 += 1.0
        np.subtract(self.ln_ps1[:, None], ln_q1, out=f[:, 0])
        for k, ch in enumerate(self.channels):
            f[:, ch][self.side_rows, costs[k].argmin(axis=1), self.u_cols] = slopes[k]
        grad = np.maximum(flat, 1e-300)
        np.log(grad, out=grad)
        grad += 1.0
        grad *= self.weights
        grads, kernels = self.split(grad), self.split(flat)
        g = f.reshape(-1, self.cards[-1])  # d value / d (output of step L)
        for l in range(self.L - 1, -1, -1):
            grads[l] += point.lefts[l] @ g
            if l:
                g = (kernels[l] @ g.T).reshape(-1, self.cards[l - 1])
        return grad

    def bayes_decoder(self, point: _Point) -> Channel:
        """The deterministic Bayes decoder of ``point``: one one-hot row per
        input tuple (u1..uL, side, T), each measure's argmin over (u, side)."""
        choices = [c.argmin(axis=1).T for c in point.costs]  # over (u, side)
        z = np.ravel_multi_index(choices, self.model.reproduction_sizes)
        inputs = [(f"U{l}", n) for l, n in enumerate(self.cards, start=1)]
        inputs += [(f"Y{self.L + 1}", len(self.ln_ps1)), ("T", 1)]
        return Channel._indexed(
            inputs, ("Z", self.model.z_size), lambda *grid: z.reshape(self.cards + (-1, 1))
        )

    def as_aux_system(self, point: _Point) -> AuxSystem:
        encoders = tuple(
            Channel(((f"Y{l}", ker.shape[0]), ("W", 1), ("T", 1)), (f"U{l}", ker.shape[1]), ker)
            for l, ker in enumerate(self.split(point.kernels), start=1)
        )
        return AuxSystem(_ONE_CELL_WT, encoders, self.bayes_decoder(point))


class _SearchState:
    """The one budget that every restart draws on, in order, and the best
    feasible point seen so far with the restart that found it; a later point
    must be better by more than 1e-12, so earlier restarts win ties."""

    def __init__(self, caps, budget):
        self.limits = tuple(c + FEASIBILITY_SLACK for c in caps)  # a point meets a cap at or under
        self.budget = budget
        self.evals = 0
        self.restart = 0  # the restart now running
        self.best: Optional[_Point] = None
        self.best_restart = None

    def note(self, point: _Point):
        self.evals += 1
        best = self.best
        if (best is None or point.rate < best.rate - 1e-12) and all(
            d <= c for d, c in zip(point.dists, self.limits)
        ):
            self.best, self.best_restart = point, self.restart

    @property
    def exhausted(self):
        return self.evals >= self.budget


def _mirror_step(evaluator, kernels, grads, step) -> tuple[np.ndarray, float, float]:
    """The kernel set K' = K exp(-step G), each row renormalized, the total
    L1 distance it moved, and its first-order decrease <G, K - K'>, at least
    0 up to rounding.  The exponent is clipped to [-700, 700]: each row sums
    to 1 and its logs are at least -700, so no row sum is 0.  The per-entry
    steps run once over the flat set, in place, with the ufuncs called
    directly.  Each row sum, and each kernel's share of the move, is reduced
    on its own, one reduce a run of kernels of one shape, and the shares are
    added in kernel order."""
    c = -step * grads
    np.maximum(c, -700.0, out=c)
    np.minimum(c, 700.0, out=c)
    np.exp(c, out=c)
    c *= kernels
    for a, b, _, u in evaluator.runs:
        rows = c[a:b].reshape(-1, u)
        rows /= np.add.reduce(rows, axis=1, keepdims=True)
    d = c - kernels
    decrease = -float(np.dot(grads, d))
    np.abs(d, out=d)
    move = 0.0
    for a, b, n, _ in evaluator.runs:
        for share in np.add.reduce(d[a:b].reshape(n, -1), axis=1).tolist():
            move += share
    return c, move, decrease


def _md_minimize(evaluator, kernels, slopes, state, max_iters) -> _Point:
    """Mirror descent (exponentiated gradient) on rate + slopes . dists over
    the product of row simplices: K <- K exp(-t G) renormalized per row.

    The multiplicative geometry matches the entropy terms: the boundary log
    singularities that defeat Euclidean steps become plain exponential
    factors, row-constant gradient offsets cancel in the normalization, and
    large-penalty pushes drive forbidden symbols to (exactly) zero mass.
    Every kernel set is evaluated once and reported to ``state``; the
    gradient reads the accepted point's pass.  Returns the last accepted
    point.
    """
    point = evaluator.point(kernels, slopes)
    state.note(point)
    step = 1.0
    for _ in range(max_iters):
        if state.exhausted:
            break
        grads = evaluator.gradient(point, slopes)
        trial, step = _line_search(evaluator, point, grads, step, slopes, state)
        if trial is None:
            break
        improvement = point.value - trial.value
        point = trial
        step = min(step * 1.6, 1e8)
        if improvement <= _TOL * max(1.0, abs(point.value)):
            break
    return point


def _line_search(evaluator, point, grads, step, slopes, state):
    """Backtracking from ``step``, halving it after each rejected trial, for
    up to 60 trials: each trial is noted, and the first whose value falls by
    at least 1e-4 of its step's first-order decrease (the Armijo test) is
    returned with its step.  Returns None for the trial when the budget runs
    out, a trial would move the kernels by 1e-15 or less, or every trial is
    rejected.
    """
    for _ in range(60):
        if state.exhausted:
            break
        cand, move, decrease = _mirror_step(evaluator, point.kernels, grads, step)
        if move <= 1e-15:
            return None, step
        trial = evaluator.point(cand, slopes)
        state.note(trial)
        if trial.value <= point.value - 1e-4 * decrease:
            return trial, step
        step *= 0.5
    return None, step


def _slope_search(evaluator, kernels, state):
    """Per-distortion Lagrange slope bracketing and bisection around the caps.

    Slopes start high (hard, structured solutions) and walk down toward the
    caps; an infeasible solve raises its slope back, a feasible one records
    the bracket and descends.  Solves warm-start from an "anchor": the first
    solve's result, feasible or not, then each later all-feasible one, so a
    degenerate optimum of a low-slope regime (maximum distortion, zero rate)
    found later never becomes one.  Until some solve meets a cap, the walk
    stops once a solve after a raise returns exactly the distortions of the
    one before: the raise left the anchor where it was, as at encoders that
    ignore their observations, whose gradient is constant on each kernel
    row.  ``state`` keeps the best feasible point visited anywhere; the
    final polish at the bracketed slopes runs only while budget remains,
    and not after that stop, whose anchor is still infeasible.
    """
    eps = evaluator.seed_mass
    floor = evaluator.floor(eps)

    def soften(flat):
        # Multiplicative updates cannot regrow a symbol once its mass hits
        # exact zero; re-seeding a trace of every symbol at solve boundaries
        # lets supports killed at one slope return at another, while symbols
        # that should stay dead are re-killed within an iteration.
        return (1.0 - eps) * flat + floor

    K = len(state.limits)
    slopes = np.full(K, 64.0)
    lo = np.zeros(K)
    hi = np.full(K, np.inf)
    point = _md_minimize(evaluator, soften(kernels), slopes, state, _ITERS)
    anchor, prev = point.kernels, None
    for _ in range(_ROUNDS):
        if state.exhausted:
            break
        dists = point.dists
        if all(d <= c for d, c in zip(dists, state.limits)):
            anchor = point.kernels
        elif dists == prev and np.isinf(hi).all():
            return
        prev = dists
        moved = False
        for k in range(K):
            if dists[k] > state.limits[k]:
                lo[k] = max(lo[k], slopes[k])
                slopes[k] = (
                    slopes[k] * 4.0
                    if not np.isfinite(hi[k])
                    else 0.5 * (slopes[k] + hi[k])
                )
                moved = True
            else:
                hi[k] = min(hi[k], slopes[k])
                if lo[k] == 0.0 and slopes[k] > 1e-3:
                    slopes[k] = slopes[k] / 4.0
                    moved = True
                elif hi[k] - lo[k] > 1e-7 * max(1.0, hi[k]):
                    slopes[k] = 0.5 * (lo[k] + slopes[k])
                    moved = True
        if not moved or bool(np.any(slopes > 1e14)):
            break
        point = _md_minimize(evaluator, soften(anchor), slopes, state, _ITERS // 2)
    if not state.exhausted:
        final = np.where(np.isfinite(hi), hi, slopes)
        _md_minimize(evaluator, soften(anchor), final, state, _ITERS)


def optimize_bt_inner_sum_rate(
    model: SourceModel,
    distortion_caps: Sequence[float],
    cardinalities: Sequence[int],
    budget: int,
    seed: int,
) -> OptimizeResult:
    """Search with ``_RESTARTS`` restarts for the inner-bound minimum sum
    rate under caps.

    Encoder kernel rows live directly on the probability simplex; the
    decoder is reset to the Bayes-optimal deterministic map at every
    evaluation; each restart runs a Lagrangian slope search (mirror descent
    inside, slope bracketing/bisection outside) against the distortion caps.
    The first restart starts from softened copy kernels, the rest from
    random kernels.  ``budget`` caps the total number of model evaluations
    exactly: the restarts share it in order, restart 0 first, and a restart
    begins only while some remains.  The result is an upper estimate of the
    inner-bound optimum: every reported point is achievable.  Deterministic
    given ``seed``; of equal points the earliest wins.  Raises
    ``ValueError`` on a non-integral ``cardinalities`` entry, ``budget`` or
    ``seed``, on a negative ``seed``, or when the search's forward table, or
    the dense joint of the result's check, would have more than 2^25 cells.
    """
    caps = tuple(float(c) for c in distortion_caps)
    if len(caps) != model.K or any(math.isnan(c) for c in caps):
        raise ValueError(f"need {model.K} distortion caps, none NaN, got {caps}")
    budget, seed = _whole(budget, "budget"), _whole(seed, "seed")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    evaluator = _InnerEvaluator(model, cardinalities)
    state = _SearchState(caps, budget)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(_RESTARTS)):
        if state.exhausted:
            break
        state.restart = i
        rng = np.random.default_rng(child)
        kernels = evaluator.identity_kernels() if i == 0 else evaluator.random_kernels(rng)
        _slope_search(evaluator, kernels, state)

    gamma = constraints = None
    sum_rate, message = float("inf"), f"no system met caps {caps} within budget {budget}"
    if state.best is not None:
        gamma = evaluator.as_aux_system(state.best)
        constraints = bt_inner_constraints(model, gamma)
        sum_rate, message = constraints.full_set, f"best restart {state.best_restart}"
    return OptimizeResult(
        feasible=gamma is not None,
        sum_rate=sum_rate,
        gamma=gamma,
        constraints=constraints,
        distortions=constraints.distortions if constraints else (),
        evaluations=state.evals,
        restarts=state.restart + 1,
        message=message,
    )
