"""Rate-region constraint evaluators and a desk-scale test-channel optimizer.

Subsets A of encoders {1..L} are encoded as bitmasks (bit l-1 set means
encoder l is in A), so a constraint set holds 2^L - 1 subset rate lower
bounds plus the K expected distortions.  The representation caps L at 16;
cost (the dense joint) caps it at about 6 in practice.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InfeasibleError, SupermodularityError
from .model import (
    MARKOV_TOL,
    AuxSystem,
    SourceModel,
    XChannel,
    build_full_joint,
    check_chi,
    encoder_names,
    expected_distortions,
    gamma_class_residuals,
    source_names,
)
from .prob import Channel, EntropyOracle, JointPmf, _lattice_entropies, _sum_plogp

FEASIBILITY_SLACK = 1e-9  # "meets the cap" means distortion <= cap + this


def _mask_of(members: Iterable[int]) -> int:
    mask = 0
    for l in members:
        mask |= 1 << (int(l) - 1)
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
        want = set(range(1, 1 << self.L))
        if set(self.subset_bounds) != want:
            raise ValueError(
                f"subset_bounds must cover every nonempty subset mask of L={self.L}"
            )
        for mask, v in self.subset_bounds.items():
            if not np.isfinite(v) or v < -1e-9:
                raise ValueError(f"bound for mask {mask:#b} is {v!r}; must be finite, >= 0")
        object.__setattr__(
            self, "subset_bounds", {m: max(0.0, float(v)) for m, v in self.subset_bounds.items()}
        )
        object.__setattr__(self, "distortions", tuple(float(d) for d in self.distortions))
        if len(self.distortions) != self.K:
            raise ValueError(f"need K={self.K} distortions, got {len(self.distortions)}")

    def bound(self, subset) -> float:
        """Bound for a subset given as a bitmask or an iterable of encoder indices."""
        mask = subset if isinstance(subset, int) else _mask_of(subset)
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


def bt_inner_constraints(
    model: SourceModel, gamma: AuxSystem, tolerance: float = MARKOV_TOL
) -> RegionConstraints:
    """Berger-Tung inner-bound constraints of a system in the inner class.

    bound(A) = I(Y_A; U_A | U_{A^c}, side info, T).  The system must pass the
    inner-class Markov check (W trivial or folded into T).  It is computed as
    I(Y; U_A | U_{A^c}, side, T), which exceeds it by at most the check's
    summed encoder residuals: by 0 when the encoder chains hold exactly.
    """
    return _evaluate(model, gamma, None, "bt_inner", "gamma (Berger-Tung inner class)", tolerance)


def bt_outer_constraints(
    model: SourceModel, gamma: AuxSystem, tolerance: float = MARKOV_TOL
) -> RegionConstraints:
    """Berger-Tung outer-bound constraints: bound(A) = I(Y; U_A | U_{A^c}, side, T)
    with the full observation vector Y on the left."""
    return _evaluate(model, gamma, None, "bt_outer", "gamma (Berger-Tung outer class)", tolerance)


def new_outer_constraints(
    model: SourceModel,
    x: XChannel,
    gamma: AuxSystem,
    tolerance: float = MARKOV_TOL,
) -> RegionConstraints:
    """Constraints of the improved outer bound for a coupled variable X.

    bound(A) = I(X; U_A | U_{A^c}, side, T)
             + sum_{l in A} I(Y_l; U_l | X, side, W, T),
    evaluated under the coupling in which X interacts with the auxiliary
    system only through the sources.
    """
    check_chi(model, x, tolerance).require("x (conditional-independence class)")
    return _evaluate(model, gamma, x, "outer", "gamma (outer class)", tolerance)


def _evaluate(model, gamma, x, cls, what, tolerance) -> RegionConstraints:
    """The one evaluator body: build the joint, require Markov class ``cls``
    (named ``what`` in the error) and, with S = (side, T), assemble

        bound(A) = H(U_A | U_{A^c}, S) - H(U_A | V, U_{A^c}, S) + sum_{l in A} own_l.

    With ``x``, V = X and own_l = I(Y_l; U_l | X, side, W, T); without, V = Y,
    all observations, and own_l = 0.  The entropies come from one lattice
    walk over a table with axes (U_1..U_L, V, S).
    """
    L = model.L
    joint = build_full_joint(model, gamma, x)
    gamma_class_residuals(joint, L, cls, tolerance).require(what)
    us, ys, s = encoder_names(L), source_names(L)[1 : L + 1], (f"Y{L + 1}", "T")
    v, own_given = (ys, ()) if x is None else (("X",), ("X", "W"))
    oracle = EntropyOracle(joint, ys + us + s + v + own_given)
    # C-contiguous, U axes first, V and S one axis each: L + 2 axes to walk.
    # On a transposed view the walk is several times slower.
    table = np.ascontiguousarray(oracle.marginal(us + v + s))
    table = table.reshape(table.shape[:L] + (-1, table.shape[-2] * table.shape[-1]))
    h = _lattice_entropies(table)
    v_bit, s_bit = 1 << L, 1 << (L + 1)
    bounds = _conditional_entropies(h, L, s_bit) - _conditional_entropies(h, L, v_bit | s_bit)
    if own_given:
        own = [oracle.cmi([y], [u], own_given + s) for y, u in zip(ys, us)]
        members = (np.arange(1, 1 << L)[:, None] >> np.arange(L)) & 1
        bounds += members @ np.array(own)
    distortions = expected_distortions(model, gamma, joint)
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


def berger_yeung_bounds(
    model: SourceModel, gamma: AuxSystem, tolerance: float = MARKOV_TOL
) -> tuple[float, float, float]:
    """The two-encoder bounds for the lossless-component structure Y1 = Y0.

    Returns (R1_min, R2_min, sum_min) =
    (H(Y1 | U2, T), I(Y2; U2 | Y1, T), H(Y1) + I(Y2; U2 | Y1, T)).
    """
    if model.L != 2:
        raise InfeasibleError(f"Berger-Yeung form requires L = 2, got L={model.L}")
    pair = model.joint.marginalize(("Y0", "Y1")).table
    if pair.shape[0] != pair.shape[1] or float(pair.sum() - np.trace(pair)) > 1e-12:
        raise InfeasibleError("Berger-Yeung form requires Y1 = Y0 almost surely")
    joint = build_full_joint(model, gamma)
    gamma_class_residuals(joint, model.L, "bt_inner", tolerance).require(
        "gamma (Berger-Tung inner class)"
    )
    oracle = EntropyOracle(joint, ("Y1", "Y2", "U2", "T"))
    r1 = oracle.h(["Y1", "U2", "T"]) - oracle.h(["U2", "T"])
    i2 = oracle.cmi(["Y2"], ["U2"], ["Y1", "T"])
    h1 = oracle.h(["Y1"])
    return (r1, i2, h1 + i2)


# ---------------------------------------------------------------------------
# Contrapolymatroid vertices
# ---------------------------------------------------------------------------


def _locally_supermodular(F: np.ndarray, L: int, slack: float) -> bool:
    """True when f(S+i+j) + f(S) >= f(S+i) + f(S+j) - tol for every S and
    i, j not in S, with a tol that certifies the pair condition of
    ``check_supermodular`` at ``slack``.  ``F`` holds f on all 2^L masks.

    A pair's defect f(A or B) + f(A and B) - f(A) - f(B) telescopes into
    |A - B| * |B - A| <= c = floor(L/2) * ceil(L/2) local defects, so local
    ones >= -slack / (2c) keep every pair's >= -slack / 2.  tol also gives up
    4 (c + 1) eps * max|f|, more than the float sums and comparisons here and
    in the pair loop can round away, so a certified region never fails the
    pair loop, whatever the slack and the scale of f.  Cost O(2^L L^2).
    """
    c = (L // 2) * ((L + 1) // 2)
    if c == 0:
        return True  # L <= 1: there is no pair to violate
    rounding = 4 * (c + 1) * np.finfo(float).eps * float(np.abs(F).max())
    tol = (slack / 2 - rounding) / c
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


def check_supermodular(constraints: RegionConstraints, slack: float = 1e-9) -> None:
    """Raise SupermodularityError on the first pair violating
    f(A or B) + f(A and B) >= f(A) + f(B) - slack (with f(empty) = 0)."""
    L = constraints.L
    F = np.zeros(1 << L)
    F[1:] = [constraints.subset_bounds[mask] for mask in range(1, 1 << L)]
    if _locally_supermodular(F, L, slack):
        return

    # Some local defect is too negative to certify; the pair loop decides,
    # and names the first violating pair in its order.  Each a checks every
    # b > a at once, with the same sums in the same order as one pair at a time.
    masks = np.arange(1 << L)
    for a in range(1, 1 << L):
        b = masks[a + 1 :]
        lhs = F[a | b] + F[a & b]
        rhs = F[a] + F[b]
        bad = np.flatnonzero(lhs < rhs - slack)
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
    order = tuple(int(l) for l in order)
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
    """Outcome of a sum-rate search; infeasible caps are reported, not fatal."""

    feasible: bool
    sum_rate: float
    gamma: Optional[AuxSystem]
    constraints: Optional[RegionConstraints]
    distortions: tuple[float, ...]
    evaluations: int
    restarts: int
    message: str


_MAX_OPTIMIZE_L = 7  # set by the dense bt_inner_constraints check; see __init__


@dataclass(frozen=True)
class _Point:
    """One evaluated kernel set: its forward pass and what the search reads."""

    kernels: list[np.ndarray]
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
    """

    def __init__(self, model: SourceModel, cardinalities: Sequence[int]):
        self.model = model
        self.L = model.L
        if self.L > _MAX_OPTIMIZE_L:
            raise ValueError(
                f"the optimizer supports L <= {_MAX_OPTIMIZE_L}, got L={self.L}: its result is "
                f"checked with bt_inner_constraints, whose dense joint has about 29 M cells "
                f"(2*9^7*3) on the erasure casebook at L = 7"
            )
        self.cards = tuple(int(c) for c in cardinalities)
        if len(self.cards) != self.L or any(c < 1 for c in self.cards):
            raise ValueError(f"need {self.L} cardinalities >= 1, got {cardinalities}")
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

    @property
    def seed_mass(self) -> float:
        """Softening scale that keeps every symbol alive without tripping
        large penalty entries (stray mass times the worst table entry stays
        well below the ordinary cost scale)."""
        dmax = max(float(t.max()) for t in self.model.distortions)
        return min(1e-6, 1e-2 / max(1.0, dmax))

    def identity_kernels(self) -> list[np.ndarray]:
        """Slightly softened copy kernels u = y mod |U|.

        The softening keeps every symbol alive for the multiplicative
        updates; the copy structure makes the start low-distortion.
        """
        soft = self.seed_mass
        kernels = []
        for l in range(self.L):
            n_u = self.cards[l]
            ker = np.full((self.y_sizes[l], n_u), soft / n_u)
            ker[np.arange(self.y_sizes[l]), np.arange(self.y_sizes[l]) % n_u] += 1.0 - soft
            kernels.append(ker)
        return kernels

    def random_kernels(self, rng) -> list[np.ndarray]:
        return [
            rng.dirichlet(np.ones(self.cards[l]), size=self.y_sizes[l])
            for l in range(self.L)
        ]

    def _forward(self, kernels) -> tuple[np.ndarray, list[np.ndarray]]:
        """Contract the tensor with every kernel, one matmul per encoder.

        Step l multiplies the tensor, reshaped with the Y_l axis in front,
        into K_l and appends U_l at the back, so the next Y axis comes to the
        front.  Returns the result over (side, c, u1..uL) with the U axes
        flattened, and the 2-D left factor of every step for the gradient.
        """
        b = self.table
        lefts = []
        for y_size, ker in zip(self.y_sizes, kernels):
            left = b.reshape(y_size, -1)
            lefts.append(left)
            b = left.T @ ker
        return b.reshape(len(self.ln_ps1), self.table.shape[-1], -1), lefts

    def point(self, kernels, slopes) -> _Point:
        """One forward pass at these kernels: rate, per-k Bayes distortions
        and rate + slopes . dists, with the pass kept for the gradient and
        the decoder.

        The rate is I(Y; U | side) = H(U, side) - H(side) - sum_l H(U_l | Y_l),
        because the encoders act on disjoint observations.
        """
        q, lefts = self._forward(kernels)
        own = sum(
            _sum_plogp(p[:, None] * ker) - h for p, h, ker in zip(self.p_y, self.h_y, kernels)
        )
        rate = _sum_plogp(q[:, 0]) - self.h_side - own
        costs = [q[:, ch] for ch in self.channels]
        dists = tuple(float(c.min(axis=1).sum()) for c in costs)
        return _Point(kernels, q, lefts, costs, rate, dists, rate + float(np.dot(slopes, dists)))

    def gradient(self, point: _Point, slopes) -> list[np.ndarray]:
        """Exact kernel-space gradient of rate + slopes . dists at ``point``.

        With the Bayes decoder of the point fixed, the value depends on the
        kernels through the forward result and through sum_l H(U_l | Y_l).
        Its derivative F in the forward result, over (side, c, u), is pulled
        back through the point's forward matmuls in reverse order: one matmul
        per kernel for its gradient and one to step back.  The kernel
        entropies add p(y_l) (ln K_l + 1).  Logarithms are floored so
        boundary points (exact zeros in kernels) get finite pull-in/push-out
        coefficients.
        """
        kernels, q, costs = point.kernels, point.q, point.costs
        # Decoder choices for the gradient are the true Bayes argmins, except
        # on zero-mass decoder profiles, where the argmin is arbitrary and an
        # adversarial pick (large penalties) would wall off every unused
        # symbol; there a slightly smoothed joint breaks the tie sensibly.
        argmins = [c.argmin(axis=1) for c in costs]  # axes (side, u)
        dead = [c.max(axis=1) == 0.0 for c in costs]
        if any(np.any(d) for d in dead):
            smoothed = [(1.0 - 1e-3) * ker + 1e-3 / ker.shape[1] for ker in kernels]
            q_smooth, _ = self._forward(smoothed)
            for k, ch in enumerate(self.channels):
                argmins[k] = np.where(dead[k], q_smooth[:, ch].argmin(axis=1), argmins[k])

        f = np.zeros_like(q)
        f[:, 0] = self.ln_ps1[:, None] - (np.log(np.maximum(q[:, 0], 1e-300)) + 1.0)
        for k, ch in enumerate(self.channels):
            np.put_along_axis(f[:, ch], argmins[k][:, None], slopes[k], axis=1)
        grads = [None] * self.L
        g = f.reshape(-1, self.cards[-1])  # d value / d (output of step L)
        for l in range(self.L - 1, -1, -1):
            ln_k1 = np.log(np.maximum(kernels[l], 1e-300)) + 1.0
            grads[l] = point.lefts[l] @ g + self.p_y[l][:, None] * ln_k1
            if l:
                g = (kernels[l] @ g.T).reshape(-1, self.cards[l - 1])
        return grads

    def bayes_decoder(self, point: _Point) -> Channel:
        side_size = len(self.ln_ps1)
        choices = [  # axes (side, u1..uL)
            c.argmin(axis=1).reshape((side_size,) + self.cards) for c in point.costs
        ]
        rep = self.model.reproduction_sizes

        def decode(*args):
            us = args[: self.L]
            y_side = args[self.L]
            zs = [int(c[(y_side,) + us]) for c in choices]
            return int(np.ravel_multi_index(zs, rep))

        inputs = tuple((f"U{l}", self.cards[l - 1]) for l in range(1, self.L + 1)) + (
            (f"Y{self.L + 1}", side_size),
            ("T", 1),
        )
        return Channel.deterministic(inputs, ("Z", self.model.z_size), decode)

    def as_aux_system(self, point: _Point) -> AuxSystem:
        wt = JointPmf((("W", 1), ("T", 1)), np.array([1.0]))
        encoders = tuple(
            Channel(
                ((f"Y{l}", self.y_sizes[l - 1]), ("W", 1), ("T", 1)),
                (f"U{l}", self.cards[l - 1]),
                point.kernels[l - 1],
            )
            for l in range(1, self.L + 1)
        )
        return AuxSystem(wt, encoders, self.bayes_decoder(point))


class _SearchState:
    """Budget accounting plus the best feasible point seen so far."""

    def __init__(self, caps, budget):
        self.caps = caps
        self.budget = budget
        self.evals = 0
        self.best: Optional[_Point] = None

    def note(self, point: _Point):
        self.evals += 1
        if all(d <= c + FEASIBILITY_SLACK for d, c in zip(point.dists, self.caps)) and (
            self.best is None or point.rate < self.best.rate - 1e-12
        ):
            self.best = point

    @property
    def exhausted(self):
        return self.evals >= self.budget


def _md_minimize(evaluator, kernels, slopes, state, max_iters=150, tol=1e-12) -> _Point:
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
        accepted = False
        for _bt in range(60):
            if state.exhausted:
                break
            cand = []
            for k_mat, g_mat in zip(point.kernels, grads):
                logs = np.clip(-step * g_mat, -700.0, 700.0)
                nxt = k_mat * np.exp(logs)
                total = nxt.sum(axis=1, keepdims=True)
                # A fully underflowed row falls back to its previous value.
                bad = total[:, 0] <= 0.0
                if np.any(bad):
                    nxt[bad] = k_mat[bad]
                    total = nxt.sum(axis=1, keepdims=True)
                cand.append(nxt / total)
            move = sum(float(np.abs(c - k).sum()) for c, k in zip(cand, point.kernels))
            if move <= 1e-15:
                break
            trial = evaluator.point(cand, slopes)
            state.note(trial)
            if trial.value <= point.value - 1e-6 * move:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        improvement = point.value - trial.value
        point = trial
        step = min(step * 1.6, 1e8)
        if improvement <= tol * max(1.0, abs(point.value)):
            break
    return point


def _slope_search(evaluator, kernels, state, rounds=60, iters=150):
    """Per-distortion Lagrange slope bracketing and bisection around the caps.

    Slopes start high (hard, structured solutions) and walk down toward the
    caps; an infeasible solve raises its slope back, a feasible one records
    the bracket and descends.  Solves warm-start from the most recent
    all-feasible solution ("anchor"): low-slope regimes have degenerate
    optima (maximum distortion, zero rate) whose kernels would poison later
    warm starts.  ``state`` keeps the best feasible point visited anywhere.
    """
    eps = evaluator.seed_mass

    def soften(mats):
        # Multiplicative updates cannot regrow a symbol once its mass hits
        # exact zero; re-seeding a trace of every symbol at solve boundaries
        # lets supports killed at one slope return at another, while symbols
        # that should stay dead are re-killed within an iteration.
        return [(1.0 - eps) * m + eps / m.shape[1] for m in mats]

    K = len(state.caps)
    slopes = np.full(K, 64.0)
    lo = np.zeros(K)
    hi = np.full(K, np.inf)
    point = _md_minimize(evaluator, soften(kernels), slopes, state, max_iters=iters)
    anchor = point.kernels
    for _ in range(rounds):
        if state.exhausted:
            break
        dists = point.dists
        if all(d <= c + FEASIBILITY_SLACK for d, c in zip(dists, state.caps)):
            anchor = point.kernels
        moved = False
        for k in range(K):
            if dists[k] > state.caps[k] + FEASIBILITY_SLACK:
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
                elif hi[k] - lo[k] > 1e-6 * max(1.0, hi[k]):
                    slopes[k] = 0.5 * (lo[k] + slopes[k])
                    moved = True
        if not moved or bool(np.any(slopes > 1e14)):
            break
        point = _md_minimize(evaluator, soften(anchor), slopes, state, max_iters=iters // 2)
    final = np.where(np.isfinite(hi), hi, slopes)
    _md_minimize(evaluator, soften(anchor), final, state, max_iters=iters)


def optimize_bt_inner_sum_rate(
    model: SourceModel,
    distortion_caps: Sequence[float],
    cardinalities: Sequence[int],
    budget: int,
    seed: int,
    restarts: int = 4,
) -> OptimizeResult:
    """Multi-restart search for the inner-bound minimum sum rate under caps.

    Encoder kernel rows live directly on the probability simplex; the
    decoder is reset to the Bayes-optimal deterministic map at every
    evaluation; each restart runs a Lagrangian slope search (mirror descent
    inside, slope bracketing/bisection outside) against the distortion caps.
    The first restart starts from softened copy kernels, the rest from
    random kernels.  ``budget`` caps the total number of model evaluations.
    The result is an upper estimate of the inner-bound optimum: every
    reported point is achievable.  Deterministic given ``seed``; restarts
    merge by (sum_rate, restart index).
    """
    caps = tuple(float(c) for c in distortion_caps)
    if len(caps) != model.K:
        raise ValueError(f"need {model.K} distortion caps, got {len(caps)}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    evaluator = _InnerEvaluator(model, cardinalities)
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    per_restart = max(1, budget // restarts)
    states = []
    for i in range(restarts):
        rng = np.random.default_rng(seeds[i])
        kernels = evaluator.identity_kernels() if i == 0 else evaluator.random_kernels(rng)
        state = _SearchState(caps, per_restart)
        _slope_search(evaluator, kernels, state)
        states.append(state)

    total_evals = sum(s.evals for s in states)
    best_idx, best = None, None
    for i, state in enumerate(states):
        if state.best is not None and (best is None or state.best.rate < best.rate - 1e-12):
            best_idx, best = i, state.best
    if best is None:
        return OptimizeResult(
            feasible=False,
            sum_rate=float("inf"),
            gamma=None,
            constraints=None,
            distortions=(),
            evaluations=total_evals,
            restarts=restarts,
            message=f"no system met caps {caps} within budget {budget}",
        )
    gamma = evaluator.as_aux_system(best)
    constraints = bt_inner_constraints(model, gamma)
    return OptimizeResult(
        feasible=True,
        sum_rate=constraints.full_set,
        gamma=gamma,
        constraints=constraints,
        distortions=constraints.distortions,
        evaluations=total_evals,
        restarts=restarts,
        message=f"best restart {best_idx}",
    )
