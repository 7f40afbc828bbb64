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
from .prob import Channel, EntropyOracle, JointPmf, _lattice_entropies, _sum_plogp, _times_kernel

FEASIBILITY_SLACK = 1e-9  # "meets the cap" means distortion <= cap + this


def _mask_members(mask: int, L: int) -> tuple[int, ...]:
    return tuple(l for l in range(1, L + 1) if mask & (1 << (l - 1)))


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
    inner-class Markov check (W trivial or folded into T).
    """
    joint = build_full_joint(model, gamma)
    gamma_class_residuals(joint, model.L, "bt_inner", tolerance).require(
        "gamma (Berger-Tung inner class)"
    )
    return _subset_constraints(model, gamma, joint, kind="bt_inner")


def bt_outer_constraints(
    model: SourceModel, gamma: AuxSystem, tolerance: float = MARKOV_TOL
) -> RegionConstraints:
    """Berger-Tung outer-bound constraints: bound(A) = I(Y; U_A | U_{A^c}, side, T)
    with the full observation vector Y on the left."""
    joint = build_full_joint(model, gamma)
    gamma_class_residuals(joint, model.L, "bt_outer", tolerance).require(
        "gamma (Berger-Tung outer class)"
    )
    return _subset_constraints(model, gamma, joint, kind="bt_outer")


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
    joint = build_full_joint(model, gamma, x)
    gamma_class_residuals(joint, model.L, "outer", tolerance).require("gamma (outer class)")
    return _subset_constraints(model, gamma, joint, kind="new_outer")


def _subset_constraints(model, gamma, joint, kind) -> RegionConstraints:
    L = model.L
    side = f"Y{L + 1}"
    us = encoder_names(L)
    ys = tuple(f"Y{l}" for l in range(1, L + 1))
    if kind == "new_outer":
        oracle = EntropyOracle(joint, ys + us + ("X", side, "W", "T"))
        # I(Y_l; U_l | X, side, W, T) does not depend on the subset.
        own = [
            oracle.cmi([f"Y{l}"], [f"U{l}"], ["X", side, "W", "T"]) for l in range(1, L + 1)
        ]
    else:
        oracle = EntropyOracle(joint, ys + us + (side, "T"))
    bounds: dict[int, float] = {}
    for mask in range(1, 1 << L):
        members = _mask_members(mask, L)
        u_a = [f"U{l}" for l in members]
        u_ac = [u for u in us if u not in u_a]
        cond = u_ac + [side, "T"]
        if kind == "bt_inner":
            left = [f"Y{l}" for l in members]
            value = oracle.cmi(left, u_a, cond)
        elif kind == "bt_outer":
            value = oracle.cmi(ys, u_a, cond)
        else:  # new_outer
            value = oracle.cmi(["X"], u_a, cond)
            for l in members:
                value += own[l - 1]
        bounds[mask] = value
    distortions = expected_distortions(model, gamma, joint)
    return RegionConstraints(L, model.K, bounds, distortions)


def slepian_wolf_bounds(model: SourceModel) -> RegionConstraints:
    """Lossless bounds H(Y_A | Y_{A^c}) for every nonempty A (no side information)."""
    L = model.L
    full = (1 << L) - 1
    # Axis l-1 of the table is Y_l, so h[mask] = H(Y_mask) in the mask encoding.
    h = _lattice_entropies(model.joint._summed(f"Y{l}" for l in range(1, L + 1))[1])
    bounds = {mask: h[full] - h[full ^ mask] for mask in range(1, 1 << L)}
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
    # and names the first violating pair in its order.
    f = F.tolist()
    for a in range(1, 1 << L):
        for b in range(a + 1, 1 << L):
            lhs = f[a | b] + f[a & b]
            rhs = f[a] + f[b]
            if lhs < rhs - slack:
                raise SupermodularityError(
                    f"subset bounds are not supermodular: "
                    f"f({subset_label(a, L)}) + f({subset_label(b, L)}) = {rhs:.12g} "
                    f"exceeds f(union) + f(intersection) = {lhs:.12g}",
                    pair=(a, b),
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


_EINSUM_LETTERS = "abcdefghijklmnop"  # "z" is the reproduction axis
_MAX_OPTIMIZE_L = (len(_EINSUM_LETTERS) - 2) // 2


class _InnerEvaluator:
    """Sum-rate / distortion evaluation for encoder kernels on the simplex.

    W and T are trivial here; the decoder is the deterministic Bayes-optimal
    map for the current encoder kernels at every evaluation, so the search
    space is the encoder kernels alone.  Also provides the exact gradient of
    rate + slopes . distortions in the kernel entries (for the fixed Bayes
    decoder of the evaluation point, a valid descent direction for the min
    over decoders).
    """

    def __init__(self, model: SourceModel, cardinalities: Sequence[int]):
        self.model = model
        self.L = model.L
        if self.L > _MAX_OPTIMIZE_L:
            raise ValueError(
                f"the optimizer supports L <= {_MAX_OPTIMIZE_L}, got L={self.L}: its einsum "
                f"subscripts name 2L + 2 axes (sources, side information and one U per "
                f"encoder) from {len(_EINSUM_LETTERS)} letters"
            )
        self.cards = tuple(int(c) for c in cardinalities)
        if len(self.cards) != self.L or any(c < 1 for c in self.cards):
            raise ValueError(f"need {self.L} cardinalities >= 1, got {cardinalities}")
        self.src = model.joint.table  # axes: y0, y1..yL, side
        self.y_sizes = tuple(model.observation_size(l) for l in range(1, self.L + 1))
        n_src = self.L + 2
        self.src_letters = _EINSUM_LETTERS[:n_src]
        self.u_letters = _EINSUM_LETTERS[n_src : n_src + self.L]
        side = self.src_letters[-1]
        # einsum spec for per-k decoder costs: contract hidden + observations,
        # keep (U..., side, Z).
        self.cost_spec = (
            self.src_letters + self.u_letters + "," + self.src_letters + "z->"
            + self.u_letters + side + "z"
        )

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

    def _joint(self, kernels, skip: Optional[int] = None) -> np.ndarray:
        """Joint over (y0, y1..yL, side, U_l for every encoder l != skip)."""
        p = self.src
        for l, ker in enumerate(kernels):
            if l != skip:
                p = _times_kernel(p, (1 + l,), ker)  # ker: Y_l axis -> U_l
        return p

    def _rate(self, p: np.ndarray) -> float:
        """I(Y; U | side info) from the full joint (axes y0, y, side, u)."""
        p_no_hidden = p.sum(axis=0)  # axes: y1..yL, side, u1..uL
        obs = tuple(range(self.L))
        us = tuple(range(self.L + 1, 2 * self.L + 1))
        return (
            _sum_plogp(p_no_hidden.sum(axis=us))
            + _sum_plogp(p_no_hidden.sum(axis=obs))
            - _sum_plogp(p_no_hidden)
            - _sum_plogp(p_no_hidden.sum(axis=obs + us))
        )

    def _costs(self, p: np.ndarray) -> list[np.ndarray]:
        """Per-k mass-weighted decoder cost tables over (U..., side, Z)."""
        return [
            np.einsum(self.cost_spec, p, self.model.distortions[k])
            for k in range(self.model.K)
        ]

    def evaluate(self, kernels) -> tuple[float, tuple[float, ...]]:
        """Return (sum-rate bound, per-k Bayes distortions) for these encoders."""
        p = self._joint(kernels)
        dists = tuple(float(c.min(axis=-1).sum()) for c in self._costs(p))
        return self._rate(p), dists

    def lagrangian_value(self, kernels, slopes):
        rate, dists = self.evaluate(kernels)
        return rate + float(np.dot(slopes, dists)), rate, dists

    def lagrangian_grad(self, kernels, slopes):
        """Value and exact kernel-space gradient of rate + slopes . dists.

        Uses I(Y; U | side) = H(U | side) - sum_l H(U_l | Y_l) (the encoders
        act on disjoint observations) and, for the distortion terms,
        linearity in each kernel once the Bayes decoder of the current point
        is fixed.  Logarithms are floored so boundary points (exact zeros in
        kernels) get finite pull-in/push-out coefficients.
        """
        p = self._joint(kernels)
        costs = self._costs(p)
        dists = tuple(float(c.min(axis=-1).sum()) for c in costs)
        rate = self._rate(p)
        value = rate + float(np.dot(slopes, dists))
        # Decoder choices for the gradient are the true Bayes argmins, except
        # on zero-mass decoder profiles, where the argmin is arbitrary and an
        # adversarial pick (large penalties) would wall off every unused
        # symbol; there a slightly smoothed joint breaks the tie sensibly.
        smoothed = [(1.0 - 1e-3) * ker + 1e-3 / ker.shape[1] for ker in kernels]
        smoothed_costs = self._costs(self._joint(smoothed))
        argmins = []
        for c_true, c_smooth in zip(costs, smoothed_costs):
            zz = c_true.argmin(axis=-1)
            dead = c_true.max(axis=-1) == 0.0
            if np.any(dead):
                zz = np.where(dead, c_smooth.argmin(axis=-1), zz)
            argmins.append(zz)  # axes (u1..uL, side)

        n_src = self.L + 2
        side = self.src_letters[-1]
        p_u_side = p.sum(axis=tuple(range(n_src - 1)))  # (side, u1..uL)
        ln_p1 = np.log(np.maximum(p_u_side, 1e-300)) + 1.0
        p_side = p_u_side.reshape(p_u_side.shape[0], -1).sum(axis=1)
        ln_ps1 = np.log(np.maximum(p_side, 1e-300)) + 1.0

        grads = []
        for m in range(self.L):
            u_m = self.u_letters[m]
            u_rest = "".join(self.u_letters[l] for l in range(self.L) if l != m)
            y_m = self.src_letters[1 + m]
            p_wo = self._joint(kernels, skip=m)  # axes (src..., u_rest)
            swo = self.src_letters + u_rest
            # d/dK of the mutual information (coefficient matrix, rows y_m).
            d_cross = np.einsum(
                f"{swo},{side}{self.u_letters}->{y_m}{u_m}", p_wo, ln_p1
            )
            d_side = np.einsum(f"{swo},{side}->{y_m}", p_wo, ln_ps1)
            p_ym = np.einsum(f"{swo}->{y_m}", p_wo)
            ln_k1 = np.log(np.maximum(kernels[m], 1e-300)) + 1.0
            coeff = -d_cross + d_side[:, None] + p_ym[:, None] * ln_k1
            # d/dK of each Bayes distortion (decoder of the current point fixed).
            for k in range(self.model.K):
                cost_wo = np.einsum(
                    f"{swo},{self.src_letters}z->{y_m}{u_rest}{side}z",
                    p_wo,
                    self.model.distortions[k],
                )
                zz = np.moveaxis(argmins[k], m, 0)  # (u_m, u_rest..., side)
                picked = np.take_along_axis(
                    cost_wo[None, ...],
                    zz[(slice(None), None) + (Ellipsis, None)],
                    axis=-1,
                )[..., 0]
                c_k = picked.sum(axis=tuple(range(2, self.L + 2))).T  # (y_m, u_m)
                coeff = coeff + slopes[k] * c_k
            grads.append(coeff)
        return value, grads, rate, dists

    def bayes_decoder(self, kernels) -> Channel:
        p = self._joint(kernels)
        choices = [c.argmin(axis=-1) for c in self._costs(p)]  # (u1..uL, side)
        side_size = self.model.joint.size_of(f"Y{self.L + 1}")
        rep = self.model.reproduction_sizes

        def decode(*args):
            us = args[: self.L]
            y_side = args[self.L]
            zs = [int(choices[k][us + (y_side,)]) for k in range(self.model.K)]
            return int(np.ravel_multi_index(zs, rep))

        inputs = tuple((f"U{l}", self.cards[l - 1]) for l in range(1, self.L + 1)) + (
            (f"Y{self.L + 1}", side_size),
            ("T", 1),
        )
        return Channel.deterministic(inputs, ("Z", self.model.z_size), decode)

    def as_aux_system(self, kernels) -> AuxSystem:
        wt = JointPmf((("W", 1), ("T", 1)), np.array([1.0]))
        encoders = tuple(
            Channel(
                ((f"Y{l}", self.y_sizes[l - 1]), ("W", 1), ("T", 1)),
                (f"U{l}", self.cards[l - 1]),
                kernels[l - 1],
            )
            for l in range(1, self.L + 1)
        )
        return AuxSystem(wt, encoders, self.bayes_decoder(kernels))


class _SearchState:
    """Budget accounting plus the best feasible point seen so far."""

    def __init__(self, caps, budget):
        self.caps = caps
        self.budget = budget
        self.evals = 0
        self.feasible = False
        self.sum_rate = float("inf")
        self.kernels = None

    def note(self, rate, dists, kernels):
        self.evals += 1
        if all(d <= c + FEASIBILITY_SLACK for d, c in zip(dists, self.caps)) and (
            rate < self.sum_rate - 1e-12
        ):
            self.feasible = True
            self.sum_rate = rate
            self.kernels = [k.copy() for k in kernels]

    @property
    def exhausted(self):
        return self.evals >= self.budget


def _md_minimize(evaluator, kernels, slopes, state, max_iters=150, tol=1e-12):
    """Mirror descent (exponentiated gradient) on rate + slopes . dists over
    the product of row simplices: K <- K exp(-t G) renormalized per row.

    The multiplicative geometry matches the entropy terms: the boundary log
    singularities that defeat Euclidean steps become plain exponential
    factors, row-constant gradient offsets cancel in the normalization, and
    large-penalty pushes drive forbidden symbols to (exactly) zero mass.
    Every model evaluation reports to ``state``.
    """
    value, grads, rate, dists = evaluator.lagrangian_grad(kernels, slopes)
    state.note(rate, dists, kernels)
    step = 1.0
    for _ in range(max_iters):
        if state.exhausted:
            break
        accepted = False
        v_cand = value
        for _bt in range(60):
            if state.exhausted:
                break
            cand = []
            for k_mat, g_mat in zip(kernels, grads):
                logs = np.clip(-step * g_mat, -700.0, 700.0)
                nxt = k_mat * np.exp(logs)
                total = nxt.sum(axis=1, keepdims=True)
                # A fully underflowed row falls back to its previous value.
                bad = total[:, 0] <= 0.0
                if np.any(bad):
                    nxt[bad] = k_mat[bad]
                    total = nxt.sum(axis=1, keepdims=True)
                cand.append(nxt / total)
            move = sum(float(np.abs(c - k).sum()) for c, k in zip(cand, kernels))
            if move <= 1e-15:
                break
            v_cand, rate_c, dists_c = evaluator.lagrangian_value(cand, slopes)
            state.note(rate_c, dists_c, cand)
            if v_cand <= value - 1e-6 * move:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        improvement = value - v_cand
        kernels, value = cand, v_cand
        step = min(step * 1.6, 1e8)
        value, grads, rate, dists = evaluator.lagrangian_grad(kernels, slopes)
        state.note(rate, dists, kernels)
        if improvement <= tol * max(1.0, abs(value)):
            break
    _, rate, dists = evaluator.lagrangian_value(kernels, slopes)
    state.note(rate, dists, kernels)
    return kernels, dists


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
    kernels, dists = _md_minimize(
        evaluator, soften(kernels), slopes, state, max_iters=iters
    )
    anchor = [k.copy() for k in kernels]
    for _ in range(rounds):
        if state.exhausted:
            break
        feasible_now = all(
            d <= c + FEASIBILITY_SLACK for d, c in zip(dists, state.caps)
        )
        if feasible_now:
            anchor = [k.copy() for k in kernels]
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
        kernels, dists = _md_minimize(
            evaluator, soften(anchor), slopes, state, max_iters=iters // 2
        )
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
        if not state.feasible:
            continue
        if best is None or state.sum_rate < best.sum_rate - 1e-12:
            best_idx, best = i, state
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
    gamma = evaluator.as_aux_system(best.kernels)
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
