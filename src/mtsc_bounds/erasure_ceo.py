"""Closed-form machinery for the binary erasure CEO problem.

A uniform +/-1 source is observed through L independent binary erasure
channels with erasure probability p; the decoder reproduces the source under
the erasure distortion (penalty 1 for an erasure, a large finite penalty for
an error).  The limiting optimal sum rate for target erasure rate D is

    (1 - D) log 2 + L * g(D^{1/L}),      p^L <= D <= 1,

where g(x) = h(x) - (1-p) h((x-p)/(1-p)) on [p, 1] and g = 0 beyond 1 is the
per-encoder noise-information cost.  This module evaluates that formula, the
shape facts about g that the converse rests on (monotonicity, convexity, two
pointwise inequalities), the two-variable convex program whose value must
equal g(D^{1/L}), and the discrete construction showing the classical outer
bound is loose here.  All analytic results are the large-penalty limits; the
error penalty only appears in distortion tables (see mtsc_bounds.model).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleError
from .model import casebook
from .prob import _binary_entropies
from .regions import bt_outer_constraints


@dataclass(frozen=True)
class ErasureParams:
    """Problem parameters; requires 0 < p < 1 and p^L <= D <= 1."""

    p: float
    L: int
    D: float
    lam: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise InfeasibleError(f"need 0 < p < 1, got p={self.p}")
        if self.L < 1:
            raise InfeasibleError(f"need L >= 1, got L={self.L}")
        if not self.p**self.L <= self.D <= 1.0:
            raise InfeasibleError(
                f"need p^L <= D <= 1, got D={self.D} with p^L={self.p ** self.L}"
            )
        if self.lam <= 0.0:
            raise InfeasibleError(f"need lambda > 0, got {self.lam}")


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got p={p}")


def g_function(x: float, p: float) -> float:
    """g(x) = h(x) - (1-p) h((x-p)/(1-p)) for p <= x <= 1, and 0 for x > 1.

    Defined on [p, infinity); continuous at x = 1.  In nats.
    """
    _check_p(p)
    if not x >= p:
        raise ValueError(f"g is defined on [p, inf), got x={x} < p={p}")
    return float(_g_vec(x, p))


def _sum_rate(D: np.ndarray, p: float, L: int) -> np.ndarray:
    """(1 - D) log 2 + L g(D^{1/L}) elementwise, for D in [p^L, 1]."""
    return (1.0 - D) * math.log(2.0) + L * _g_of_root(D, p, L)


def erasure_sum_rate(params: ErasureParams) -> float:
    """The exact limiting optimal sum rate (1-D) log 2 + L g(D^{1/L}), in nats."""
    # A 0-d D would take numpy's scalar power, not the curve's array loop.
    return float(_sum_rate(np.array([params.D]), params.p, params.L)[0])


def sum_rate_curve(p: float, Ls: Sequence[int], n: int) -> list[tuple[float, int, float]]:
    """(D, L, sum rate) triples on an n-point D-grid [p^L, 1] for each L."""
    if n < 2:
        raise ValueError("need at least 2 grid points")
    rows = []
    for L in map(int, Ls):
        ErasureParams(p, L, 1.0)  # validates p and L; the grid lies in [p^L, 1]
        D = np.linspace(p**L, 1.0, n)
        rows += zip(D.tolist(), [L] * n, _sum_rate(D, p, L).tolist())
    return rows


def sum_rate_curve_csv(p: float, Ls: Sequence[int], n: int) -> str:
    """CSV emitter for the sum-rate curve, columns (D, L, sum_rate_nats)."""
    out = io.StringIO()
    out.write("D,L,sum_rate_nats\n")
    for D, L, rate in sum_rate_curve(p, Ls, n):
        out.write(f"{D!r},{L},{rate!r}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# The converse convex program
# ---------------------------------------------------------------------------


def _g_of_root(s: np.ndarray, p: float, L: int) -> np.ndarray:
    """G(s) = g(s^{1/L}) elementwise for s >= p^L; the root is clipped to
    [p, 1], as (p^L)^{1/L} can round below p."""
    x = np.clip(np.asarray(s, float), p**L, 1.0) ** (1.0 / L)
    return _g_vec(np.clip(x, p, 1.0), p)


def _g_vec(x: np.ndarray, p: float) -> np.ndarray:
    """g(x) elementwise for x >= p; 0 beyond 1, where both entropies vanish."""
    return _binary_entropies(x) - (1.0 - p) * _binary_entropies((x - p) / (1.0 - p))


def _g_of_root_grad(s: np.ndarray, p: float, L: int) -> np.ndarray:
    """dG/ds = g'(s^{1/L}) * (1/L) s^{1/L - 1}, with g'(x) = log(1 - p/x).

    The derivative diverges to -inf at s = p^L; x is floored a hair above p
    so iterates sitting exactly on the boundary get a finite descent
    direction (backtracking handles the magnitude).
    """
    s = np.clip(np.asarray(s, float), p**L, 1.0)
    x = np.maximum(s ** (1.0 / L), p * (1.0 + 1e-12))
    return np.log1p(-p / x) * (1.0 / L) * s ** (1.0 / L - 1.0)


def _project_feasible(s: np.ndarray, lo: float, cap: float) -> np.ndarray:
    """Exact projection onto [lo, 1]^2 intersected with {s1 + s2 <= cap}.

    If the box projection satisfies the sum constraint it is the answer;
    otherwise the constraint is active and the projection lies on the
    segment {s1 + s2 = cap} clipped to the box.
    """
    z = np.clip(s, lo, 1.0)
    bad = z.sum(axis=-1) > cap
    if np.any(bad):
        t_lo, t_hi = max(lo, cap - 1.0), min(1.0, cap - lo)
        t = np.clip(0.5 * (s[bad, 0] - s[bad, 1] + cap), t_lo, t_hi)
        z[bad, 0] = t
        z[bad, 1] = cap - t
    return z


def noise_info_minimum(params: ErasureParams, restarts: int = 64, iters: int = 500) -> float:
    """Value of the two-variable converse program; must equal g(D^{1/L}).

    Minimizes (1/2)[g(s_+^{1/L}) + g(s_-^{1/L})] over s_± in [p^L, 1] subject
    to (s_+ + s_-)/2 <= D (the symmetric reduction of the per-encoder
    program, stated in the exponentiated variables s_± = e^{L Δ_±} where the
    distortion constraint is linear).  Solved by projected gradient descent
    with backtracking from ``restarts`` feasible starts: the symmetric point
    (D, D), where g(D^{1/L}) is attained, and random ones.
    """
    p, L, D = params.p, params.L, params.D
    lo, cap = p**L, 2.0 * D
    rng = np.random.default_rng(20240 + L)

    def objective(s):
        return 0.5 * _g_of_root(s, p, L).sum(axis=-1)

    def gradient(s):
        return 0.5 * _g_of_root_grad(s, p, L)

    s = rng.uniform(lo, 1.0, size=(restarts, 2))
    s = _project_feasible(s, lo, cap)
    s[0] = D
    step = np.full(restarts, 0.25)
    f = objective(s)
    checkpoint = f.min()
    for it in range(iters):
        grad = gradient(s)
        for _bt in range(40):
            cand = _project_feasible(s - step[:, None] * grad, lo, cap)
            f_cand = objective(cand)
            bad = f_cand > f + 1e-15
            if not np.any(bad):
                break
            step[bad] *= 0.5
        accept = f_cand <= f
        s[accept] = cand[accept]
        f = np.where(accept, f_cand, f)
        step[accept] *= 1.25
        if np.max(step) < 1e-14:
            break
        if it % 25 == 24:
            best = f.min()
            if checkpoint - best < 1e-13:
                break
            checkpoint = best
    return float(f.min())


# ---------------------------------------------------------------------------
# Shape facts about g
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeReport:
    """Grid evidence that g(e^x) is nonincreasing and convex, with the two
    pointwise inequalities behind the convexity lemma."""

    p: float
    grid_size: int
    max_first_difference: float
    min_second_difference: float
    min_calc1_slack: float
    min_calc2_slack: float

    @property
    def passed(self) -> bool:
        return (
            self.max_first_difference <= 1e-12
            and self.min_second_difference >= -1e-9
            and self.min_calc1_slack >= -1e-10
            and self.min_calc2_slack >= -1e-10
        )


@dataclass(frozen=True)
class RootShapeReport:
    """Grid evidence that g(y^{1/L}) is nonincreasing and convex in y."""

    p: float
    L: int
    grid_size: int
    max_first_difference: float
    min_second_difference: float

    @property
    def passed(self) -> bool:
        return self.max_first_difference <= 1e-12 and self.min_second_difference >= -1e-9


def g_shape_report(p: float, grid_size: int = 10_000) -> ShapeReport:
    """Evaluate g(e^x) on a uniform grid over [log p, 1] and check its shape.

    Also verifies, pointwise on (log p, 0]:
      (1)  e^x log(e^x - p) - x e^x <= -p
      (2)  e^x log(e^x - p) - e^x (x + 1) + e^{2x} / (e^x - p) >= 0
    Returns the worst margins; see ``ShapeReport.passed`` for the thresholds.
    """
    _check_p(p)
    if grid_size < 3:
        raise ValueError("grid_size must be >= 3")
    x = np.linspace(math.log(p), 1.0, grid_size)
    # exp(log p) can round below p, outside the domain of g.
    vals = _g_vec(np.maximum(np.exp(x), p), p)
    first = np.diff(vals)
    second = np.diff(vals, 2)
    xc = math.log(p) + (-math.log(p)) * np.arange(1, grid_size + 1) / grid_size
    ex = np.exp(xc)
    log_exp = np.log(ex - p)
    calc1_slack = -p - (ex * log_exp - xc * ex)
    calc2_slack = ex * log_exp - ex * (xc + 1.0) + ex**2 / (ex - p)
    return ShapeReport(
        p=p,
        grid_size=grid_size,
        max_first_difference=float(first.max()),
        min_second_difference=float(second.min()),
        min_calc1_slack=float(calc1_slack.min()),
        min_calc2_slack=float(calc2_slack.min()),
    )


def g_root_shape_report(
    p: float, L: int, grid_size: int = 10_000, y_max: float = 1.5
) -> RootShapeReport:
    """Check that y -> g(y^{1/L}) is nonincreasing and convex on [p^L, y_max]."""
    _check_p(p)
    if L < 1:
        raise ValueError(f"need L >= 1, got L={L}")
    if grid_size < 3:
        raise ValueError("grid_size must be >= 3")
    vals = _g_of_root(np.linspace(p**L, y_max, grid_size), p, L)
    return RootShapeReport(
        p=p,
        L=L,
        grid_size=grid_size,
        max_first_difference=float(np.diff(vals).max()),
        min_second_difference=float(np.diff(vals, 2).min()),
    )


# ---------------------------------------------------------------------------
# The discrete looseness instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErasureCounterexample:
    """Exact informations of the correlated-(W1, W2) construction (p=1/2, L=2).

    The point (i_cond, i_cond, distortion) lies in the classical outer bound,
    but 2 * i_cond falls short of the true optimal sum rate at this
    distortion: the classical outer bound is loose.
    """

    i_joint: float
    i_cond: float
    distortion: float
    optimal_sum_rate: float

    @property
    def looseness_margin(self) -> float:
        return self.optimal_sum_rate - 2.0 * self.i_cond


def erasure_bt_counterexample() -> ErasureCounterexample:
    """Evaluate the construction exactly on its discrete joint.

    Computes I(Y1,Y2; U1,U2), I(Y1,Y2; U1 | U2), and the erasure rate
    Pr(Z = 0) = 3/5, and checks the sum-rate corollary
    2 * i_cond < optimal sum rate at D = 3/5.  With T and side information
    trivial, the informations are the Berger-Tung outer bounds of {1, 2}, {1}.
    """
    instance = casebook("appendix_c")
    bounds = bt_outer_constraints(instance.model, instance.gamma)
    i_joint, i_cond, distortion = bounds.full_set, bounds.bound([1]), bounds.distortions[0]
    optimal = erasure_sum_rate(ErasureParams(0.5, 2, distortion))
    if not 2.0 * i_cond < optimal:
        raise AssertionError(
            f"sum-rate corollary violated: 2*{i_cond} >= {optimal}"
        )
    return ErasureCounterexample(
        i_joint=i_joint, i_cond=i_cond, distortion=distortion, optimal_sum_rate=optimal
    )
