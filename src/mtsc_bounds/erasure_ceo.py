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

from .model import _erasure_params, casebook
from .prob import _binary_entropies, _refuse_over_cap, _whole
from .regions import bt_outer_constraints


@dataclass(frozen=True)
class ErasureParams:
    """Problem parameters, checked by ``model._erasure_params``."""

    p: float
    L: int
    D: float

    def __post_init__(self):
        object.__setattr__(self, "L", _erasure_params(self.p, self.L, self.D))


def g_function(x: float, p: float) -> float:
    """g(x) = h(x) - (1-p) h((x-p)/(1-p)) for p <= x <= 1, and 0 for x > 1.

    Defined on [p, infinity); continuous at x = 1.  In nats.
    """
    _erasure_params(p)
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
    """(D, L, sum rate) triples on an n-point D-grid [p^L, 1] for each L;
    refused over the table cap before any grid is built."""
    n = _whole(n, "n")
    if n < 2:
        raise ValueError("need at least 2 grid points")
    _refuse_over_cap(n * len(Ls), "sum-rate curve")
    rows = []
    for L in Ls:
        L = _erasure_params(p, L)  # the grid lies in [p^L, 1]
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
    """G(s) = g(s^{1/L}) elementwise for s >= p^L, at every L.  With
    a = log(s) / L, e = 1 - s^{1/L} = -expm1(a) and d = e / (1 - p), the
    e log e terms of the two entropies cancel, so near s^{1/L} = 1 no nearly
    equal entropies are subtracted: g = -(1-e) a - e log(1-p) + (1-p-e) log1p(-d).
    a is at least log p, as p^L can underflow to 0 and (p^L)^{1/L} round
    below p; where d rounds to 1 or above the last term is 0."""
    s = np.minimum(np.maximum(np.asarray(s, float), p**L), 1.0)
    a = np.maximum(np.log(s, out=np.full(s.shape, -np.inf), where=s > 0.0) / L, math.log(p))
    e = -np.expm1(a)
    d = e / (1.0 - p)
    tail = np.log1p(-d, out=np.zeros(s.shape), where=d < 1.0)
    return -(1.0 - e) * a - e * math.log1p(-p) + (1.0 - p - e) * tail


def _g_vec(x: np.ndarray, p: float) -> np.ndarray:
    """g(x) elementwise for x >= p; 0 beyond 1, where both entropies vanish."""
    return _binary_entropies(x) - (1.0 - p) * _binary_entropies((x - p) / (1.0 - p))


def noise_info_minimum(params: ErasureParams) -> float:
    """Value of the two-variable converse program; must equal g(D^{1/L}).

    The program minimizes (1/2)[G(s_+) + G(s_-)], with G(s) = g(s^{1/L}),
    over s_± in [p^L, 1] subject to (s_+ + s_-)/2 <= D: the symmetric
    reduction of the per-encoder program, stated in the exponentiated
    variables s_± = e^{L Δ_±} where the distortion constraint is linear.
    G is nonincreasing, so a minimizer spends the whole budget,
    s_+ + s_- = 2D, and by symmetry s_+ = t <= D.  What is left is one
    variable, t in [max(p^L, 2D - 1), D], and the objective
    (1/2)[G(t) + G(2D - t)].  It is searched on a 201-point grid over the
    whole segment, then zoomed 8 times to one grid step either side of the
    best point, clipped to the segment; the smallest value seen is returned.
    The first grid spans the segment, so convexity is checked numerically,
    not assumed.  Deterministic: no random starts, no seed.
    """
    p, L, D = params.p, params.L, params.D
    a, b = max(p**L, 2.0 * D - 1.0), D
    lo, hi, best = a, b, math.inf
    ramp, s = np.arange(201.0), np.empty(402)  # s holds t, then 2D - t
    t = s[:201]
    for _ in range(9):  # the whole segment, then 8 zooms
        step = (hi - lo) / 200
        if step:  # np.linspace(lo, hi, 201), bit for bit
            np.multiply(ramp, step, out=t)
            t += lo
            t[-1] = hi
        else:  # a segment of a few subnormals, or of one point
            t[:] = np.linspace(lo, hi, 201)
        np.subtract(2.0 * D, t, out=s[201:])
        g = _g_of_root(s, p, L)  # G at t and at 2D - t in one call
        f = 0.5 * (g[:201] + g[201:])
        i = int(np.argmin(f))
        best = min(best, float(f[i]))
        lo, hi = max(a, t[i] - step), min(b, t[i] + step)
    return best


# ---------------------------------------------------------------------------
# Shape facts about g
# ---------------------------------------------------------------------------


SHAPE_GRID = 10_000  # points on the grid of each shape report


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


def g_shape_report(p: float) -> ShapeReport:
    """Evaluate g(e^x) on a uniform 10,000-point grid over [log p, 1] and
    check its shape.

    Also verifies, pointwise on (log p, 0]:
      (1)  e^x log(e^x - p) - x e^x <= -p
      (2)  e^x log(e^x - p) - e^x (x + 1) + e^{2x} / (e^x - p) >= 0
    Returns the worst margins; see ``ShapeReport.passed`` for the thresholds.
    """
    _erasure_params(p)
    x = np.linspace(math.log(p), 1.0, SHAPE_GRID)
    # exp(log p) can round below p, outside the domain of g.
    vals = _g_vec(np.maximum(np.exp(x), p), p)
    first = np.diff(vals)
    second = np.diff(vals, 2)
    xc = math.log(p) + (-math.log(p)) * np.arange(1, SHAPE_GRID + 1) / SHAPE_GRID
    ex = np.exp(xc)
    log_exp = np.log(ex - p)
    calc1_slack = -p - (ex * log_exp - xc * ex)
    calc2_slack = ex * log_exp - ex * (xc + 1.0) + ex**2 / (ex - p)
    return ShapeReport(
        p=p,
        grid_size=SHAPE_GRID,
        max_first_difference=float(first.max()),
        min_second_difference=float(second.min()),
        min_calc1_slack=float(calc1_slack.min()),
        min_calc2_slack=float(calc2_slack.min()),
    )


def g_root_shape_report(p: float, L: int) -> RootShapeReport:
    """Check that y -> g(y^{1/L}) is nonincreasing and convex on a uniform
    10,000-point grid over [p^L, 1.5]."""
    L = _erasure_params(p, L)
    vals = _g_of_root(np.linspace(p**L, 1.5, SHAPE_GRID), p, L)
    return RootShapeReport(
        p=p,
        L=L,
        grid_size=SHAPE_GRID,
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
