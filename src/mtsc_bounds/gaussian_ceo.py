"""Closed-form machinery for the Gaussian CEO problem.

A hidden Gaussian source Y0 with variance sigma^2 is observed through L
independent additive Gaussian noise channels Y_l = Y0 + N_l, Var(N_l) =
sigma_l^2 > 0, and reproduced under squared error.  The rate region is
parametrized by a witness vector r of per-encoder noise-information rates:
(R, D) belongs to the region iff there is r >= 0 with, for every subset A,

    sum_{l in A} R_l >= (1/2) log+ [ (1/D) (1/sigma^2
                        + sum_{l in A^c} (1 - e^{-2 r_l}) / sigma_l^2)^{-1} ]
                        + sum_{l in A} r_l,

where log+ x = max(log x, 0).  The empty subset gives the distortion
feasibility condition on r.  All mutual informations used here come from
closed-form log-determinant expressions of the specific constructions, never
numeric integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InfeasibleError
from .prob import _whole
from .regions import RatePoint

MEMBERSHIP_SLACK = 1e-12
LOOSENESS_MARGIN = 0.04  # nats below (3/2) log 2 that the construction reaches


@dataclass(frozen=True)
class GaussianParams:
    """Source variance and per-encoder noise variances (all strictly positive)."""

    sigma2: float
    noise_vars: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "noise_vars", tuple(float(v) for v in self.noise_vars))
        if not 0.0 < self.sigma2 < math.inf:
            raise InfeasibleError(f"sigma2 must be finite and > 0, got {self.sigma2}")
        if not all(0.0 < v < math.inf for v in self.noise_vars):
            raise InfeasibleError(
                f"every noise variance must be finite and > 0, got {self.noise_vars}"
            )
        if not self.noise_vars:
            raise InfeasibleError("need at least one encoder")

    @property
    def L(self) -> int:
        return len(self.noise_vars)

    @property
    def d_min(self) -> float:
        """Smallest achievable distortion (all observations, infinite rate)."""
        return 1.0 / (1.0 / self.sigma2 + sum(1.0 / v for v in self.noise_vars))


def _subset_bound(params: GaussianParams, r: Sequence[float], D: float, mask: int) -> float:
    inv = 1.0 / params.sigma2
    total = 0.0
    for l in range(params.L):
        if mask & (1 << l):
            total += r[l]
        else:
            inv += (1.0 - math.exp(-2.0 * r[l])) / params.noise_vars[l]
    # log+ of 1 / (D inv) as a difference of logs: the product can over- or underflow.
    return 0.5 * max(-math.log(D) - math.log(inv), 0.0) + total


def gaussian_region_contains(
    params: GaussianParams, point: RatePoint, r: Sequence[float]
) -> bool:
    """True iff every subset constraint holds for this witness r.

    The empty subset is included: it is the feasibility condition that r
    explains distortion D at all.  Slack tolerance 1e-12.
    """
    r = tuple(float(v) for v in r)
    if len(r) != params.L or not all(v >= 0.0 for v in r):
        raise ValueError(f"need {params.L} nonnegative witness rates, got {r}")
    if len(point.rates) != params.L:
        raise ValueError(f"need {params.L} rates, got {len(point.rates)}")
    D = point.distortions[0]
    if not 0.0 < D < math.inf:
        raise InfeasibleError(f"need finite D > 0, got {D}")
    for mask in range(1 << params.L):
        lhs = sum(point.rates[l] for l in range(params.L) if mask & (1 << l))
        if lhs < _subset_bound(params, r, D, mask) - MEMBERSHIP_SLACK:
            return False
    return True


def gaussian_min_sum_rate(params: GaussianParams, D: float) -> float:
    """Minimum sum rate of the region at distortion D.

    Minimizes (1/2) log+ (sigma^2 / D) + sum_l r_l over witnesses r >= 0
    subject to feasibility sum_l (1 - x_l) / sigma_l^2 >= theta, where
    x_l = e^{-2 r_l} and theta = 1/D - 1/sigma^2.  In x the objective
    -(1/2) sum_l log x_l is convex and the constraint linear, so the KKT
    conditions suffice: the constraint is tight and x_l = min(1, c sigma_l^2)
    for one c > 0 (the inverse of twice its multiplier).  The active
    encoders (x_l < 1) are thus the k least noisy, and tightness gives
    c = (sum_{l <= k} 1/sigma_l^2 - theta) / k, where k is the first count
    with k = L or c sigma_{k+1}^2 >= 1.  Logs of products and ratios are
    taken as sums and differences, so none overflows first.  Returns 0 for
    D >= sigma^2; D at or below the distortion floor is infeasible.  Near
    the floor c is a difference of nearly equal sums, and its rounding
    error, about (k + 4) u / D, can flip its sign.  Where c k D <= 1e-12,
    c and k are found again in exact rational arithmetic on the same float
    inputs, and D is refused only if the exact c is not positive.
    """
    if not math.isfinite(D):
        raise ValueError(f"D must be a number and finite, got {D}")
    if D <= params.d_min:
        raise InfeasibleError(f"D={D} is at or below the distortion floor {params.d_min}")
    if D >= params.sigma2:
        return 0.0
    vs = sorted(params.noise_vars)
    c, k = _water_level(1.0 / D - 1.0 / params.sigma2, vs)
    if c * k * D > 1e-12:
        log_c = math.log(c)
    else:
        exact = [Fraction(v) for v in vs]
        c, k = _water_level(1 / Fraction(D) - 1 / Fraction(params.sigma2), exact)
        if c <= 0:
            raise InfeasibleError(f"D={D} is within rounding of the distortion floor {params.d_min}")
        log_c = math.log(c.numerator) - math.log(c.denominator)
    rates = (max(0.0, -0.5 * (log_c + math.log(v))) for v in vs[:k])
    return 0.5 * (math.log(params.sigma2) - math.log(D)) + sum(rates)


def _water_level(theta, vs):
    """c and the active count k of ``gaussian_min_sum_rate`` for the sorted
    noise variances ``vs``, in the number type of ``theta`` and ``vs``."""
    total = 0
    for k, v in enumerate(vs, 1):
        total += 1 / v
        c = (total - theta) / k
        if k == len(vs) or c * vs[k] >= 1:
            break
    return c, k


# ---------------------------------------------------------------------------
# The single-letter inequality linking source information to noise information
# ---------------------------------------------------------------------------


def oohama_gap(params: GaussianParams, q: Sequence[float], A: Iterable[int]) -> float:
    """Right minus left side of the inequality

        exp(2 I(Y0; U_A)) <= 1 + sum_{l in A} (1 - exp(-2 I(Y_l; U_l | Y0)))
                                               / (sigma_l^2 / sigma^2)

    for the scalar Gaussian test channels U_l = Y_l + V_l with independent
    noises Var(V_l) = q_l > 0 and trivial shared randomness.  Both sides are
    evaluated in closed form.  The gap is always >= 0; these jointly Gaussian
    test channels attain equality (for singletons trivially, and in fact for
    every subset, which is what makes the region description tight).
    """
    A = tuple(A)  # read once: an iterator is spent by the check
    members = sorted({_whole(l, "A") for l in A})
    if not members or members[0] < 1 or members[-1] > params.L:
        raise ValueError(f"A must be a nonempty subset of 1..{params.L}, got {A}")
    q = tuple(float(v) for v in q)
    if len(q) != params.L or any(not v > 0.0 for v in q):
        raise ValueError(f"need {params.L} positive test-noise variances, got {q}")
    s2 = params.sigma2
    # I(Y0; U_A) from the rank-one-plus-diagonal determinant identity:
    # det(sigma^2 11' + diag(d)) = (prod d_l)(1 + sigma^2 sum 1/d_l).
    d = [params.noise_vars[l - 1] + q[l - 1] for l in members]
    i_source = 0.5 * math.log1p(s2 * sum(1.0 / v for v in d))
    lhs = math.exp(2.0 * i_source)
    rhs = 1.0
    for l in members:
        i_noise = 0.5 * math.log(
            (params.noise_vars[l - 1] + q[l - 1]) / q[l - 1]
        )
        rhs += (1.0 - math.exp(-2.0 * i_noise)) * s2 / params.noise_vars[l - 1]
    return rhs - lhs


# ---------------------------------------------------------------------------
# The looseness construction (two encoders, unit variances)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianCounterexample:
    """Informations of the antithetic-common-noise construction.

    U1 = Y1 + V1 + W and U2 = Y2 + V2 - W with unit-variance V's and
    Var(W) = sigma_w2, on the symmetric problem sigma^2 = sigma_l^2 = 1.
    The MMSE distortion of the decoder is 1/2 independently of sigma_w2,
    while both I(Y1,Y2; U1,U2) and 2 I(Y1,Y2; U1 | U2) drop below the true
    minimum sum rate (3/2) log 2 for suitable sigma_w2 > 0.
    """

    sigma_w2: float
    i_joint: float
    i_cond: float
    distortion: float

    @property
    def classical_outer_sum_rate(self) -> float:
        return max(self.i_joint, 2.0 * self.i_cond)


def gaussian_bt_counterexample(sigma_w2: float) -> GaussianCounterexample:
    """Closed-form evaluation of the construction at a given Var(W) >= 0."""
    if not sigma_w2 >= 0.0:
        raise InfeasibleError(f"need sigma_w2 >= 0, got {sigma_w2}")
    s = float(sigma_w2)
    # Cov(U) = [[3+s, 1-s], [1-s, 3+s]], Cov(U|Y) = [[1+s, -s], [-s, 1+s]].
    det_u = (3.0 + s) ** 2 - (1.0 - s) ** 2
    det_u_given_y = (1.0 + s) ** 2 - s**2
    i_joint = 0.5 * math.log(det_u / det_u_given_y)
    i_y2u2 = 0.5 * math.log((3.0 + s) / (1.0 + s))
    i_cond = i_joint - i_y2u2
    # U1 + U2 = 2 Y0 + (noise of variance 4) is sufficient for Y0.
    cov_y0_sum = 2.0
    var_sum = 4.0 + 4.0
    distortion = 1.0 - cov_y0_sum**2 / var_sum
    return GaussianCounterexample(
        sigma_w2=s, i_joint=i_joint, i_cond=i_cond, distortion=distortion
    )


def search_bt_counterexample() -> GaussianCounterexample:
    """Smallest value of Var(W) on the grid 2/400, 4/400, .., 2 whose
    classical-outer sum rate sits at least ``LOOSENESS_MARGIN`` nats below
    the true minimum (3/2) log 2: Var(W) = 0.095."""
    target = 1.5 * math.log(2.0) - LOOSENESS_MARGIN
    grid = np.linspace(2.0 / 400, 2.0, 400).tolist()
    return next(
        ce for ce in map(gaussian_bt_counterexample, grid) if ce.classical_outer_sum_rate <= target
    )
