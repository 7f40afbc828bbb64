"""The Gaussian CEO problem: L encoders observe a hidden unit-variance
Gaussian through independent additive Gaussian noises and the decoder
estimates it under squared error.

The rate region is parametrized by per-encoder noise-information rates r_l.
This script computes minimum sum rates, checks region membership for a
witness, evaluates the single-letter inequality that drives the converse
(scalar Gaussian test channels attain it with equality), and finds the
antithetic-common-noise construction under which the classical outer bound
admits points below the true minimum sum rate.
"""

import math

from mtsc_bounds import (
    GaussianParams,
    RatePoint,
    gaussian_bt_counterexample,
    gaussian_min_sum_rate,
    gaussian_region_contains,
    oohama_gap,
    search_bt_counterexample,
)

LN2 = math.log(2.0)

params = GaussianParams(sigma2=1.0, noise_vars=(1.0, 1.0))
print("Two encoders, unit source and noise variances (SNR 1):")
print(f"  distortion floor (infinite rates) = {params.d_min:.6f}")
rate = gaussian_min_sum_rate(params, 0.5)
print(f"  min sum rate at D = 1/2           = {rate:.9f}  ((3/2) log 2 = {1.5 * LN2:.9f})")

r = (0.5 * LN2, 0.5 * LN2)
tight = RatePoint((0.75 * LN2, 0.75 * LN2), (0.5,))
low = RatePoint((0.70 * LN2, 0.70 * LN2), (0.5,))
print(f"  witness r = (log2/2, log2/2): contains (0.75 log2, 0.75 log2)? "
      f"{gaussian_region_contains(params, tight, r)}")
print(f"                                 contains (0.70 log2, 0.70 log2)? "
      f"{gaussian_region_contains(params, low, r)}\n")

print("Asymmetric noises are solved by water-filling on the witness rates:")
asym = GaussianParams(sigma2=1.5, noise_vars=(0.7, 2.3, 1.1))
for D in (0.5, 0.8, 1.2):
    print(f"  noises (0.7, 2.3, 1.1), D = {D}: min sum rate = "
          f"{gaussian_min_sum_rate(asym, D):.9f}")

print("\nThe converse's single-letter inequality compares the information sent")
print("about the source with the information sent about the observation noise.")
print("Independent scalar Gaussian test channels attain it with equality for")
print("every subset, which is exactly why the region description is tight:")
for A in ((1,), (2,), (1, 2)):
    gap = oohama_gap(params, (1.0, 1.0), A)
    print(f"  subset {A}: right side - left side = {gap:+.2e}")

print("\nAntithetic common noise (U1 = Y1+V1+W, U2 = Y2+V2-W) fools the")
print("classical outer bound: the decoder's distortion stays 1/2 for any")
print("Var(W), but both of its sum-rate constraints sink below (3/2) log 2.")
for s in (0.0, 0.1, 0.2):
    ce = gaussian_bt_counterexample(s)
    print(
        f"  Var(W) = {s:4.2f}: I(Y;U1,U2) = {ce.i_joint:.6f}, "
        f"2 I(Y;U1|U2) = {2 * ce.i_cond:.6f}, distortion = {ce.distortion}"
    )
found = search_bt_counterexample()
print(
    f"  -> at Var(W) = {found.sigma_w2:.3f} the classical bound admits sum rate "
    f"{found.classical_outer_sum_rate:.6f} < {1.5 * LN2:.6f} - 0.04"
)
