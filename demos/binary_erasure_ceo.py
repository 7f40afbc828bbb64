"""The binary erasure CEO problem: sensors observe a fair +/-1 source through
independent erasure channels (think sensors that sleep a fraction p of the
time) and the decoder must reproduce the source with erasure rate at most D
while essentially never erring.

The exact limiting sum rate is (1-D) log 2 + L g(D^{1/L}).  This script
evaluates the formula, verifies it against the improved outer bound computed
on the finite-alphabet model, solves the converse's two-variable convex
program, and reproduces the correlated-selector instance showing the
classical outer bound undershoots the truth.
"""

from mtsc_bounds import (
    ErasureParams,
    casebook,
    erasure_bt_counterexample,
    erasure_sum_rate,
    g_function,
    g_shape_report,
    new_outer_constraints,
    noise_info_minimum,
    optimize_bt_inner_sum_rate,
    sum_rate_curve,
)

P, L, D = 0.5, 2, 0.6
params = ErasureParams(P, L, D)
closed = erasure_sum_rate(params)
print(f"p = {P}, L = {L}, target erasure rate D = {D}")
print(f"  closed-form optimal sum rate      = {closed:.9f} nats")

inst = casebook("erasure", p=P, L=L, D=D)
constraints = new_outer_constraints(inst.model, inst.x, inst.gamma)
print(f"  improved outer bound, full set    = {constraints.full_set:.9f} nats")
print(f"  achieved distortion of the system = {constraints.distortions[0]:.12f}")

res = optimize_bt_inner_sum_rate(inst.model, [D], [3, 3], budget=8000, seed=0)
print(f"  inner-bound search (achievable)   = {res.sum_rate:.9f} nats")
print("  -> inner and outer meet: the sum rate is settled exactly.\n")

print("The converse rests on a two-variable convex program whose value must")
print("equal the per-encoder noise-information cost g(D^{1/L}):")
program = noise_info_minimum(params)
print(f"  program value = {program:.9f},  g(D^(1/L)) = {g_function(D ** (1 / L), P):.9f}")

report = g_shape_report(P)
print(
    "  shape checks: worst first difference "
    f"{report.max_first_difference:.1e}, worst second difference "
    f"{report.min_second_difference:.1e}, pointwise slacks "
    f"{report.min_calc1_slack:.1e} / {report.min_calc2_slack:.1e} -> passed={report.passed}\n"
)

print("Correlated on/off selectors make the classical outer bound undershoot:")
ce = erasure_bt_counterexample()
print(f"  I(Y;U1,U2)    = {ce.i_joint:.9f} nats")
print(f"  I(Y;U1|U2)    = {ce.i_cond:.9f} nats")
print(f"  Pr(Z = 0)     = {ce.distortion}")
print(f"  classical outer bound admits sum rate 2 x {ce.i_cond:.6f} = {2 * ce.i_cond:.6f}")
print(f"  true optimum at the same distortion  = {ce.optimal_sum_rate:.6f}")
print(f"  -> looseness margin = {ce.looseness_margin:.6f} nats\n")

print("Sum rate versus D for p = 1/2 (the more sensors, the cheaper):")
for L_curve in (1, 2, 3, 10):
    rows = sum_rate_curve(P, (L_curve,), 6)
    pts = "  ".join(f"D={d:.2f}:{r:.4f}" for d, _, r in rows)
    print(f"  L = {L_curve:2d}:  {pts}")
