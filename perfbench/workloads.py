"""The benchmark's four workloads: their inputs, timed operations and checks.

Each workload is a pair of functions.  ``setup(mb, workdir, rng)`` builds the
inputs (casebook instances and seeded sources, written to and read back from
JSON the way ``mtsc info --dump`` writes them) and is timed as set-up.
``ops(mb, state, rng)`` turns them into a list of :class:`Op`; only each
``Op.call`` is timed.  ``mb`` is the imported ``mtsc_bounds`` package, so the
benchmark drives the program through its public functions and in-process
``mtsc_bounds.cli.main(argv)`` only.

Every operation's output is checked.  Three kinds of reference are used:

* closed forms computed here, independently of the package (the erasure sum
  rate, g(D^{1/L}), the Gaussian water-filling sum rate, entropies of the
  seeded binary source);
* values recorded in ``reference.json`` by ``record.py`` at a commit whose
  numbers are trusted, compared at 1e-12 (or at print resolution where the
  CLI prints 9 significant digits);
* for the recorded known defects, the exception type the operation raised.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

LN2 = math.log(2.0)
ERASURE_P = 0.5
ERASURE_D = 0.6
WIDE_L = 11  # binary-CEO sources: 2^11 observation cells, 2,047 masks
WIDE_SOURCES = 6
VERTEX_L = 8
VERTEX_ORDERS = 3


@dataclass
class Op:
    """One timed call into the package and how its output is checked.

    ``digest`` turns the call's result into plain JSON values (untimed);
    ``check`` returns the problems found against independent references;
    ``compare``, when set, compares the digest with the recorded reference.
    ``env`` is set around the call only; ``tag`` labels traced spans.
    """

    name: str
    call: Callable[[], Any]
    digest: Callable[[Any], dict]
    check: Callable[[dict], list[str]] = lambda values: []
    compare: Optional[Callable[[dict, dict], list[str]]] = None
    env: dict = field(default_factory=dict)
    tag: str = ""


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def h(x: float) -> float:
    """Binary entropy in nats, written out here so it is not the package's."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def g_closed(x: float, p: float) -> float:
    return 0.0 if x >= 1.0 else h(x) - (1.0 - p) * h((x - p) / (1.0 - p))


def erasure_closed(p: float, L: int, D: float) -> float:
    """(1 - D) log 2 + L g(D^{1/L}), the erasure CEO sum rate."""
    return (1.0 - D) * LN2 + L * g_closed(D ** (1.0 / L), p)


def near(what: str, value: float, reference: float, tol: float) -> list[str]:
    if abs(value - reference) <= tol:
        return []
    return [f"{what}: {value!r} differs from {reference!r} by {value - reference:.3e} > {tol:g}"]


def compare_at(tol: float) -> Callable[[Any, Any], list[str]]:
    """Recursive comparison of plain values, floats within ``tol``."""

    def compare(values, reference, path="") -> list[str]:
        if isinstance(reference, dict):
            if not isinstance(values, dict) or set(values) != set(reference):
                return [f"{path or 'value'}: keys differ from the reference"]
            return [p for k in reference for p in compare(values[k], reference[k], f"{path}.{k}")]
        if isinstance(reference, list):
            if not isinstance(values, list) or len(values) != len(reference):
                return [f"{path}: length differs from the reference"]
            return [p for i, (v, r) in enumerate(zip(values, reference)) for p in compare(v, r, f"{path}[{i}]")]
        if isinstance(reference, float) and not isinstance(values, bool):
            return near(path, float(values), reference, tol)
        return [] if values == reference else [f"{path}: {values!r} != reference {reference!r}"]

    return compare


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def compare_printed(values: dict, reference: dict) -> list[str]:
    """Compare CLI text line by line; numbers within the 9 printed digits."""
    got, want = values["lines"], reference["lines"]
    if len(got) != len(want):
        return [f"printed {len(got)} lines, reference has {len(want)}"]
    problems = []
    for i, (a, b) in enumerate(zip(got, want)):
        if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
            problems.append(f"line {i}: {a!r} != reference {b!r}")
            continue
        for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            x, y = float(x), float(y)
            if abs(x - y) > 1e-8 * max(abs(x), abs(y)) + 1e-12:
                problems.append(f"line {i}: {x!r} != reference {y!r}")
    return problems


def exit_ok(values: dict) -> list[str]:
    return [] if values["exit"] == 0 else [f"exit code {values['exit']}"]


def run_cli(mb, argv: list[str]) -> tuple[int, str]:
    """In-process ``mtsc`` call; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = mb.cli.main(argv)
    return rc, out.getvalue()


def dump_casebook(mb, prefix: str, name: str, **params) -> None:
    argv = ["info", "--dump", name, "--out", prefix]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    rc, _ = run_cli(mb, argv)
    if rc != 0:
        raise RuntimeError(f"mtsc {' '.join(argv)} exited {rc}")


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def read_instance(mb, prefix: str):
    return (
        mb.SourceModel.from_json(read_json(prefix + ".model.json")),
        mb.AuxSystem.from_json(read_json(prefix + ".gamma.json")),
        mb.XChannel.from_json(read_json(prefix + ".x.json")),
    )


def bounds_by_label(constraints) -> dict:
    return {label(m, constraints.L): v for m, v in sorted(constraints.subset_bounds.items())}


def label(mask: int, L: int) -> str:
    """The CLI's text form of a subset mask, e.g. 0b011 for {1, 2}."""
    return format(mask, f"#0{L + 2}b")


def full_label(L: int) -> str:
    return label((1 << L) - 1, L)


# ---------------------------------------------------------------------------
# bounds_large: few masks over the largest dense joints, through the CLI
# ---------------------------------------------------------------------------

LARGE_CASES = ((5, ("new-outer", "bt-outer", "bt-inner")), (6, ("bt-inner", "bt-outer")))


def setup_bounds_large(mb, workdir, rng):
    prefixes = {}
    for L, _ in LARGE_CASES:
        prefixes[L] = os.path.join(workdir, f"erasure_L{L}")
        dump_casebook(mb, prefixes[L], "erasure", p=ERASURE_P, L=L, D=ERASURE_D)
    return prefixes


def _read_output(path: str, read):
    """Read a CLI output file and remove it, so the next pass writes a new
    file rather than rewriting this one."""
    try:
        return read(path)
    finally:
        os.remove(path)


def _read_bounds_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        return {row["subset"]: float(row["bound"]) for row in csv.DictReader(fh)}


def ops_bounds_large(mb, prefixes, rng):
    ops = []
    for L, kinds in LARGE_CASES:
        prefix = prefixes[L]
        closed = erasure_closed(ERASURE_P, L, ERASURE_D)
        for kind in kinds:
            out = f"{prefix}.{kind}.csv"
            argv = ["bounds", "--model", prefix + ".model.json", "--gamma", prefix + ".gamma.json",
                    "--kind", kind, "--format", "csv", "--out", out]
            if kind == "new-outer":
                argv += ["--x", prefix + ".x.json"]

            def digest(result, out=out):
                return {"exit": result[0], "bounds": _read_output(out, _read_bounds_csv)}

            def check(v, L=L, closed=closed):
                full = v["bounds"].get(full_label(L), math.nan)
                return exit_ok(v) + near("full set vs erasure sum rate", full, closed, 1e-9)

            ops.append(Op(f"bounds erasure L={L} {kind}", lambda argv=argv: run_cli(mb, argv),
                          digest, check, compare_at(1e-12)))
    return ops


# ---------------------------------------------------------------------------
# bounds_wide: many masks or many calls, all over small joints
# ---------------------------------------------------------------------------

SMALL_CASES = (
    ("toy", {}, ("bt-outer", "new-outer")),
    ("toy_bt_gamma", {}, ("bt-inner", "bt-outer", "new-outer")),
    ("appendix_c", {}, ("bt-outer", "new-outer")),
) + tuple(
    ("erasure", {"p": ERASURE_P, "L": L, "D": D}, ("bt-inner", "bt-outer", "new-outer"))
    for L in (2, 3)
    for D in (0.3, 0.6, 0.9)
)


def binary_ceo_source(mb, eps):
    """Y0 a uniform bit, Y_l = Y0 xor N_l with P(N_l = 1) = eps[l-1], no side
    information, Hamming distortion on a binary reproduction."""
    L = len(eps)
    joint = mb.JointPmf((("Y0", 2),), np.array([0.5, 0.5]))
    for l, e in enumerate(eps, start=1):
        rows = np.array([[1.0 - e, e], [e, 1.0 - e]])
        joint = joint.extend(mb.Channel((("Y0", 2),), (f"Y{l}", 2), rows))
    joint = joint.product(mb.JointPmf(((f"Y{L + 1}", 1),), np.array([1.0])))
    d = np.zeros(joint.shape + (2,))
    d[0, ..., 1] = 1.0
    d[1, ..., 0] = 1.0
    return mb.SourceModel(L, 1, joint, (d,), (2,))


def setup_bounds_wide(mb, workdir, rng):
    eps = [rng.uniform(0.05, 0.45, WIDE_L) for _ in range(WIDE_SOURCES)] + [rng.uniform(0.05, 0.45, VERTEX_L)]
    models = []
    for k, e in enumerate(eps[:WIDE_SOURCES]):
        path = os.path.join(workdir, f"binary_ceo{k}.model.json")
        with open(path, "w") as fh:
            json.dump(binary_ceo_source(mb, e).to_json(), fh)
        models.append(mb.SourceModel.from_json(read_json(path)))
    small = []
    for i, (name, params, kinds) in enumerate(SMALL_CASES):
        prefix = os.path.join(workdir, f"small{i}")
        dump_casebook(mb, prefix, name, **params)
        small.append((name, params, kinds, read_instance(mb, prefix)))
    return {"eps": eps, "models": models, "small": small}


def slepian_wolf_reference(eps) -> dict[int, float]:
    """H(Y_A | Y_{A^c}) for every mask, from the product form of the source."""
    L = len(eps)
    table = np.zeros((2,) * L)
    for y0 in (0, 1):
        term = np.full((2,) * L, 0.5)
        for l, e in enumerate(eps):
            shape = [1] * L
            shape[l] = 2
            p_y = np.array([1.0 - e, e] if y0 == 0 else [e, 1.0 - e])
            term = term * p_y.reshape(shape)
        table += term

    def H(t):
        m = t.reshape(-1)
        m = m[m > 0.0]
        return float(-(m * np.log(m)).sum())

    h_all = H(table)
    out = {}
    for mask in range(1, 1 << L):
        members = tuple(l for l in range(L) if mask & (1 << l))
        out[mask] = h_all - (H(table.sum(axis=members)) if len(members) < L else 0.0)
    return out


def _evaluate(mb, kind, model, gamma, x):
    if kind == "bt-inner":
        return mb.bt_inner_constraints(model, gamma)
    if kind == "bt-outer":
        return mb.bt_outer_constraints(model, gamma)
    return mb.new_outer_constraints(model, x, gamma)


def ops_bounds_wide(mb, state, rng):
    refs = [slepian_wolf_reference(e) for e in state["eps"]]
    ops = []
    for k, (model, ref) in enumerate(zip(state["models"], refs)):
        def sw_check(v, ref=ref):
            return [p for m, r in ref.items() for p in near(f"H(Y_A|Y_Ac) {m:#b}", v["bounds"][label(m, WIDE_L)], r, 1e-12)]

        ops.append(Op(f"slepian_wolf binary_ceo L={WIDE_L} source {k}", lambda model=model: mb.slepian_wolf_bounds(model),
                      lambda c: {"bounds": bounds_by_label(c)}, sw_check))
    wide_region = mb.RegionConstraints(WIDE_L, 1, refs[0], (0.0,))
    ops.append(Op(f"check_supermodular binary_ceo L={WIDE_L} source 0", lambda: mb.check_supermodular(wide_region),
                  lambda r: {"returned": r}, lambda v: [] if v["returned"] is None else ["returned a value"]))
    # Each vertex checks supermodularity again; on a smaller region, so that
    # the O(4^L) pair loop is timed once per pass, not once per vertex.
    vertex_ref = refs[WIDE_SOURCES]
    vertex_region = mb.RegionConstraints(VERTEX_L, 1, vertex_ref, (0.0,))
    for k in range(VERTEX_ORDERS):
        order = tuple(int(l) for l in rng.permutation(np.arange(1, VERTEX_L + 1)))

        def vertex_check(v, order=order):
            problems, prefix, prev = [], 0, 0.0
            for l in order:
                prefix |= 1 << (l - 1)
                problems += near(f"R_{l}", v["rates"][l - 1], vertex_ref[prefix] - prev, 1e-12)
                prev = vertex_ref[prefix]
            return problems

        ops.append(Op(f"vertex binary_ceo L={VERTEX_L} order {k}",
                      lambda order=order: mb.contrapolymatroid_vertex(vertex_region, order),
                      lambda point, order=order: {"order": list(order), "rates": list(point.rates)},
                      vertex_check))
    for name, params, kinds, (m, gamma, x) in state["small"]:
        case = name + "".join(f" {k}={v}" for k, v in params.items())
        for kind in kinds:
            def check(v, name=name, params=params):
                if name != "erasure":
                    return []
                full = v["bounds"][full_label(params["L"])]
                return near("full set vs erasure sum rate", full, erasure_closed(**params), 1e-9)

            ops.append(Op(f"{kind} {case}", lambda kind=kind, m=m, gamma=gamma, x=x: _evaluate(mb, kind, m, gamma, x),
                          lambda c: {"bounds": bounds_by_label(c), "distortions": list(c.distortions)},
                          check, compare_at(1e-12)))
    return ops


# ---------------------------------------------------------------------------
# optimize: the test-channel search, with and without its thread pool
# ---------------------------------------------------------------------------

OPTIMIZE_CASES = ((2, 10_000), (3, 4_000))  # (L, budget); |U_l| = 3, seed 1
OPTIMIZE_DS = (0.4, 0.6, 0.8)


def setup_optimize(mb, workdir, rng):
    prefixes = {}
    for L, _ in OPTIMIZE_CASES:
        prefixes[L] = os.path.join(workdir, f"erasure_L{L}")
        dump_casebook(mb, prefixes[L], "erasure", p=ERASURE_P, L=L, D=ERASURE_D)
    return prefixes


def ops_optimize(mb, prefixes, rng):
    ops = []
    for threads in (1, 2):
        for L, budget in OPTIMIZE_CASES:
            for D in OPTIMIZE_DS:
                out = f"{prefixes[L]}.opt{threads}.json"
                argv = ["optimize", "--model", prefixes[L] + ".model.json", "--caps", repr(D),
                        "--cardinalities", ",".join(["3"] * L), "--budget", str(budget),
                        "--seed", "1", "--out", out]
                closed = erasure_closed(ERASURE_P, L, D)

                def digest(result, out=out, closed=closed):
                    payload = _read_output(out, read_json)
                    rate = payload["sum_rate_nats"]
                    return {
                        "exit": result[0],
                        "feasible": payload["feasible"],
                        "sum_rate_nats": rate,
                        "gap_nats": None if rate is None else rate - closed,
                        "distortions": payload["distortions"],
                        "evaluations": payload["evaluations"],
                    }

                def check(v, D=D, closed=closed):
                    problems = exit_ok(v)
                    if not v["feasible"]:
                        return problems + ["infeasible"]
                    if not closed - 1e-9 <= v["sum_rate_nats"] <= closed + 1e-6:
                        problems.append(f"sum rate {v['sum_rate_nats']!r} outside [closed - 1e-9, closed + 1e-6], closed {closed!r}")
                    if any(d > D + 1e-9 for d in v["distortions"]):
                        problems.append(f"distortions {v['distortions']} exceed cap {D}")
                    return problems

                ops.append(Op(
                    f"optimize erasure L={L} D={D} threads={threads}",
                    lambda argv=argv: run_cli(mb, argv), digest, check,
                    env={"MTSC_THREADS": "2"} if threads == 2 else {},
                    tag=f"optimize_threads{threads}",
                ))
    return ops


# ---------------------------------------------------------------------------
# closed_forms: the erasure and Gaussian CEO modules
# ---------------------------------------------------------------------------

REPRO_TARGETS = ("toy", "appendix-c", "appendix-e", "erasure-figure")
NIM_TS = tuple(np.linspace(0.1, 0.8, 8))  # D = p^L + t (1 - p^L)
SHAPE_PS = tuple(round(0.05 * i, 2) for i in range(1, 20))
ROOT_LS = (2, 3, 5)
CURVE_LS = (1, 2, 3, 10)
CURVE_N = 20_000
GAUSS_LS = (2, 3, 4, 5, 6, 8)
GAUSS_DS = 20


def setup_closed_forms(mb, workdir, rng):
    vectors = []
    for L in GAUSS_LS:
        params = mb.GaussianParams(float(rng.uniform(0.5, 2.0)), tuple(rng.uniform(0.2, 2.0, L)))
        vectors.append((params, tuple(rng.uniform(0.1, 3.0, L))))
    return vectors


def water_filling(sigma2: float, noise: tuple, D: float):
    """Minimum sum rate and witness r at distortion D, via the active set.

    Minimizes sum r_l subject to sum (1 - e^{-2 r_l}) / v_l = 1/D - 1/sigma2:
    r_l = max(0, log(2 mu / v_l) / 2), where the k smallest variances are
    active and 2 mu = k / (sum_active 1/v_l - theta).
    """
    theta = 1.0 / D - 1.0 / sigma2
    order = sorted(range(len(noise)), key=lambda l: noise[l])
    for k in range(1, len(noise) + 1):
        active = order[:k]
        denom = sum(1.0 / noise[l] for l in active) - theta
        if denom <= 0.0:
            continue
        two_mu = k / denom
        if all(noise[l] < two_mu for l in active) and (k == len(noise) or noise[order[k]] >= two_mu):
            r = [0.0] * len(noise)
            for l in active:
                r[l] = 0.5 * math.log(two_mu / noise[l])
            return 0.5 * math.log(sigma2 / D) + sum(r), r
    raise ValueError("no active set satisfies the water-filling conditions")


def _shape_fields(report) -> dict:
    fields = {k: v for k, v in vars(report).items()}
    fields["passed"] = report.passed
    return fields


def _curve_digest(rows) -> dict:
    arr = np.array([(D, L, rate) for D, L, rate in rows])
    ref = []
    for L in CURVE_LS:
        D = np.linspace(ERASURE_P ** L, 1.0, CURVE_N)
        ref += [(d, L, erasure_closed(ERASURE_P, L, float(d))) for d in D]
    ref = np.array(ref)
    same_grid = arr.shape == ref.shape and bool(np.array_equal(arr[:, :2], ref[:, :2]))
    return {
        "rows": len(rows),
        "same_grid": same_grid,
        "rate_sum": float(arr[:, 2].sum()),
        "max_abs_dev_from_closed_form": float(np.abs(arr[:, 2] - ref[:, 2]).max()) if same_grid else None,
    }


def _gauss_ops(mb, i, params, q):
    L, s2, noise = params.L, params.sigma2, params.noise_vars
    Ds = [params.d_min + t * (s2 - params.d_min) for t in np.linspace(0.05, 0.95, GAUSS_DS)]
    label = f"vector {i} L={L}"

    def rate_check(v):
        return [p for D, rate in zip(Ds, v["rates"]) for p in near(f"min sum rate D={D:.6g}", rate, water_filling(s2, noise, D)[0], 1e-9)]

    D_mid = Ds[GAUSS_DS // 2]
    total, r = water_filling(s2, noise, D_mid)
    base = 0.5 * math.log(s2 / D_mid)
    points = (
        [ri + base for ri in r],  # every subset constraint holds
        [0.0] * L,  # the full-set constraint fails
        [ri + (base - 1e-3) / L for ri in r],  # sum rate 1e-3 short of the minimum
    )

    def contains_call():
        return [mb.gaussian_region_contains(params, mb.RatePoint(tuple(R), (D_mid,)), r) for R in points]

    subsets = [A for k in range(1, L + 1) for A in itertools.combinations(range(1, L + 1), k)]

    def gap_check(v):
        return [p for A, gap in zip(subsets, v["gaps"]) for p in near(f"gap A={A}", gap, 0.0, 1e-9)]

    return [
        Op(f"gaussian_min_sum_rate {label}", lambda: [mb.gaussian_min_sum_rate(params, D) for D in Ds],
           lambda rates: {"rates": rates}, rate_check),
        Op(f"gaussian_region_contains {label}", contains_call, lambda c: {"contains": c},
           lambda v: [] if v["contains"] == [True, False, False] else [f"membership {v['contains']} != [True, False, False]"]),
        Op(f"oohama_gap {label}", lambda: [mb.oohama_gap(params, q, A) for A in subsets],
           lambda gaps: {"gaps": gaps}, gap_check),
    ]


def ops_closed_forms(mb, vectors, rng):
    ops = []
    for target in REPRO_TARGETS:
        ops.append(Op(f"repro {target}", lambda target=target: run_cli(mb, ["repro", target]),
                      lambda res: {"exit": res[0], "lines": res[1].splitlines()},
                      lambda v: exit_ok(v) + ([] if v["lines"][-1:] == ["PASS"] else ["did not print PASS"]),
                      compare_printed))
    for L in range(1, 9):
        for t in NIM_TS:
            D = ERASURE_P ** L + float(t) * (1.0 - ERASURE_P ** L)
            ops.append(Op(f"noise_info_minimum L={L} D={D:.6g}",
                          lambda L=L, D=D: mb.noise_info_minimum(mb.ErasureParams(ERASURE_P, L, D)),
                          lambda value: {"value": value},
                          lambda v, L=L, D=D: near("vs g(D^(1/L))", v["value"], g_closed(D ** (1.0 / L), ERASURE_P), 1e-9)))
    shape_check = lambda v: [] if v["passed"] else ["shape report did not pass"]  # noqa: E731
    for p in SHAPE_PS:
        ops.append(Op(f"g_shape_report p={p}", lambda p=p: mb.g_shape_report(p), _shape_fields,
                      shape_check, compare_at(1e-12)))
        for L in ROOT_LS:
            ops.append(Op(f"g_root_shape_report p={p} L={L}", lambda p=p, L=L: mb.g_root_shape_report(p, L),
                          _shape_fields, shape_check, compare_at(1e-12)))
    ops.append(Op(f"sum_rate_curve n={CURVE_N}", lambda: mb.sum_rate_curve(ERASURE_P, CURVE_LS, CURVE_N),
                  _curve_digest,
                  lambda v: ([] if v["same_grid"] else ["D grid differs"])
                  + ([] if v["same_grid"] and v["max_abs_dev_from_closed_form"] <= 1e-12 else ["curve off its closed form"])))
    for i, (params, q) in enumerate(vectors):
        ops += _gauss_ops(mb, i, params, q)
    return ops


WORKLOADS = {
    "bounds_large": (setup_bounds_large, ops_bounds_large),
    "bounds_wide": (setup_bounds_wide, ops_bounds_wide),
    "optimize": (setup_optimize, ops_optimize),
    "closed_forms": (setup_closed_forms, ops_closed_forms),
}

# The calibration kernel parts (calibrate.PARTS) whose slowdown a workload's
# operations follow, where not all three.  bounds_large spends nearly all its
# time in numpy reductions over dense joints of 0.7 to 3.2 million cells; on a
# contended host these slow far less than interpreted code does, and track
# the kernel's dense part.
CALIBRATION = {"bounds_large": ("dense",)}
