"""Command-line interface: reproduce the worked numbers and emit bound data.

Exit codes: 0 on success or PASS, 2 on FAIL (including Markov-check
failures), 1 on usage or I/O errors.  All numeric output is in nats with 9
significant digits; ``--bits`` divides displayed rates by log 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import InfeasibleError, MarkovCheckError, MtscError
from .erasure_ceo import (
    ErasureParams,
    erasure_bt_counterexample,
    erasure_sum_rate,
    sum_rate_curve,
    sum_rate_curve_csv,
)
from .gaussian_ceo import (
    GaussianParams,
    gaussian_min_sum_rate,
    gaussian_region_contains,
    search_bt_counterexample,
)
from .model import AuxSystem, SourceModel, XChannel, casebook
from .prob import binary_entropy
from .regions import (
    RatePoint,
    bt_inner_constraints,
    bt_outer_constraints,
    new_outer_constraints,
    optimize_bt_inner_sum_rate,
)

LN2 = math.log(2.0)

CASEBOOK_NAMES = ("toy", "toy_bt_gamma", "appendix_c", "erasure")
REPRO_TARGETS = ("toy", "appendix-c", "appendix-e", "erasure-figure")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _fmt(x: float, bits: bool = False) -> str:
    return f"{(x / LN2 if bits else x):.9g}"


def _round9(obj):
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load(cls, path: str):
    """``cls.from_json`` of the JSON object in ``path``.  Unreadable or
    malformed input, including a missing or mistyped field, is a usage
    error whose message names the file and the field."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    if not isinstance(payload, dict):
        raise _UsageError(
            f"{path}: expected a JSON object at the top level, got {type(payload).__name__}"
        )
    try:
        return cls.from_json(payload)
    except KeyError as exc:
        raise _UsageError(f"{path}: missing field {exc.args[0]!r} in {cls.__name__}")
    except TypeError as exc:
        raise _UsageError(f"{path}: malformed {cls.__name__}: {exc}")


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got {text!r}")


def _ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtsc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mtsc-bounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="package info; optionally dump a casebook instance")
    p_info.add_argument("--dump", choices=CASEBOOK_NAMES)
    p_info.add_argument("--out", help="path prefix for dumped JSON files")
    p_info.add_argument("--p", type=float, default=0.5)
    p_info.add_argument("--L", type=int, default=2)
    p_info.add_argument("--D", type=float, default=0.6)
    p_info.add_argument("--lam", type=float, default=1e6)

    p_bounds = sub.add_parser("bounds", help="evaluate a bound's constraint set")
    p_bounds.add_argument("--model", required=True)
    p_bounds.add_argument("--gamma", required=True)
    p_bounds.add_argument("--x")
    p_bounds.add_argument("--kind", required=True, choices=("bt-inner", "bt-outer", "new-outer"))
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.add_argument("--out")
    p_bounds.add_argument("--bits", action="store_true")

    p_er = sub.add_parser("erasure-ceo", help="binary erasure CEO sum rate")
    p_er.add_argument("--p", type=float, required=True)
    p_er.add_argument("--L", required=True, help="encoder count; comma list with --curve")
    group = p_er.add_mutually_exclusive_group(required=True)
    group.add_argument("--D", type=float)
    group.add_argument("--curve", type=int, metavar="N")
    p_er.add_argument("--format", choices=("json", "csv"), default="json")
    p_er.add_argument("--out")
    p_er.add_argument("--bits", action="store_true")

    p_ga = sub.add_parser("gaussian-ceo", help="Gaussian CEO sum rate / membership")
    p_ga.add_argument("--sigma2", type=float, required=True)
    p_ga.add_argument("--noise", required=True, help="comma-separated noise variances")
    p_ga.add_argument("--D", type=float, required=True)
    p_ga.add_argument("--witness", help="comma-separated witness rates r_l")
    p_ga.add_argument("--rates", help="comma-separated rates R_l (membership mode)")
    p_ga.add_argument("--format", choices=("json", "csv"), default="json")
    p_ga.add_argument("--out")
    p_ga.add_argument("--bits", action="store_true")

    p_re = sub.add_parser("repro", help="reproduce the worked numbers, PASS/FAIL per check")
    p_re.add_argument("target", choices=REPRO_TARGETS)
    p_re.add_argument("--out", help="write erasure-figure CSV here")

    p_opt = sub.add_parser("optimize", help="inner-bound sum-rate search")
    p_opt.add_argument("--model", required=True)
    p_opt.add_argument("--caps", required=True, help="comma-separated distortion caps")
    p_opt.add_argument("--cardinalities", required=True, help="comma-separated |U_l|")
    p_opt.add_argument("--budget", type=int, required=True)
    p_opt.add_argument("--seed", type=int, required=True)
    p_opt.add_argument("--restarts", type=int, default=4)
    p_opt.add_argument("--format", choices=("json", "csv"), default="json")
    p_opt.add_argument("--out")
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_info(args) -> int:
    if args.dump:
        if not args.out:
            raise _UsageError("--dump requires --out PREFIX")
        instance = casebook(args.dump, p=args.p, L=args.L, D=args.D, lam=args.lam)
        with open(args.out + ".model.json", "w") as fh:
            json.dump(instance.model.to_json(), fh)
        with open(args.out + ".gamma.json", "w") as fh:
            json.dump(instance.gamma.to_json(), fh)
        if instance.x is not None:
            with open(args.out + ".x.json", "w") as fh:
                json.dump(instance.x.to_json(), fh)
        print(f"wrote {args.out}.model.json / .gamma.json / .x.json")
        return 0
    print(f"mtsc-bounds {__version__}")
    print("casebook instances:", ", ".join(CASEBOOK_NAMES))
    print("units: nats (use --bits to display bits)")
    return 0


def _cmd_bounds(args) -> int:
    model = _load(SourceModel, args.model)
    gamma = _load(AuxSystem, args.gamma)
    if args.kind == "new-outer":
        if not args.x:
            raise _UsageError("--kind new-outer requires --x")
        x = _load(XChannel, args.x)
        constraints = new_outer_constraints(model, x, gamma)
    elif args.kind == "bt-inner":
        constraints = bt_inner_constraints(model, gamma)
    else:
        constraints = bt_outer_constraints(model, gamma)
    if args.format == "csv":
        _emit(constraints.to_csv(), args.out)
    else:
        payload = constraints.to_json()
        if args.bits:
            for row in payload["bounds"]:
                row["bound_bits"] = row.pop("bound_nats") / LN2
        _emit(json.dumps(_round9(payload), indent=2), args.out)
    return 0


def _cmd_erasure(args) -> int:
    if args.curve is not None:
        Ls = _ints(args.L)
        if args.format == "csv":
            _emit(sum_rate_curve_csv(args.p, Ls, args.curve), args.out)
        else:
            rows = [
                {"D": D, "L": L, "sum_rate_nats": rate}
                for D, L, rate in sum_rate_curve(args.p, Ls, args.curve)
            ]
            _emit(json.dumps(_round9(rows)), args.out)
        return 0
    Ls = _ints(args.L)
    if len(Ls) != 1:
        raise _UsageError("--D takes a single encoder count; use --curve for a list")
    (L,) = Ls
    rate = erasure_sum_rate(ErasureParams(args.p, L, args.D))
    if args.format == "csv":
        _emit(f"D,L,sum_rate_nats\n{args.D!r},{L},{rate!r}\n", args.out)
    else:
        unit = "bits" if args.bits else "nats"
        _emit(
            json.dumps(
                _round9({"p": args.p, "L": L, "D": args.D, f"sum_rate_{unit}": rate / (LN2 if args.bits else 1.0)})
            ),
            args.out,
        )
    return 0


def _cmd_gaussian(args) -> int:
    params = GaussianParams(args.sigma2, tuple(_floats(args.noise)))
    if args.witness or args.rates:
        if not (args.witness and args.rates):
            raise _UsageError("membership mode needs both --witness and --rates")
        point = RatePoint(tuple(_floats(args.rates)), (args.D,))
        ok = gaussian_region_contains(params, point, _floats(args.witness))
        _emit(json.dumps({"contains": bool(ok)}), args.out)
        return 0
    rate = gaussian_min_sum_rate(params, args.D)
    unit = "bits" if args.bits else "nats"
    _emit(
        json.dumps(
            _round9(
                {
                    "sigma2": args.sigma2,
                    "noise_vars": list(params.noise_vars),
                    "D": args.D,
                    f"min_sum_rate_{unit}": rate / (LN2 if args.bits else 1.0),
                }
            )
        ),
        args.out,
    )
    return 0


def _check(lines, name, computed, reference, ok) -> bool:
    lines.append(
        f"{name}: computed {_fmt(computed)}  reference {_fmt(reference)}  "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return ok


def _repro_toy(lines) -> bool:
    instance = casebook("toy")
    # With trivial side information and T the Berger-Tung outer bounds are
    # I(Y; U1, U2), I(Y; U1 | U2) and I(Y; U2 | U1), which give I(Y; U1).
    bounds = bt_outer_constraints(instance.model, instance.gamma)
    i_full, i_cond, d1 = bounds.full_set, bounds.bound([1]), bounds.distortions[0]
    i_u1 = i_full - bounds.bound([2])
    ok = True
    ok &= _check(lines, "I(Y;U1,U2)", i_full, 1.25 * LN2, abs(i_full - 1.25 * LN2) <= 1e-12)
    ok &= _check(lines, "I(Y;U1)", i_u1, 0.5 * LN2, abs(i_u1 - 0.5 * LN2) <= 1e-12)
    ok &= _check(lines, "I(Y;U1|U2)", i_cond, 0.75 * LN2, abs(i_cond - 0.75 * LN2) <= 1e-12)
    ok &= _check(lines, "E[d1]", d1, 0.0, d1 <= 1e-12)
    lines.append(f"operational corner at zero distortion: ({_fmt(LN2)}, {_fmt(LN2)})")
    return ok


def _repro_appendix_c(lines) -> bool:
    ce = erasure_bt_counterexample()
    ok = True
    ok &= _check(lines, "I(Y1,Y2;U1,U2)", ce.i_joint, 0.6273, 0.6268 < ce.i_joint <= 0.6273)
    ok &= _check(lines, "I(Y1,Y2;U1|U2)", ce.i_cond, 0.3248, 0.3243 < ce.i_cond <= 0.3248)
    ok &= _check(lines, "Pr(Z1=0)", ce.distortion, 0.6, ce.distortion == 0.6)
    ok &= _check(
        lines,
        "optimal sum rate at D=3/5",
        ce.optimal_sum_rate,
        0.6562,
        ce.optimal_sum_rate >= 0.6562,
    )
    ok &= _check(
        lines,
        "looseness margin (optimal - 2*I_cond)",
        ce.looseness_margin,
        0.006,
        ce.looseness_margin >= 0.006,
    )
    return ok


def _repro_appendix_e(lines) -> bool:
    target = 1.5 * LN2
    ce = search_bt_counterexample(margin=0.04)
    ok = True
    ok &= _check(
        lines,
        f"max(I_joint, 2 I_cond) at Var(W)={_fmt(ce.sigma_w2)}",
        ce.classical_outer_sum_rate,
        target - 0.04,
        ce.classical_outer_sum_rate <= target - 0.04,
    )
    ok &= _check(lines, "MMSE distortion", ce.distortion, 0.5, abs(ce.distortion - 0.5) <= 1e-12)
    rate = gaussian_min_sum_rate(GaussianParams(1.0, (1.0, 1.0)), 0.5)
    ok &= _check(lines, "min sum rate at D=1/2", rate, target, abs(rate - target) <= 1e-9)
    return ok


def _repro_erasure_figure(lines, out_path) -> bool:
    p, Ls, n = 0.5, (1, 2, 3, 10), 1000
    ok = True
    for L in Ls:
        rates = np.array(
            [rate for _, _, rate in sum_rate_curve(p, (L,), n)]
        )
        mono = bool(np.all(np.diff(rates) <= 1e-12))
        ok &= _check(lines, f"L={L} curve nonincreasing over {n} points", float(np.diff(rates).max()), 0.0, mono)
        end = rates[-1]
        ok &= _check(lines, f"L={L} value at D=1", end, 0.0, end == 0.0)
        start = rates[0]
        closed = (1 - p**L) * LN2 + L * binary_entropy(p)
        ok &= _check(lines, f"L={L} value at D=p^L", start, closed, abs(start - closed) <= 1e-12)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(sum_rate_curve_csv(p, Ls, n))
        lines.append(f"curve data written to {out_path}")
    return ok


def _cmd_repro(args) -> int:
    lines: list[str] = []
    if args.target == "toy":
        ok = _repro_toy(lines)
    elif args.target == "appendix-c":
        ok = _repro_appendix_c(lines)
    elif args.target == "appendix-e":
        ok = _repro_appendix_e(lines)
    else:
        ok = _repro_erasure_figure(lines, args.out)
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def _cmd_optimize(args) -> int:
    model = _load(SourceModel, args.model)
    result = optimize_bt_inner_sum_rate(
        model,
        _floats(args.caps),
        _ints(args.cardinalities),
        budget=args.budget,
        seed=args.seed,
        restarts=args.restarts,
    )
    if args.format == "csv" and result.constraints is not None:
        _emit(result.constraints.to_csv(), args.out)
        return 0
    payload = {
        "feasible": result.feasible,
        "sum_rate_nats": result.sum_rate if result.feasible else None,
        "distortions": list(result.distortions),
        "evaluations": result.evaluations,
        "restarts": result.restarts,
        "message": result.message,
        "constraints": result.constraints.to_json() if result.constraints else None,
    }
    _emit(json.dumps(_round9(payload), indent=2), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "info":
            return _cmd_info(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "erasure-ceo":
            return _cmd_erasure(args)
        if args.command == "gaussian-ceo":
            return _cmd_gaussian(args)
        if args.command == "repro":
            return _cmd_repro(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MarkovCheckError as exc:
        print(f"Markov check failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            for name, value in exc.report.residuals:
                print(f"  residual {name} = {value:.6e} nats", file=sys.stderr)
        return 2
    except (InfeasibleError, MtscError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
