"""Command-line interface: reproduce the worked numbers and emit bound data.

Exit codes: 0 on success or PASS, 2 on FAIL (including Markov-check
failures), 1 on usage or I/O errors.  Numeric output is in nats.  Every
JSON and CSV value carries every digit (it reads back as the same float);
only the PASS/FAIL lines of ``repro`` print 9 significant digits.
``--bits`` divides displayed rates by log 2.
"""

from __future__ import annotations

import argparse
import functools
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
)
from .gaussian_ceo import (
    LOOSENESS_MARGIN,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _unit(args) -> tuple[str, float]:
    """The unit of displayed rates and its size in nats: the only ``--bits`` rule."""
    return ("bits", LN2) if args.bits else ("nats", 1.0)


def _write(args, payload, header: str, rows, indent=None) -> None:
    """Write ``payload`` as JSON, or ``header`` and ``rows`` as CSV, as
    ``--format`` says, to ``--out`` or to stdout.  A CSV cell is ``str`` of
    its value, which for a float is every digit."""
    text = _csv(header, rows) if args.format == "csv" else json.dumps(payload, indent=indent)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _csv(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


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
    except MtscError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. int() of inf, NaN or text
        raise _UsageError(f"{path}: malformed {cls.__name__}: {exc}")


def _numbers(text: str, kind=float) -> list:
    try:
        return [kind(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _UsageError(f"expected comma-separated {'integers' if kind is int else 'numbers'}, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mtsc", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mtsc-bounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p_info = command("info", _cmd_info, "package info; optionally dump a casebook instance")
    p_info.add_argument("--dump", choices=CASEBOOK_NAMES)
    p_info.add_argument("--out", help="path prefix for dumped JSON files")
    p_info.add_argument("--p", type=float, default=0.5)
    p_info.add_argument("--L", type=int, default=2)
    p_info.add_argument("--D", type=float, default=0.6)
    p_info.add_argument("--lam", type=float, default=1e6)

    p_bounds = command("bounds", _cmd_bounds, "evaluate a bound's constraint set")
    p_bounds.add_argument("--model", required=True)
    p_bounds.add_argument("--gamma", required=True)
    p_bounds.add_argument("--x")
    p_bounds.add_argument("--kind", required=True, choices=tuple(BOUND_KINDS))

    p_er = command("erasure-ceo", _cmd_erasure, "binary erasure CEO sum rate")
    p_er.add_argument("--p", type=float, required=True)
    p_er.add_argument("--L", required=True, help="encoder count; comma list with --curve")
    group = p_er.add_mutually_exclusive_group(required=True)
    group.add_argument("--D", type=float)
    group.add_argument("--curve", type=int, metavar="N")

    p_ga = command("gaussian-ceo", _cmd_gaussian, "Gaussian CEO sum rate / membership")
    p_ga.add_argument("--sigma2", type=float, required=True)
    p_ga.add_argument("--noise", required=True, help="comma-separated noise variances")
    p_ga.add_argument("--D", type=float, required=True)
    p_ga.add_argument("--witness", help="comma-separated witness rates r_l")
    p_ga.add_argument("--rates", help="comma-separated rates R_l (membership mode)")

    p_re = command("repro", _cmd_repro, "reproduce the worked numbers, PASS/FAIL per check")
    p_re.add_argument("target", choices=REPRO_TARGETS)
    p_re.add_argument("--out", help="write erasure-figure CSV here")

    p_opt = command("optimize", _cmd_optimize, "inner-bound sum-rate search")
    p_opt.add_argument("--model", required=True)
    p_opt.add_argument("--caps", required=True, help="comma-separated distortion caps")
    p_opt.add_argument("--cardinalities", required=True, help="comma-separated |U_l|")
    p_opt.add_argument("--budget", type=int, required=True)
    p_opt.add_argument("--seed", type=int, required=True)

    for p in (p_bounds, p_er, p_ga, p_opt):  # the subcommands that write through _write
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out")
        if p is not p_opt:
            p.add_argument("--bits", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_info(args) -> int:
    if args.dump:
        if not args.out:
            raise _UsageError("--dump requires --out PREFIX")
        instance = casebook(args.dump, p=args.p, L=args.L, D=args.D, lam=args.lam)
        for part in ("model", "gamma", "x"):
            obj = getattr(instance, part)
            if obj is not None:
                with open(f"{args.out}.{part}.json", "w") as fh:
                    json.dump(obj.to_json(), fh)
        print(f"wrote {args.out}.model.json / .gamma.json / .x.json")
        return 0
    print(f"mtsc-bounds {__version__}")
    print("casebook instances:", ", ".join(CASEBOOK_NAMES))
    print("units: nats (use --bits to display bits)")
    return 0


def _new_outer(model, gamma, x_path):
    if not x_path:
        raise _UsageError("--kind new-outer requires --x")
    return new_outer_constraints(model, _load(XChannel, x_path), gamma)


# --kind: each evaluator from the loaded model and system, and the --x path.
BOUND_KINDS = {
    "bt-inner": lambda model, gamma, x_path: bt_inner_constraints(model, gamma),
    "bt-outer": lambda model, gamma, x_path: bt_outer_constraints(model, gamma),
    "new-outer": _new_outer,
}


def _cmd_bounds(args) -> int:
    model = _load(SourceModel, args.model)
    gamma = _load(AuxSystem, args.gamma)
    constraints = BOUND_KINDS[args.kind](model, gamma, args.x)
    unit, scale = _unit(args)
    payload = constraints.to_json()
    for row in payload["bounds"]:
        row[f"bound_{unit}"] = row.pop("bound_nats") / scale
    # The CSV column in nats is the library's ``RegionConstraints.to_csv`` header.
    header = "subset,bound" + ("" if unit == "nats" else f"_{unit}")
    _write(args, payload, header, [row.values() for row in payload["bounds"]], 2)
    return 0


def _cmd_erasure(args) -> int:
    Ls = _numbers(args.L, int)
    if not Ls:
        raise _UsageError(f"--L needs at least one encoder count, got {args.L!r}")
    unit, scale = _unit(args)
    if args.curve is not None:
        rows = sum_rate_curve(args.p, Ls, args.curve)
    elif len(Ls) != 1:
        raise _UsageError("--D takes a single encoder count; use --curve for a list")
    else:
        rows = [(args.D, Ls[0], erasure_sum_rate(ErasureParams(args.p, Ls[0], args.D)))]
    keys = ("D", "L", f"sum_rate_{unit}")
    rows = [(D, L, rate / scale) for D, L, rate in rows]
    if args.curve is not None:
        payload = [dict(zip(keys, row)) for row in rows]
    else:
        ((D, L, rate),) = rows
        payload = {"p": args.p, "L": L, "D": D, keys[2]: rate}
    _write(args, payload, ",".join(keys), rows)
    return 0


def _cmd_gaussian(args) -> int:
    params = GaussianParams(args.sigma2, tuple(_numbers(args.noise)))
    if args.witness or args.rates:
        if not (args.witness and args.rates):
            raise _UsageError("membership mode needs both --witness and --rates")
        point = RatePoint(tuple(_numbers(args.rates)), (args.D,))
        ok = bool(gaussian_region_contains(params, point, _numbers(args.witness)))
        _write(args, {"contains": ok}, "contains", [(json.dumps(ok),)])
        return 0
    unit, scale = _unit(args)
    rate = gaussian_min_sum_rate(params, args.D) / scale
    payload = {
        "sigma2": args.sigma2,
        "noise_vars": list(params.noise_vars),
        "D": args.D,
        f"min_sum_rate_{unit}": rate,
    }
    noise = ";".join(map(repr, params.noise_vars))
    _write(args, payload, ",".join(payload), [(args.sigma2, noise, args.D, rate)])
    return 0


def _check(lines, name, computed, reference, ok) -> bool:
    lines.append(f"{name}: computed {_fmt(computed)}  reference {_fmt(reference)}  {'PASS' if ok else 'FAIL'}")
    return ok


def _repro_toy(lines, out_path) -> bool:
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


def _repro_appendix_c(lines, out_path) -> bool:
    ce = erasure_bt_counterexample()
    ok = True
    ok &= _check(lines, "I(Y1,Y2;U1,U2)", ce.i_joint, 0.6273, 0.6268 < ce.i_joint <= 0.6273)
    ok &= _check(lines, "I(Y1,Y2;U1|U2)", ce.i_cond, 0.3248, 0.3243 < ce.i_cond <= 0.3248)
    ok &= _check(lines, "Pr(Z1=0)", ce.distortion, 0.6, ce.distortion == 0.6)
    rate, margin = ce.optimal_sum_rate, ce.looseness_margin
    ok &= _check(lines, "optimal sum rate at D=3/5", rate, 0.6562, rate >= 0.6562)
    ok &= _check(lines, "looseness margin (optimal - 2*I_cond)", margin, 0.006, margin >= 0.006)
    return ok


def _repro_appendix_e(lines, out_path) -> bool:
    target = 1.5 * LN2
    ce = search_bt_counterexample()
    ok = True
    outer, bound = ce.classical_outer_sum_rate, target - LOOSENESS_MARGIN
    ok &= _check(lines, f"max(I_joint, 2 I_cond) at Var(W)={_fmt(ce.sigma_w2)}", outer, bound, outer <= bound)
    ok &= _check(lines, "MMSE distortion", ce.distortion, 0.5, abs(ce.distortion - 0.5) <= 1e-12)
    rate = gaussian_min_sum_rate(GaussianParams(1.0, (1.0, 1.0)), 0.5)
    ok &= _check(lines, "min sum rate at D=1/2", rate, target, abs(rate - target) <= 1e-12)
    return ok


def _repro_erasure_figure(lines, out_path) -> bool:
    p, Ls, n = 0.5, (1, 2, 3, 10), 1000
    curve = sum_rate_curve(p, Ls, n)
    ok = True
    for i, L in enumerate(Ls):
        rates = np.array([rate for _, _, rate in curve[i * n:(i + 1) * n]])
        mono = bool(np.all(np.diff(rates) <= 1e-12))
        ok &= _check(lines, f"L={L} curve nonincreasing over {n} points", float(np.diff(rates).max()), 0.0, mono)
        end = rates[-1]
        ok &= _check(lines, f"L={L} value at D=1", end, 0.0, end == 0.0)
        start = rates[0]
        closed = (1 - p**L) * LN2 + L * binary_entropy(p)
        ok &= _check(lines, f"L={L} value at D=p^L", start, closed, abs(start - closed) <= 1e-12)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(_csv("D,L,sum_rate_nats", curve))
        lines.append(f"curve data written to {out_path}")
    return ok


# The repro targets, each writing its check lines and returning PASS.
REPRO = {
    "toy": _repro_toy,
    "appendix-c": _repro_appendix_c,
    "appendix-e": _repro_appendix_e,
    "erasure-figure": _repro_erasure_figure,
}
REPRO_TARGETS = tuple(REPRO)


def _cmd_repro(args) -> int:
    lines: list[str] = []
    ok = REPRO[args.target](lines, args.out)
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 2


def _cmd_optimize(args) -> int:
    model = _load(SourceModel, args.model)
    caps, cards = _numbers(args.caps), _numbers(args.cardinalities, int)
    result = optimize_bt_inner_sum_rate(model, caps, cards, budget=args.budget, seed=args.seed)
    if args.format == "csv" and result.constraints is None:
        print(result.message, file=sys.stderr)
    payload = {
        "feasible": result.feasible,
        "sum_rate_nats": result.sum_rate if result.feasible else None,
        "distortions": list(result.distortions),
        "evaluations": result.evaluations,
        "restarts": result.restarts,
        "message": result.message,
        "constraints": result.constraints.to_json() if result.constraints else None,
    }
    rows = [row.values() for row in payload["constraints"]["bounds"]] if result.constraints else []
    _write(args, payload, "subset,bound", rows, 2)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by ``build_parser`` on first use.
    Each ``parse_args`` makes a fresh ``Namespace``, so no parsed value
    carries over from one ``main`` call to the next."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "repro" and args.out is not None and args.target != "erasure-figure":
            raise _UsageError(f"--out is read only by the erasure-figure target, not {args.target!r}")
        if args.command == "info" and args.out is not None and not args.dump:
            raise _UsageError("info reads --out only with --dump, which names the instance to write")
        if args.out == "":  # every subcommand takes --out
            raise _UsageError("--out needs a path, got an empty one")
        return args.run(args)
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
