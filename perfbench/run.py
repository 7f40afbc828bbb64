#!/usr/bin/env python3
"""Benchmark of mtsc-bounds: four workloads, checked outputs, optional tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bounds_large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Before each timed pass over the workload's operations, one run imports
``mtsc_bounds`` from ``src/`` afresh and sets up the workload, three times (the
median of all set-ups is ``setup_s``).  Passes repeat until ``--seconds`` have
gone by, at least three of them, and every output is checked.  Each pass
also times a fixed calibration kernel before, between and after its
operations (``calibrate.py``); the reported times are scaled by it to the
reference host's quiet speed, and the wall times go to the run record.
``--trace 1`` instead wraps the package's public functions and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full run
record (machine, every computed value, every failure, spans) is written under
``.perfbench-out/``.  ``--workload all`` runs each workload in its own process,
one after another, and prints every metric with its unit.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# The optimizer's thread count is set only around the operations that name it.
os.environ.pop("MTSC_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUPS_PER_PASS = 3
MIN_PASSES = 3
CALIBRATE_EVERY_S = 0.1  # of operation time per calibration slice

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def require_package() -> None:
    if not os.path.isfile(os.path.join(SRC, "mtsc_bounds", "__init__.py")):
        raise BenchError(f"no mtsc_bounds package under {SRC}; run from the root of a checkout")


def fresh_import():
    """Import ``mtsc_bounds`` from ``src/`` anew, so each set-up pays for it."""
    require_package()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "mtsc_bounds" or n.startswith("mtsc_bounds.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mb = importlib.import_module("mtsc_bounds")
    importlib.import_module("mtsc_bounds.cli")
    if not os.path.abspath(mb.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported mtsc_bounds from {mb.__file__}, not from {SRC}")
    return mb


def machine_info(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def run_op(op, reference, tracer=None) -> dict:
    """Time one call; digest and check its output outside the timing."""
    saved = {k: os.environ.get(k) for k in op.env}
    os.environ.update(op.env)
    span = tracer.open("bench.op", {"op": op.name, "tag": op.tag}) if tracer else None
    error = None
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a raise is a failed operation, recorded by type
        error = exc
    seconds = time.perf_counter() - start
    if tracer:
        tracer.close(span)
    for k, v in saved.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    ref = reference.get(op.name) if reference is not None else None
    record = {"op": op.name, "s": seconds}
    if error is not None:
        record["error"] = f"{type(error).__name__}: {error}"
        record["known_defect"] = isinstance(ref, dict) and ref.get("raises") == type(error).__name__
        return record
    values = op.digest(result)
    problems = op.check(values)
    if op.compare is not None and reference is not None and not (isinstance(ref, dict) and "raises" in ref):
        problems += ["no recorded reference"] if ref is None else op.compare(values, ref)
    record["values"] = values
    if problems:
        record["problems"] = problems
    return record


def failed(record: dict) -> bool:
    return "error" in record or bool(record.get("problems"))


@dataclass
class Pass:
    """One pass over the operations.  Each record carries the ``slowdown``
    of the calibration slices timed just before and just after it."""

    records: list[dict]
    slices: list[tuple[float, float, float]]  # every slice, in order
    setup_slowdown: float  # of the batch right after the set-ups

    @property
    def wall_s(self) -> float:
        return sum(r["s"] for r in self.records)

    @property
    def scaled_s(self) -> float:
        """The pass's time on the reference host at its quiet speed."""
        return sum(scaled_s(r) for r in self.records)


def scaled_s(record: dict) -> float:
    return record["s"] / record["slowdown"]


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(setup_times, passes, records) -> dict:
    """Timings from the measured passes, scaled to the reference host's
    speed (see calibrate.py); the success share from every call."""
    latencies_ms = [scaled_s(r) * 1e3 for p in passes for r in p.records if not failed(r)]
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(p.scaled_s for p in passes),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": sum(not failed(r) for r in records) / len(records),
    }


class Bench:
    """One workload run: set-up, measured passes, and the traced variant."""

    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.setup_fn, self.ops_fn = workloads.WORKLOADS[args.workload]
        self.reference = load_reference()
        self.order_rng = np.random.default_rng([args.seed, 2])
        self.calibrator = calibrate.Calibrator()
        self.calibration = workloads.CALIBRATION.get(args.workload, calibrate.PARTS)
        self.setups = 0
        self.setup_times = []  # wall seconds of each set-up
        self.setup_scaled = []  # the same, scaled by the slowdown just after them

    def timed_setup(self) -> None:
        """A fresh import and set-up build, timed; the operations follow it."""
        gc.collect()  # garbage of the previous import is not this set-up's cost
        start = time.perf_counter()
        self.mb = fresh_import()
        state = self.set_up()
        self.setup_times.append(time.perf_counter() - start)
        self.ops = self.build_ops(state)

    def set_up(self):
        """One set-up build, writing its files to a directory of its own, so
        that no set-up rewrites the files of an earlier one."""
        self.setups += 1
        directory = os.path.join(self.workdir, f"setup{self.setups}")
        os.mkdir(directory)
        return self.setup_fn(self.mb, directory, np.random.default_rng(self.args.seed))

    def build_ops(self, state):
        return self.ops_fn(self.mb, state, np.random.default_rng([self.args.seed, 1]))

    def calibration_batch(self, seconds: float) -> list[tuple[float, float, float]]:
        """One calibration slice per CALIBRATE_EVERY_S of ``seconds``, at
        least one, so the calibration takes a fixed share of the run."""
        return [self.calibrator.slice() for _ in range(max(1, round(seconds / CALIBRATE_EVERY_S)))]

    def run_pass(self, tracer=None, setup_s: float = 0.0) -> Pass:
        """The operations in a seeded order, with calibration batches
        between them: one after the set-ups (``setup_s``), one whenever
        CALIBRATE_EVERY_S of operation time has gone by, and one at the end.
        An operation is scaled by the batches on either side of it, which
        follow the host's speed as it changes within the pass."""
        # Move what the benchmark holds (earlier passes' records) out of the
        # collector's way, so collections inside an operation cost what they
        # would in a fresh process.
        gc.collect()
        gc.freeze()
        order = self.order_rng.permutation(len(self.ops))
        batches = [self.calibration_batch(setup_s)]
        records, before, owed = [], [], 0.0
        for i in order:
            records.append(run_op(self.ops[i], self.reference, tracer))
            before.append(len(batches) - 1)
            owed += records[-1]["s"]
            if owed >= CALIBRATE_EVERY_S:
                batches.append(self.calibration_batch(owed))
                owed = 0.0
        batches.append(self.calibration_batch(owed))
        for record, b in zip(records, before):
            record["slowdown"] = calibrate.slowdown(batches[b] + batches[b + 1], self.calibration)
        slices = [s for batch in batches for s in batch]
        # Set-ups (imports, JSON, casebook) are interpreted code on every
        # workload, so all parts of the kernel scale them.
        return Pass(records, slices, calibrate.slowdown(batches[0]))

    def set_up_and_pass(self) -> Pass:
        """SETUPS_PER_PASS timed set-ups, then a pass over the last one's
        operations; the set-ups are scaled by the batch that follows them."""
        first = len(self.setup_times)
        for _ in range(SETUPS_PER_PASS):
            self.timed_setup()
        done = self.run_pass(setup_s=sum(self.setup_times[first:]))
        self.setup_scaled += [t / done.setup_slowdown for t in self.setup_times[first:]]
        return done

    def measure(self) -> list[Pass]:
        """Passes until ``--seconds`` have gone by, and at least MIN_PASSES.

        The set-ups are spread between the passes: on a shared host the CPU
        speed can drift within seconds, and set-ups made only at the start
        would sample a shorter stretch of it than the passes do.
        """
        passes = []
        begin = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - begin < self.args.seconds:
            passes.append(self.set_up_and_pass())
            if len(passes) > 1:
                # Only the first pass's values go to the run record; holding
                # every pass's would make peak memory grow with the pass count.
                for record in passes[-1].records:
                    record.pop("values", None)
        return passes

    def measure_traced(self):
        """Traced iterations, each one set-up build and one pass, until time
        is up.  An untraced pass precedes each one, so the overhead compares
        passes run close together; one more untraced pass warms up first."""
        begin = time.perf_counter()
        untraced = [self.set_up_and_pass()]
        tracer = tracing.Tracer()
        passes, per_iteration, splits = [], [], []
        while not passes or time.perf_counter() - begin < self.args.seconds:
            untraced.append(self.run_pass())
            first = len(tracer.spans)
            uninstall = tracing.install(tracer)
            try:
                with tracer.span("bench.iteration"):
                    with tracer.span("bench.setup"):
                        self.ops = self.build_ops(self.set_up())
                    with tracer.span("bench.pass"):
                        passes.append(self.run_pass(tracer))
            finally:
                uninstall()
            tree = tracing.SpanTree(tracer.spans, first, len(tracer.spans))
            per_iteration.append(tracing.layer_metrics(tree, [r.get("values", {}) for r in passes[-1].records]))
            splits.append({tree.op_info(i)["op"]: tree.evaluator_split(i) for i in tree.outermost(tracing.EVALUATORS)})
        metrics = tracing.median_metrics(per_iteration)
        metrics["trace.overhead_s"] = (
            statistics.median(p.scaled_s for p in passes)
            - statistics.median(p.scaled_s for p in untraced[1:])
        )
        split = {op: tracing.median_metrics([it[op] for it in splits]) for op in splits[0]}
        extra = {"untraced_pass_s": [p.wall_s for p in untraced], "evaluator_split": split}
        return untraced, passes, metrics, extra, tracer.spans


def run_workload(args) -> int:
    require_package()
    spec = load_spec()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        bench = Bench(args, workdir)
        if args.trace:
            untraced, passes, metrics, extra, spans = bench.measure_traced()
        else:
            untraced, passes, extra = [], bench.measure(), {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in untraced + passes for r in p.records]
    n_failed = sum(failed(r) for r in records)
    correct = all(r.get("known_defect") for r in records if failed(r))
    if not args.trace:
        metrics = end_to_end(bench.setup_scaled, passes, records)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    machine = machine_info(args.seed)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    run_record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "machine": machine,
        "setup_s": bench.setup_times,
        "pass_s": [p.wall_s for p in passes],
        "slowdown": [p.wall_s / p.scaled_s for p in passes],
        "calibration_s": [p.slices for p in untraced + passes],
        "failures": [r for r in records if failed(r)],
        "values": {r["op"]: r.get("values", r.get("error")) for r in passes[0].records},
        "op_ms": {op.name: [r["s"] * 1e3 for r in records if r["op"] == op.name] for op in bench.ops},
        "op_scaled_ms": {op.name: [scaled_s(r) * 1e3 for r in records if r["op"] == op.name] for op in bench.ops},
        "metrics": metrics,
        **extra,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(run_record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans, fh)

    print("# machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# {args.workload}: {len(passes)} passes, {len(bench.ops)} operations each; record in {stem}.json")
    for name, r in {r["op"]: r for r in records if failed(r)}.items():
        kind = "known defect" if r.get("known_defect") else "FAILED"
        print(f"# {kind}: {name}: {r.get('error') or '; '.join(r['problems'][:3])}")
    for op, parts in sorted(extra.get("evaluator_split", {}).items()):
        if parts["total_s"] >= 0.1:
            print(f"# split {op}: " + ", ".join(f"{k} {v * 1e3:.1f} ms" for k, v in parts.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": n_failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one at a time; a table of metrics."""
    require_package()
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:>14.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
