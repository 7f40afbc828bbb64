"""Spans around the package's public functions, and the per-layer metrics.

The traced run wraps every public function of each ``mtsc_bounds`` module,
the public ``JointPmf`` methods and the ``from_json`` constructors of the
model types.  Each wrapper replaces the original in every ``mtsc_bounds.*``
namespace that holds it, so calls between modules are seen too.  A span is
``[name, start, end, parent, info]``; spans stay in memory until the run ends.

A few scalar helpers are left unwrapped (``UNWRAPPED``): they are called
hundreds of thousands of times per pass from inside other functions, a span
each would cost more than the call, and their time counts in the caller.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import threading
import time
import types

LAYERS = ("prob", "model", "regions", "erasure_ceo", "gaussian_ceo", "cli")
UNWRAPPED = {"binary_entropy", "g_function", "erasure_sum_rate", "subset_label"}
JOINT_METHODS = ("size_of", "marginalize", "extend", "product", "reordered", "to_json")
FROM_JSON_TYPES = (("prob", "JointPmf"), ("model", "SourceModel"), ("model", "AuxSystem"), ("model", "XChannel"))

# Extra numbers a span records from its arguments and result.
MEASURES = {
    "prob.JointPmf.marginalize": lambda args, result: args[0].probs.size * 8,  # input bytes
    "model.build_full_joint": lambda args, result: result.probs.size,  # joint cells
    "regions.optimize_bt_inner_sum_rate": lambda args, result: result.evaluations,
}

EVALUATORS = {f"regions.{k}_constraints" for k in ("bt_inner", "bt_outer", "new_outer")}
INFO_MEASURES = {"prob.conditional_mutual_information", "prob.mutual_information", "prob.entropy"}
MARKOV = {"model.gamma_class_residuals", "model.check_chi", "model.chi_residual"}

# Per-layer metrics that are the inclusive time of the outermost spans of a
# set of functions.
INCLUSIVE = {
    "model.build_full_joint_s": {"model.build_full_joint"},
    "model.markov_residuals_s": MARKOV,
    "model.expected_distortions_s": {"model.expected_distortions", "model.expected_distortion"},
    "model.from_json_s": {f"model.{t}.from_json" for _, t in FROM_JSON_TYPES[1:]},
    "model.casebook_s": {"model.casebook"},
    "regions.slepian_wolf_s": {"regions.slepian_wolf_bounds"},
    "regions.check_supermodular_s": {"regions.check_supermodular"},
    "regions.vertex_s": {"regions.contrapolymatroid_vertex"},
    "regions.optimize_s": {"regions.optimize_bt_inner_sum_rate"},
    "erasure_ceo.noise_info_minimum_s": {"erasure_ceo.noise_info_minimum"},
    "erasure_ceo.shape_reports_s": {"erasure_ceo.g_shape_report", "erasure_ceo.g_root_shape_report"},
    "erasure_ceo.sum_rate_curve_s": {"erasure_ceo.sum_rate_curve", "erasure_ceo.sum_rate_curve_csv"},
    "gaussian_ceo.min_sum_rate_s": {"gaussian_ceo.gaussian_min_sum_rate"},
    "gaussian_ceo.region_contains_s": {"gaussian_ceo.gaussian_region_contains"},
    "gaussian_ceo.oohama_gap_s": {"gaussian_ceo.oohama_gap"},
    "gaussian_ceo.search_s": {"gaussian_ceo.search_bt_counterexample"},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, info=None) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, info]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        index = self.open(name, info)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if measure is not None:
                self.spans[index][4] = measure(args, result)
            return result

        return traced


def install(tracer: Tracer, package: str = "mtsc_bounds"):
    """Wrap the package's public functions in place; returns a function that
    puts the originals back."""
    saved = []

    def replace(target, attr, value):
        saved.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            if (
                isinstance(obj, types.FunctionType)
                and not attr.startswith("_")
                and attr not in UNWRAPPED
                and obj.__module__ == module.__name__
            ):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    joint = sys.modules[f"{package}.prob"].JointPmf
    for attr in JOINT_METHODS:
        replace(joint, attr, tracer.wrap(f"prob.JointPmf.{attr}", vars(joint)[attr]))
    for layer, type_name in FROM_JSON_TYPES:
        cls = getattr(sys.modules[f"{package}.{layer}"], type_name)
        fn = vars(cls)["from_json"].__func__
        replace(cls, "from_json", classmethod(tracer.wrap(f"{layer}.{type_name}.from_json", fn)))
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    replace(module, attr, wrappers[obj])

    def uninstall():
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# Deriving per-layer numbers from one iteration's spans
# ---------------------------------------------------------------------------


class SpanTree:
    """The spans of one traced iteration (a contiguous range of indices)."""

    def __init__(self, spans: list[list], lo: int, hi: int):
        self.spans = spans
        self.range = range(lo, hi)
        self.children: dict[int, list[int]] = {}
        for i in self.range:
            self.children.setdefault(spans[i][3], []).append(i)

    def name(self, i):
        return self.spans[i][0]

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i):
        return self.duration(i) - sum(self.duration(c) for c in self.children.get(i, ()))

    def ancestors(self, i):
        parent = self.spans[i][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def outermost(self, names):
        return [
            i for i in self.range
            if self.name(i) in names and not any(self.name(a) in names for a in self.ancestors(i))
        ]

    def inclusive(self, names):
        return sum(self.duration(i) for i in self.outermost(names))

    def count(self, names):
        return sum(1 for i in self.range if self.name(i) in names)

    def op_info(self, i) -> dict:
        """The benchmark operation a span ran under: its name and tag."""
        for a in self.ancestors(i):
            if self.name(a) == "bench.op":
                return self.spans[a][4]
        return {}

    def evaluator_split(self, i) -> dict:
        """Where one evaluator call's time went, in seconds."""
        kids = self.children.get(i, ())
        model_kids = [c for c in kids if self.name(c).startswith("model.")]

        def part(names):
            return sum(self.duration(c) for c in kids if self.name(c) in names)

        return {
            "total_s": self.duration(i),
            "build_full_joint_s": part({"model.build_full_joint"}),
            "markov_residuals_s": part(MARKOV),
            "expected_distortions_s": part({"model.expected_distortions"}),
            "subset_loop_s": self.duration(i) - sum(self.duration(c) for c in model_kids),
        }


def layer_metrics(tree: SpanTree, op_values: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one iteration (one set-up build and one pass)."""
    m: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in tree.range:
        layer = tree.name(i).split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += tree.self_time(i)
    marginalize = [i for i in tree.range if tree.name(i) == "prob.JointPmf.marginalize"]
    m["prob.cmi_calls"] = len(tree.outermost(INFO_MEASURES))
    m["prob.marginalize_calls"] = len(marginalize)
    m["prob.marginalize_bytes"] = sum(tree.spans[i][4] for i in marginalize)
    m["prob.self_s"] = layer_self["prob"]
    cells = [tree.spans[i][4] for i in tree.range if tree.name(i) == "model.build_full_joint"]
    m["model.joint_cells"] = max(cells, default=0)
    for name, names in INCLUSIVE.items():
        m[name] = tree.inclusive(names)
    evaluators = tree.outermost(EVALUATORS)
    m["regions.subset_loop_s"] = sum(tree.evaluator_split(i)["subset_loop_s"] for i in evaluators)
    m["regions.evaluator_calls"] = tree.count(EVALUATORS)
    m["regions.check_supermodular_calls"] = tree.count({"regions.check_supermodular"})
    optimize = tree.outermost({"regions.optimize_bt_inner_sum_rate"})
    m["regions.optimize_evaluations"] = sum(tree.spans[i][4] for i in optimize)
    m["regions.optimize_evals_per_s"] = (
        m["regions.optimize_evaluations"] / m["regions.optimize_s"] if optimize else 0.0
    )
    gaps = [v["gap_nats"] for v in op_values if v.get("gap_nats") is not None]
    m["regions.opt_gap_nats"] = max(gaps, default=0.0)
    m["cli.self_s"] = layer_self["cli"]
    mains = tree.outermost({"cli.main"})
    for threads in (1, 2):
        tag = f"optimize_threads{threads}"
        m[f"cli.{tag}_s"] = sum(tree.duration(i) for i in mains if tree.op_info(i).get("tag") == tag)
    return m


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(it[k] for it in per_iteration) for k in per_iteration[0]}
