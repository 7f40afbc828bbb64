"""Smoke test: the benchmark's own output checks pass on the current code.

Runs every operation of the ``closed_forms``, ``bounds_wide`` and
``bounds_large`` workloads once and applies each operation's independent
check and its comparison with ``perfbench/reference.json``, as
``perfbench/run.py`` does per operation.
The ``optimize`` workload's one-thread operations run once as well, and must
land in their closed-form window.
Only ``perfbench/workloads.py`` is imported: ``run.py`` rewrites
``os.environ`` on import.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import mtsc_bounds
import mtsc_bounds.cli  # noqa: F401  (the workloads call mb.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:  # dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.parametrize("workload", ["closed_forms", "bounds_wide", "bounds_large"])
def test_benchmark_checks_pass(workload, tmp_path):
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    setup, make_ops = workloads.WORKLOADS[workload]
    state = setup(mtsc_bounds, str(tmp_path), np.random.default_rng(1))
    ops = make_ops(mtsc_bounds, state, np.random.default_rng(1))
    problems = {}
    for op in ops:
        values = op.digest(op.call())
        found = op.check(values)
        ref = reference.get(op.name)
        # A reference that records a raise has no values to compare with.
        if op.compare is not None and not (isinstance(ref, dict) and "raises" in ref):
            found += ["no recorded reference"] if ref is None else op.compare(values, ref)
        if found:
            problems[op.name] = found
    assert ops and problems == {}


def test_optimizer_stays_in_the_closed_form_window(tmp_path):
    workloads = _workloads()
    setup, make_ops = workloads.WORKLOADS["optimize"]
    state = setup(mtsc_bounds, str(tmp_path), np.random.default_rng(1))
    # The two-thread operations repeat these: the thread count is ignored.
    ops = [
        op for op in make_ops(mtsc_bounds, state, np.random.default_rng(1))
        if op.tag == "optimize_threads1"
    ]
    problems = {op.name: found for op in ops if (found := op.check(op.digest(op.call())))}
    assert ops and problems == {}
