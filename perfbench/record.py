#!/usr/bin/env python3
"""Record the reference values that ``run.py`` compares outputs against.

Run from the root of a checkout whose numbers are trusted:

    python3 perfbench/record.py

It runs every workload's operations once and writes, for each operation that
has a recorded reference, the values it produced, or ``{"raises": <type>}``
when it raised, to ``perfbench/reference.json``.  Recording again at a later
commit would make that commit's numbers the reference, so do it only when a
change of reported numbers is intended and reviewed.
"""

import run  # first: it pins the BLAS threads before numpy is imported

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    workdir = os.path.join(run.OUT, f"record-{os.getpid()}")
    os.makedirs(workdir)
    try:
        mb = run.fresh_import()
        for name, (setup_fn, ops_fn) in workloads.WORKLOADS.items():
            state = setup_fn(mb, workdir, np.random.default_rng(0))
            for op in ops_fn(mb, state, np.random.default_rng([0, 1])):
                if op.compare is None:
                    continue
                record = run.run_op(op, None)
                if record.get("problems"):
                    raise SystemExit(f"{op.name} fails its own checks: {record['problems'][:3]}")
                if "error" in record:
                    reference[op.name] = {"raises": record["error"].split(":", 1)[0]}
                else:
                    reference[op.name] = record["values"]
                print(f"{name}: {op.name}: {'raises' if 'error' in record else 'recorded'}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
