"""Print the result of every in-process benchmark operation, one JSON line each.

Builds the series-solve, certify-sweep and boundary-geometry workloads of
perfbench at one seed and runs each operation once, in this process,
through perfbench's own ``Runner``.  Each line is ``{"id", "result"}`` in
canonical JSON (sorted keys, floats by ``repr``), the id prefixed by its
workload, and the lines are sorted, so two versions of the library agree
on every result exactly when ``diff`` finds no line between their outputs.

Usage: PYTHONPATH=src python3 scripts/op_results.py --seed 31337
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import impsolve  # noqa: E402
import workloads  # noqa: E402
from worker import Runner, run_op  # noqa: E402

WORKLOADS = ("series-solve", "certify-sweep", "boundary-geometry")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    lines = []
    for name in WORKLOADS:
        spec = workloads.build(name, args.seed)
        runner = Runner(spec, impsolve)
        for op in spec["ops"]:
            lines.append(json.dumps({"id": f"{name}/{op['id']}",
                                     "result": run_op(runner, op)},
                                    sort_keys=True, separators=(",", ":")))
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main()
