"""Print the result of every benchmark operation, one JSON line each.

Builds the workloads of perfbench at one seed and runs each operation
once through perfbench's own ``Runner``: the series-solve, certify-sweep
and boundary-geometry operations in this process, the cli-verbs ones as
perfbench runs them, each verb a fresh ``python -m impsolve.cli`` on spec
files in a temporary directory, with the library imported here on its
path; a verb's result is its exit code, stdout and stderr.  Each line is
``{"id", "result"}`` in canonical JSON (sorted keys, floats by ``repr``),
the id prefixed by its workload, and the lines are sorted, so two versions
of the library agree on every result and every CLI byte exactly when
``diff`` finds no line between their outputs.

Usage: PYTHONPATH=src python3 scripts/op_results.py --seed 31337
"""

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import impsolve  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import Runner, run_op  # noqa: E402

WORKLOADS = ("series-solve", "certify-sweep", "boundary-geometry", "cli-verbs")
# the source tree of the imported library, which the CLI processes run too
SRC = os.path.dirname(os.path.dirname(os.path.abspath(impsolve.__file__)))


def results(name, seed):
    """``(id, result)`` of every operation of workload *name* at *seed*."""
    spec = workloads.build(name, seed)
    with tempfile.TemporaryDirectory() as workdir:
        run.write_specs(spec, workdir)
        job = run.base_job(spec, workdir)
        job["env"]["PYTHONPATH"] = SRC
        runner = Runner(job, impsolve)
        return [(f"{name}/{op['id']}", run_op(runner, op)) for op in job["ops"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    lines = [json.dumps({"id": op_id, "result": result}, sort_keys=True,
                        separators=(",", ":"))
             for name in WORKLOADS for op_id, result in results(name, args.seed)]
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main()
