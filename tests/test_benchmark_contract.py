"""The benchmark's calls into impsolve, run as one quick test.

``perfbench/worker.py`` drives the library by name and
``perfbench/tracing.py`` wraps named functions and methods, so removing or
renaming one of them breaks the benchmark without failing any other test.
This test builds three workloads from ``perfbench/workloads.py``, runs the
first operation of each kind through the worker, with the tracer
installed, and grades each result with ``perfbench/checks.py``.  It reads
``perfbench/`` and changes nothing there.
"""

import os
import sys

import pytest

import impsolve

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SEED = 23
KINDS = {"series-solve": ("solve",),
         "certify-sweep": ("membership", "primal", "samples"),
         "boundary-geometry": ("hille", "graph", "radius")}


@pytest.fixture(scope="module")
def jobs():
    return {name: workloads.build(name, SEED) for name in KINDS}


@pytest.mark.parametrize("workload", sorted(KINDS))
def test_first_op_of_each_kind_runs_traced(jobs, workload):
    job = jobs[workload]
    firsts = {}
    for op in job["ops"]:
        firsts.setdefault(op["kind"], op)
    assert sorted(firsts) == sorted(KINDS[workload])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner = worker.Runner(job, impsolve)
        for kind, op in sorted(firsts.items()):
            result = worker.run_op(runner, op)
            assert "error" not in result, (op["id"], result)
            failure = checks.classify(op, result)
            assert failure is None or checks.known_defect(op["id"], failure), \
                (op["id"], failure)
    finally:
        tracer.uninstall()
    assert sum(tracer.table()[f"{layer}.calls"] for layer in tracing.LAYERS) > 0
