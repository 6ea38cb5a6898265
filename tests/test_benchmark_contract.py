"""The benchmark's calls into impsolve, run as one quick test.

``perfbench/worker.py`` drives the library by name and
``perfbench/tracing.py`` wraps named functions and methods, so removing or
renaming one of them breaks the benchmark without failing any other test.
This test builds three workloads from ``perfbench/workloads.py``, runs the
first operation of each kind through the worker, with the tracer
installed, and grades each result with ``perfbench/checks.py``.  It reads
``perfbench/`` and changes nothing there.  A second test holds each
committed ``BENCH_<n>.json`` from 28 on to the shape and the claim it records.
"""

import json
import os
import re
import statistics
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


ROOT = os.path.dirname(PERFBENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    END_TO_END = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
RECORDS = sorted(name for name in os.listdir(ROOT)
                 if (m := re.fullmatch(r"BENCH_(\d+)\.json", name)) and int(m[1]) >= 28)


@pytest.mark.parametrize("name", RECORDS)
def test_each_benchmark_record_holds_its_claim(name):
    # a committed BENCH_<n>.json backs a speed claim: every run names its
    # side, pair and worker count and carries every end-to-end metric, and
    # on the claimed workload, over at least 3 pairs, the change's median
    # beats the parent's in the direction BENCHMARK.json gives
    with open(os.path.join(ROOT, name)) as f:
        record = json.load(f)
    assert {"seed", "check_seed", "seconds", "python", "nproc", "claimed",
            "workloads"} <= set(record)
    for workload in record["workloads"].values():
        for run in workload["runs"]:
            assert run.get("side") in ("parent", "change") and type(run.get("pair")) is int
            assert type(run.get("workers")) is int
            assert set(END_TO_END) <= set(run["metrics"])
    workload, metric = record["claimed"]["workload"], record["claimed"]["metric"]
    runs = record["workloads"][workload]["runs"]
    sides = {side: {r["pair"]: r["metrics"][metric] for r in runs if r["side"] == side}
             for side in ("parent", "change")}
    assert len(set(sides["parent"]) & set(sides["change"])) >= 3
    parent, change = (statistics.median(sides[side].values()) for side in sides)
    assert change < parent if END_TO_END[metric] == "lower" else change > parent
