"""The impsolve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs of the workload are made from
the seed, the expected answers are computed by the benchmark's own
oracles, and the operation list then runs in fresh single-threaded
worker processes, one after the other, with ``src`` on their path.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
same figures for people, with sample counts and the failed ops.

With ``--trace 0`` the metrics are the end-to-end ones.  Workers run one
after the other until ``--seconds`` have passed, at least four of them;
each is a fresh process that runs the operation list once.  Set-up-only
processes are interleaved so that the run times set-up at least
``SETUP_SAMPLES`` times.  The machine's speed drifts by tens of percent
over seconds, so every time is scaled by the reference computation of
``calibrate``, timed in the same process just before and just after it.
An op's latency is the median of its scaled repetitions across the
workers, set-up time the median of its scaled samples, and memory the
median over the workers.

With ``--trace 1`` the metrics are the per-layer ones.  Untraced workers
run for half of ``--seconds``; then one traced worker runs the operation
list, so its counts repeat exactly for a given seed.  The spans and the
per-layer table are written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
MIN_WORKERS = 4
SETUP_SAMPLES = 30
WORKER_TIMEOUT = 120.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
CLI_VERBS = ("solve", "majorant", "hille", "iterate_comparison", "iterate_primal",
             "membership", "region", "radius", "check")
PER_LAYER = (
    "series.mul.calls", "series.mul.self_s", "series.mul.term_pairs",
    "series.compose.calls", "series.compose.self_s",
    "series.construct.calls", "series.construct.self_s",
    "series.evaluate.calls", "series.evaluate.self_s",
    "solver.solve.calls", "solver.solve.self_s", "solver.rounds",
    "kantorovich.iterate.calls", "kantorovich.iterate.self_s",
    "kantorovich.iterations", "kantorovich.primal.self_s", "kantorovich.unresolved",
    "hille.point.calls", "hille.point.self_s", "hille.graph.self_s",
    "hille.radius.calls", "hille.radius.self_s", "hille.radius.probes",
    "hille.radius.probe_iterations", "hille.radius.width_over_tol",
    "lattice.parse.self_s", "lattice.majorant.self_s", "lattice.samples.self_s",
    "lattice.samples.points",
    "cli.import_ms",
) + tuple(f"cli.{verb}.ms" for verb in CLI_VERBS) + (
    "cli.exit_nonzero", "trace.wall_s", "trace.overhead",
)


def per_layer_unit(name):
    if name.endswith(("width_over_tol", "overhead")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms"):
        return "ms"
    return "count"


class BenchError(Exception):
    """The benchmark cannot produce a result; it exits non-zero."""


# -- processes ----------------------------------------------------------------


def run_worker(job):
    """Run one worker to completion and return its report."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=job["workdir"],
                            env=job["env"], start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"a worker ran longer than {WORKER_TIMEOUT:.0f} s") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"a worker exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out)


def import_ms(job, count=5):
    """Median wall time of ``count`` bare ``import impsolve`` processes."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import impsolve"], check=True,
                       env=job["env"], cwd=job["workdir"], timeout=60)
        times.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(times)


def base_job(spec, workdir):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    ops = []
    for op in spec["ops"]:
        op = {k: v for k, v in op.items() if k != "expect"}
        if op["kind"] == "cli":
            op["argv"] = [os.path.join(workdir, a + ".json") if a in spec["docs"] else a
                          for a in op["argv"]]
        ops.append(op)
    return {"src": SRC, "docs": spec["docs"], "majorants": spec["majorants"],
            "ops": ops, "trace": False, "setup_only": False, "env": env,
            "workdir": workdir}


# -- measuring ----------------------------------------------------------------


def measure(job, seconds):
    """Workers until ``seconds`` have passed, with set-up-only processes
    spread among them so that set-up is timed ``SETUP_SAMPLES`` times."""
    reports, setups = [], []
    start = time.perf_counter()

    def share():
        return min(1.0, (time.perf_counter() - start) / seconds)

    while len(reports) < MIN_WORKERS or share() < 1.0:
        while len(setups) < SETUP_SAMPLES * share():
            setups.append(scaled_setup(run_worker(dict(job, setup_only=True))))
        reports.append(run_worker(job))
        setups.append(scaled_setup(reports[-1]))
    while len(setups) < SETUP_SAMPLES:
        setups.append(scaled_setup(run_worker(dict(job, setup_only=True))))
    return reports, setups


def scaled_setup(report):
    """A process's set-up time, scaled by the mean of the reference
    timings just before and just after it."""
    return calibrate.scale(report["setup_s"], statistics.mean(report["setup_refs"]))


def scaled_latencies(report):
    """A worker's op latencies, each scaled by the mean of the reference
    timings just before and just after it."""
    refs = report["refs"]
    return [calibrate.scale(t, (refs[k] + refs[k + 1]) / 2.0)
            for k, t in enumerate(report["latencies"])]


def grade(spec, reports):
    """Check every worker's results against the oracles.

    Returns the ops attempted and failed, the failures by op id as
    [kind, count], and the ids whose failure is not a known defect.
    """
    ops = spec["ops"]
    first = reports[0]["results"]
    attempted, failures, unknown = 0, {}, []
    for report in reports:
        attempted += len(ops)
        for k, op in enumerate(ops):
            kind = checks.classify(op, report["results"][k])
            if report["results"][k] != first[k]:
                kind = "nondeterministic"
            if kind is None:
                continue
            failures.setdefault(op["id"], [kind, 0])[1] += 1
            if not checks.known_defect(op["id"], kind) and op["id"] not in unknown:
                unknown.append(op["id"])
    failed = sum(count for _, count in failures.values())
    return attempted, failed, failures, unknown


def end_to_end(spec, reports, setups):
    """The end-to-end figures of one run.

    Every op runs once in each of several fresh processes, and every time
    is scaled to the reference speed measured around it (``calibrate``).
    An op's latency is the median of its scaled repetitions; wall_s is the
    sum of those medians, the operation list once; op_p50_ms and op_p90_ms
    are the median and the nearest-rank 90th percentile over the list;
    setup_s is the median of the scaled set-up times.
    """
    nops = len(spec["ops"])
    scaled = [scaled_latencies(r) for r in reports]
    typical = [statistics.median(s[k] for s in scaled) for k in range(nops)]
    raw = [statistics.median(r["latencies"][k] for r in reports) for k in range(nops)]
    p90_rank = math.ceil(0.9 * nops)
    rss_key = "children_maxrss_kb" if spec["ops"][0]["kind"] == "cli" else "maxrss_kb"
    attempted, failed, failures, unknown = grade(spec, reports)
    refs = [ref for r in reports for ref in r["refs"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(typical),
        "op_p50_ms": 1000.0 * statistics.median(typical),
        "op_p90_ms": 1000.0 * sorted(typical)[p90_rank - 1],
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(r[rss_key] for r in reports) / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} processes; unscaled "
                   f"{statistics.median(r['setup_s'] for r in reports):.6g} s",
        "wall_s": f"{nops} ops, each the median of {len(reports)} processes; "
                  f"unscaled {sum(raw):.6g} s; reference "
                  f"{1000.0 * statistics.median(refs):.4g} ms",
        "op_p50_ms": f"over {nops} ops",
        "op_p90_ms": f"rank {p90_rank} of {nops} ops, {nops - p90_rank} beyond",
        "ok_ratio": f"fail_ratio {failed / attempted:.4f} = {failed} failed / "
                    f"{attempted} attempted",
        "peak_rss_mb": f"median of {len(reports)} processes"
                       + (", largest CLI process" if rss_key != "maxrss_kb" else ""),
    }
    return values, notes, attempted, failed, failures, unknown


def per_layer(spec, workload, seed, seconds, job):
    plain, start = [], time.perf_counter()
    while not plain or time.perf_counter() - start < seconds / 2.0:
        plain.append(run_worker(job))
    traced = run_worker(dict(job, trace=True))
    values = {name: 0.0 if per_layer_unit(name) in ("s", "ms", "ratio") else 0
              for name in PER_LAYER}
    values.update({k: v for k, v in traced["layers"].items() if k in values})
    values["cli.import_ms"] = import_ms(job)
    for k, op in enumerate(spec["ops"]):
        if op["kind"] == "cli":
            values[f"cli.{op['verb']}.ms"] = 1000.0 * statistics.median(
                r["latencies"][k] for r in plain + [traced])
            if traced["results"][k]["code"] != 0:
                values["cli.exit_nonzero"] += 1
    values["trace.wall_s"] = traced["pass_s"]
    values["trace.overhead"] = traced["pass_s"] / statistics.median(
        r["pass_s"] for r in plain)
    path = os.path.join(WORK, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed,
                   "ops": [op["id"] for op in spec["ops"]],
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": traced["spans"], "layers": traced["layers"]}, handle)
    return values, plain + [traced], path


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_specs(spec, workdir):
    for name, doc in spec["docs"].items():
        with open(os.path.join(workdir, name + ".json"), "w", encoding="utf-8") as handle:
            handle.write(workloads.dumps(doc))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "impsolve", "__init__.py")):
        raise BenchError(f"no impsolve sources under {SRC}; run from a checkout root")
    compileall.compile_dir(os.path.join(SRC, "impsolve"), quiet=1)
    spec = workloads.build(args.workload, args.seed)
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        write_specs(spec, workdir)
        job = base_job(spec, workdir)
        if args.trace:
            metrics, reports, path = per_layer(spec, args.workload, args.seed,
                                               args.seconds, job)
            attempted, failed, failures, unknown = grade(spec, reports)
            units = {name: per_layer_unit(name) for name in PER_LAYER}
            notes = {}
            print(f"spans and layer table written to {os.path.relpath(path, ROOT)}")
        else:
            reports, setups = measure(job, args.seconds)
            metrics, notes, attempted, failed, failures, unknown = \
                end_to_end(spec, reports, setups)
            units = END_TO_END
    print(f"workload {args.workload}, seed {args.seed}, {len(spec['ops'])} ops per pass")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    for op_id, (kind, count) in failures.items():
        tag = "known defect" if op_id not in unknown else "NOT A KNOWN DEFECT"
        print(f"  failed: {op_id}: {kind} x{count} ({tag})")
    print(json.dumps({"correct": not unknown, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    # a terminated run still stops its workers (see run_worker)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
