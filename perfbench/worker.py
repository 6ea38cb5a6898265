"""One workload process: set up, run the operation list once, report.

Reads a job as JSON on stdin and writes one JSON document on stdout.  The
clock for ``setup_s`` starts before ``import impsolve`` and stops when
every document is parsed and every comparison equation is built.  After
set-up the operation list runs once, one call at a time, each call timed.
The reference computation of ``calibrate`` is timed just before and just
after set-up, and after every call.  A process never runs the list twice, so nothing
the library keeps from one call (on the parsed objects, in a module-level
cache) can make a repetition cheaper: repetitions come from more
processes.  Nothing here knows the expected answers.
"""

import json
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

import calibrate

# After a call the reference runs for at least this share of the call's
# time, so that a long call is scaled by the machine's speed over a
# comparable stretch of time, not by one 2 ms sample.
REF_SHARE = 0.05


def _num(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _vec(vec):
    return None if vec is None else [_num(e) for e in vec]


def _coords(texts, mode):
    return tuple(Fraction(t) if mode == "exact" else float(t) for t in texts)


class Runner:
    def __init__(self, job, impsolve):
        self.job = job
        self.lib = impsolve
        self.eqs = {name: impsolve.equation_from_dict(doc)
                    for name, doc in job["docs"].items()}
        self.cmps = {name: impsolve.majorant(self.eqs[name])
                     for name in job["majorants"]}

    def run(self, op):
        return getattr(self, "_" + op["kind"])(op)

    def _solve(self, op):
        sol = self.lib.solve_formal(self.eqs[op["doc"]], op["degree"])
        return [[[list(a), _num(v)] for a, v in sorted(comp.terms.items())]
                for comp in sol.phi.components]

    def _membership(self, op):
        cmp = self.cmps[op["doc"]]
        X = self.lib.LatticeVec(_coords(op["X"], cmp.mode))
        got = self.lib.membership(cmp, X, op.get("budget", self.lib.DEFAULT_BUDGET))
        return {"verdict": got.verdict, "Y": _vec(got.principal_Y.entries if got.principal_Y else None),
                "steps": got.iterations_used}

    def _primal(self, op):
        eq = self.eqs[op["doc"]]
        trace = self.lib.iterate_primal(eq, _coords(op["x"], eq.mode), self.cmps[op["doc"]])
        return {"y": [_vec(y) for y in trace.iterates_y],
                "bound": [_vec(b.entries) for b in trace.error_bounds]}

    def _samples(self, op):
        eq = self.eqs[op["doc"]]
        dim = eq.dim_x + eq.dim_y
        box = (self.lib.LatticeVec((-op["half"],) * dim),
               self.lib.LatticeVec((op["half"],) * dim))
        report = self.lib.check_majorant_samples(
            eq, self.cmps[op["doc"]], op["n"], box, check_increments=True,
            rng=random.Random(op["rng"]))
        return {"points": report.points_checked, "increments": report.increments_checked,
                "violations": len(report.violations)}

    def _hille(self, op):
        got = self.lib.hille_point(self.cmps[op["doc"]])
        return {"X": got.X_star, "Y": got.Y_star, "status": got.status}

    def _graph(self, op):
        got = self.lib.trace_graph(self.cmps[op["doc"]], op["ymax"], op["steps"])
        return {"points": [[p.X, p.Y] for p in got.points],
                "turning": got.turning_index, "omitted": len(got.omitted)}

    def _radius(self, op):
        got = self.lib.radius_along_ray(self.cmps[op["doc"]],
                                        self.lib.LatticeVec(tuple(op["direction"])),
                                        tol=op["tol"])
        return {"t_inside": got.t_inside, "t_outside": got.t_outside,
                "unbounded": got.unbounded}

    def _cli(self, op):
        done = subprocess.run([sys.executable, "-m", "impsolve.cli"] + op["argv"],
                              capture_output=True, text=True, timeout=60,
                              env=self.job["env"], cwd=self.job["workdir"])
        return {"code": done.returncode, "stdout": done.stdout,
                "stderr": done.stderr[-2000:]}


def run_op(runner, op):
    try:
        return runner.run(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return {"error": f"{type(exc).__name__}: {exc}"}


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    setup_refs = [calibrate.compute_s()]
    start = time.perf_counter()
    import impsolve
    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Runner(job, impsolve)
    setup_s = time.perf_counter() - start
    setup_refs.append(calibrate.compute_s())
    out = {"setup_s": setup_s, "setup_refs": setup_refs}
    if not job["setup_only"]:
        ops = job["ops"]
        latencies, results, refs = [], [], [calibrate.compute_s()]
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            result = run_op(runner, op)
            latencies.append(time.perf_counter() - t0)
            results.append(result)
            refs.append(calibrate.compute_s(REF_SHARE * latencies[-1]))
        out.update(pass_s=sum(latencies), latencies=latencies, results=results,
                   refs=refs)
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.table()
            out["spans"] = tracer.spans
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
