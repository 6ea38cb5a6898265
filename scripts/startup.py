"""Time the start-up of impsolve in fresh processes.

Each round starts three fresh interpreters, in turn: ``python -c pass``,
the baseline; a process that imports ``fractions``, ``json`` and
``random``, as a perfbench worker does, and then times ``import impsolve``;
and one that times ``import impsolve.cli`` followed by ``build_parser()``,
the start of every CLI verb.  For each, one row gives the median over the
rounds of the whole process, timed from outside, its difference from the
baseline, and the median of the step timed inside the child.  The package
is byte-compiled first, so no round compiles it.

Usage: python3 scripts/startup.py --runs 40
"""

import argparse
import compileall
import os
import statistics
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# each child prints the seconds of its timed step; the baseline times none
PROBES = (
    ("python -c pass", "pass"),
    ("import impsolve (worker)",
     "import fractions, json, random, time\n"
     "t = time.perf_counter()\n"
     "import impsolve\n"
     "print(time.perf_counter() - t)"),
    ("import impsolve.cli + build_parser()",
     "import time\n"
     "t = time.perf_counter()\n"
     "import impsolve.cli\n"
     "impsolve.cli.build_parser()\n"
     "print(time.perf_counter() - t)"),
)


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def run_once(code, env):
    """Milliseconds of the whole process and of its timed step (None for
    the baseline)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    whole = 1000.0 * (time.perf_counter() - start)
    return whole, 1000.0 * float(done.stdout) if done.stdout else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=positive_int, default=40,
                        help="fresh processes per row, interleaved across the rows")
    args = parser.parse_args()
    compileall.compile_dir(os.path.join(SRC, "impsolve"), quiet=1)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    samples = [[] for _ in PROBES]
    for _ in range(args.runs):
        for k, (_, code) in enumerate(PROBES):
            samples[k].append(run_once(code, env))
    medians = [(statistics.median(whole for whole, _ in rows),
                None if rows[0][1] is None else statistics.median(step for _, step in rows))
               for rows in samples]
    base = medians[0][0]
    print(f"{'median over ' + str(args.runs) + ' processes':38s} "
          f"{'process_ms':>12s} {'over_pass_ms':>12s} {'step_ms':>12s}")
    for (label, _), (whole, step) in zip(PROBES, medians):
        inside = "-" if step is None else f"{step:.3f}"
        print(f"{label:38s} {whole:12.3f} {whole - base:+12.3f} {inside:>12s}")


if __name__ == "__main__":
    main()
