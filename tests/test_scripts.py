"""Smoke runs of the demo scripts, each as its own process."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, closing", [
    (["scripts/quadratic_demo.py", "--degree", "8"],
     "all three target the radius 0.25"),
    # the ratio estimate needs ten consecutive coefficients
    (["scripts/radius_sweep.py", "--curvatures", "1", "--degree", "10"],
     "the ratio column converges to the closed form like O(1/n); "
     "the other two agree to their tolerances"),
    # the turn at X* = 2.5e6 was reported unbounded, and printing its None
    # X_star raised TypeError
    (["scripts/radius_sweep.py", "--curvatures", "1e-7", "--degree", "10"],
     "the ratio column converges to the closed form like O(1/n); "
     "the other two agree to their tolerances"),
])
def test_script_runs_to_its_closing_line(argv, closing):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip("\n").splitlines()[-1] == closing


def test_the_cauchy_column_lies_below_the_closed_form_by_a_factor_near_4():
    # Cauchy's bound on y = x + c y^2 tends to X*/4 as its polydisc grows, so
    # on a grid reaching 2^40 the best is at most X* / 4 and barely below it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/radius_sweep.py", "--curvatures", "0.5,1,2,4,1e-7",
         "--degree", "10"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:6]]
    assert [row[0] for row in rows] == ["0.5", "1", "2", "4", "1e-07"]
    for c, *_, cauchy, ratio in rows:
        assert 0 < Fraction(cauchy) <= 1 / (4 * Fraction(float(c)))
        assert 4 <= float(ratio) < (4.01 if c != "1e-07" else 4.1)
    # the cubic y = x + xy + y^3 turns at X* = 1/4; its best bound is 1/36,
    # at the interior point a = 1/4, b = 1/2 of the grid, rounded down
    label, exact, *_, cauchy, ratio = done.stdout.splitlines()[6].split()
    assert (label, exact) == ("cubic", "0.25000000")
    assert 0 < Fraction(cauchy) <= Fraction(1, 4)
    assert ratio == "9.00000"


def test_radius_sweep_rejects_a_degree_below_ten():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "scripts/radius_sweep.py", "--curvatures", "1",
         "--degree", "8"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "--degree must be at least 10" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv, message", [
    # the point lies outside the certified region: a DomainError traceback
    (["scripts/quadratic_demo.py", "--x", "0.3"], "--x"),
    (["scripts/quadratic_demo.py", "--degree", "0"], "--degree"),
    # c = 0 divided by zero in the closed form; c < 0 is no comparison
    (["scripts/radius_sweep.py", "--curvatures", "0"], "--curvatures"),
    (["scripts/radius_sweep.py", "--curvatures", "-1"], "--curvatures"),
    (["scripts/radius_sweep.py", "--tol", "nan"], "--tol"),
    # an infinite tol left every ray bracket unrefined
    (["scripts/radius_sweep.py", "--tol", "inf"], "--tol"),
])
def test_script_refuses_an_out_of_range_option(argv, message):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr


@pytest.fixture(scope="module")
def op_results_at_seed_7():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "scripts/op_results.py", "--seed", "7"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_op_results_prints_one_sorted_line_per_op(op_results_at_seed_7):
    # 13 series-solve ops, 83 certify-sweep ops (72 membership, 6 primal,
    # 5 samples), 13 boundary-geometry ops and 9 cli-verbs ops
    lines = op_results_at_seed_7
    assert len(lines) == 118 and lines == sorted(lines)
    ops = [json.loads(line) for line in lines]
    assert len({op["id"] for op in ops}) == 118
    assert not any("error" in op["result"] for op in ops if isinstance(op["result"], dict))


def test_op_results_prints_the_bytes_of_every_cli_verb(op_results_at_seed_7):
    # each verb ran as a fresh process on the library under test, and its
    # line holds the exit code, stdout and stderr, so one diff covers them
    ops = [json.loads(line) for line in op_results_at_seed_7
           if line.startswith('{"id":"cli-verbs/')]
    assert [op["id"] for op in ops] == sorted(
        f"cli-verbs/cli/{verb}" for verb in ("solve", "majorant", "hille",
                                             "iterate_comparison", "iterate_primal",
                                             "membership", "region", "radius", "check"))
    for op in ops:
        assert op["result"]["code"] == 0 and op["result"]["stderr"] == "", op
        assert op["result"]["stdout"].endswith("\n")
    results = {op["id"]: op["result"] for op in ops}
    assert json.loads(results["cli-verbs/cli/hille"]["stdout"])["status"] == "found"
    assert len(results["cli-verbs/cli/region"]["stdout"].splitlines()) == 202


def test_op_results_prints_canonical_json_and_the_same_bytes_twice(op_results_at_seed_7):
    # every "no result moved" claim is a diff of two runs of the script, so
    # each line must be canonical and a rerun of one commit must match it
    lines = op_results_at_seed_7
    ids = [json.loads(line)["id"] for line in lines]
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line
    assert ids == sorted(set(ids))
    assert {i.split("/")[0] for i in ids} == {
        "series-solve", "certify-sweep", "boundary-geometry", "cli-verbs"}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    again = subprocess.run([sys.executable, "scripts/op_results.py", "--seed", "7"],
                           cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert again.returncode == 0, again.stderr
    assert again.stdout == "\n".join(lines) + "\n"


def test_startup_prints_a_row_per_probe_against_the_baseline():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "scripts/startup.py", "--runs", "2"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[-3:] == ["process_ms", "over_pass_ms", "step_ms"]
    assert [row[:38].rstrip() for row in rows] == [
        "python -c pass", "import impsolve (worker)", "import impsolve.cli + build_parser()"]
    (base, zero, none), *probes = [row[38:].split() for row in rows]
    assert float(zero) == 0.0 and none == "-"
    for whole, over, step in probes:
        assert abs(float(over) - (float(whole) - float(base))) <= 0.002
        assert 0 < float(step) < float(whole)
