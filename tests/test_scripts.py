"""Smoke runs of the demo scripts, each as its own process."""

import os
import subprocess
import sys
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
])
def test_script_runs_to_its_closing_line(argv, closing):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip("\n").splitlines()[-1] == closing


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
