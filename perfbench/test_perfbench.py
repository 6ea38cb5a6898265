"""Tests of the benchmark itself: oracles, failure classification, names, inputs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- the oracles agree with the values frozen in tests/ -----------------------


def test_catalan_coefficients_match_the_frozen_regression():
    # tests/test_acceptance.py::test_01: x^n has coefficient Catalan(n - 1)
    want = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]
    assert oracles.quadratic_coefficients(Fraction(1), 12) == want
    doc = workloads.quadratic_doc(1, "exact", 12)
    phi = oracles.solve_series(doc, 12)
    assert phi == [{(n,): Fraction(c) for n, c in enumerate(want, start=1)}]


def test_quadratic_family_closed_form():
    got = oracles.quadratic_coefficients(Fraction(2), 4)
    assert got == [1, 2, 8, 40]  # c^(n-1) * Catalan(n-1) with c = 2
    doc = workloads.quadratic_doc(Fraction(2), "exact", 4)
    assert oracles.solve_series(doc, 4) == [{(n,): Fraction(v) for n, v in
                                             enumerate(got, start=1)}]


def test_ratio_estimate_matches_the_frozen_value():
    # tests/test_acceptance.py::test_03: the ratio at degree 50 is 50/194
    c = oracles.quadratic_coefficients(Fraction(1), 50)
    assert Fraction(c[48], c[49]) == Fraction(50, 194)


def test_turning_points_match_the_frozen_values():
    # tests/test_hille.py: X* = 1/4, Y* = 1/2 for Y = X + Y^2; X* = 1/8 for
    # the doubled X coefficient; the cubic's bisection oracle
    assert oracles.quadratic_x_star(1.0) == 0.25
    assert oracles.quadratic_root(1.0, 0.25) == 0.5
    assert oracles.quadratic_x_star(2.0) == 0.125
    x_star, y_star = oracles.cubic_turning_point()
    assert abs(x_star - 0.25) <= 1e-12 and abs(y_star - 0.5) <= 1e-12


def test_principal_roots_are_fixed_points():
    for x in (0.05, 0.2, 0.2499):
        y = oracles.quadratic_root(1.0, x)
        assert abs(x + y * y - y) <= 1e-15
        s = oracles.signed_quadratic_root(x)
        assert abs(x - s * s - s) <= 1e-15
        t = oracles.cubic_root(x)
        assert abs(x + x * t + t ** 3 - t) <= 1e-12


def test_comparison_iterates_match_the_frozen_trace():
    # tests/test_kantorovich.py: Y = X + Y^2 at X = 1/4 from zero
    Y, got = 0.0, [0.0]
    for _ in range(3):
        Y = 0.25 + Y * Y
        got.append(Y)
    assert got == [0.0, 0.25, 0.3125, 0.34765625]


def test_ray_crossing_finds_known_radii():
    quad = [{(1, 0): 1.0, (0, 2): 1.0}]
    assert abs(oracles.ray_crossing(quad) - 0.25) <= 1e-12
    # two uncoupled copies of Y = X + 2 Y^2 cross at 1/8
    pair = [{(1, 0, 0): 1.0, (0, 2, 0): 2.0}, {(1, 0, 0): 1.0, (0, 0, 2): 2.0}]
    assert abs(oracles.ray_crossing(pair) - 0.125) <= 1e-12


def test_series_oracle_matches_hand_expansion():
    # y = x + x*y + y^3: y = x + x^2 + x^3 + 2 x^4 + ...
    doc = workloads.cubic_doc("exact", 4)
    assert oracles.solve_series(doc, 4) == [{(1,): 1, (2,): 1, (3,): 2, (4,): 5}]


# -- failure classification ------------------------------------------------------


def _op(kind, expect, **extra):
    return dict({"id": f"{kind}/x", "kind": kind, "expect": expect}, **extra)


def test_a_wrong_verdict_fails():
    op = _op("membership", {"verdict": "outside"})
    assert checks.classify(op, {"verdict": "inside", "Y": [0.1], "steps": 3}) == "wrong_verdict"
    assert checks.classify(op, {"verdict": "outside", "Y": None, "steps": 3}) is None
    assert checks.classify(op, {"verdict": "unresolved", "Y": None, "steps": 3}) == "unresolved"


def test_a_bracket_wider_than_its_tol_fails():
    op = _op("radius", {"t_star": 0.25, "tol": 1e-6})
    wide = {"t_inside": 0.25 - 1e-6, "t_outside": 0.25 + 1e-6, "unbounded": False}
    tight = {"t_inside": 0.25 - 4e-7, "t_outside": 0.25 + 4e-7, "unbounded": False}
    missed = {"t_inside": 0.2501, "t_outside": 0.2502, "unbounded": False}
    assert checks.classify(op, wide) == "too_wide"
    assert checks.classify(op, tight) is None
    assert checks.classify(op, missed) == "wrong_verdict"


def test_an_exception_fails():
    op = _op("solve", {"exact": True, "components": []})
    assert checks.classify(op, {"error": "ValueError: boom"}) == "raised"


def test_an_error_bound_below_the_true_error_fails():
    op = _op("primal", {"y": 0.5})
    assert checks.classify(op, {"y": [[0.0], [0.5]], "bound": [[0.6], [0.0]]}) is None
    assert checks.classify(op, {"y": [[0.0], [0.5]], "bound": [[0.4], [0.0]]}) == "bound_violated"


def test_wrong_series_coefficients_fail():
    op = _op("solve", {"exact": False, "components": [[[[1], 1.0, 1.0], [[2], 2.0, 4.0]]]})
    assert checks.classify(op, [[[[1], 1.0], [[2], 2.0]]]) is None
    assert checks.classify(op, [[[[1], 1.0], [[2], 2.1]]]) == "wrong_value"
    assert checks.classify(op, [[[[1], 1.0], [[2], 2.0], [[3], 1.0]]]) == "wrong_value"


def test_only_listed_defects_are_known():
    assert checks.known_defect("radius/quad-c1.0", "too_wide")
    assert not checks.known_defect("radius/quad-c1.0", "wrong_verdict")
    assert not checks.known_defect("membership/quad-c1.0@0.5", "wrong_verdict")
    # ops of the same kind that pass today are not covered
    assert not checks.known_defect("radius/cubic", "too_wide")
    assert not checks.known_defect("primal/signed-quad@0.2", "bound_violated")


def test_every_known_defect_names_an_op():
    ids = {op["id"] for workload in workloads.WORKLOADS
           for op in workloads.build(workload, 1)["ops"]}
    assert set(checks.KNOWN_DEFECTS) <= ids


# -- scaling by the reference ----------------------------------------------------


def test_the_reference_never_imports_impsolve():
    code = ("import sys, calibrate; calibrate.compute_s(); "
            "print(any(m.split('.')[0] == 'impsolve' for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_the_reference_runs_for_its_span():
    start = time.perf_counter()
    assert calibrate.compute_s(0.02) > 0.0
    assert time.perf_counter() - start >= 0.02


def test_a_time_is_scaled_by_the_references_on_either_side():
    nominal = calibrate.NOMINAL_S
    assert calibrate.scale(0.5, nominal) == 0.5
    report = {"latencies": [0.3, 0.1], "refs": [nominal, 2 * nominal, 2 * nominal]}
    got = run.scaled_latencies(report)
    assert abs(got[0] - 0.2) <= 1e-12 and abs(got[1] - 0.05) <= 1e-12
    setup = {"setup_s": 0.06, "setup_refs": [nominal, 3 * nominal]}
    assert abs(run.scaled_setup(setup) - 0.03) <= 1e-12


# -- names ---------------------------------------------------------------------


def _benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_and_workload_names_are_plain():
    bench = _benchmark()
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_benchmark_file_lists_what_the_run_prints():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in bench["per_layer"])
    verbs = [op["verb"] for op in workloads.build("cli-verbs", 1)["ops"]]
    assert verbs == list(run.CLI_VERBS)


# -- inputs ----------------------------------------------------------------------


def _documents(workload, seed):
    spec = workloads.build(workload, seed)
    return {name: workloads.dumps(doc) for name, doc in spec["docs"].items()}


def test_the_same_seed_gives_byte_identical_documents():
    for workload in workloads.WORKLOADS:
        assert _documents(workload, 7) == _documents(workload, 7)


def test_another_seed_changes_the_random_systems():
    a, b = _documents("series-solve", 1), _documents("series-solve", 2)
    assert a["catalan-exact"] == b["catalan-exact"]
    assert a["random2-2x2-exact"] != b["random2-2x2-exact"]
