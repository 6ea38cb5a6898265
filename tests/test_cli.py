"""End-to-end tests of the command-line verbs through ``main(argv)``.

Each verb is driven against small equation files written into tmp_path;
exit codes and document shapes are pinned.
"""

import ast
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import impsolve.cli
from impsolve.cli import build_parser, main
from impsolve.lattice import MajorantSampleReport, MajorantViolation

from helpers import is_pre_fixed, within


QUAD_MINUS = {
    "dim_x": 1, "dim_y": 1, "mode": "float",
    "profile_x": "scalar", "profile_y": "scalar", "degree_cap": 24,
    "terms": [
        {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "-1.0"},
    ],
}

QUAD_PLUS_EXACT = {
    "dim_x": 1, "dim_y": 1, "mode": "exact",
    "profile_x": "scalar", "profile_y": "scalar", "degree_cap": 24,
    "terms": [
        {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1/2"},
    ],
}


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="eq.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve

def test_solve_document(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    code, out, err = run(capsys, ["solve", "--spec", path, "--degree", "4"])
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["source"] == "iterative"
    assert doc["degree_cap"] == 4
    terms = {tuple(t["exponents"]): t["value"]
             for t in doc["components"][0]}
    assert terms[(1,)] == "1.0"
    assert terms[(2,)] == "-1.0"
    assert terms[(3,)] == "2.0"
    assert terms[(4,)] == "-5.0"


def test_solve_exact_values_are_rationals(spec_file, capsys):
    path = spec_file(QUAD_PLUS_EXACT)
    code, out, _ = run(capsys, ["solve", "--spec", path, "--degree", "3"])
    assert code == 0
    terms = {tuple(t["exponents"]): t["value"]
             for t in json.loads(out)["components"][0]}
    # y = x + y^2/2 starts x + x^2/2 + x^3/2
    assert terms[(1,)] == "1"
    assert terms[(2,)] == "1/2"
    assert terms[(3,)] == "1/2"


def test_solve_is_byte_deterministic(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    _, out1, _ = run(capsys, ["solve", "--spec", path])
    _, out2, _ = run(capsys, ["solve", "--spec", path])
    assert out1 == out2


def test_solve_methods_agree(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    _, a, _ = run(capsys, ["solve", "--spec", path, "--degree", "5"])
    _, b, _ = run(capsys, ["solve", "--spec", path, "--degree", "5",
                           "--method", "partition_oracle"])
    da, db = json.loads(a), json.loads(b)
    assert da["components"] == db["components"]
    assert db["source"] == "partition_oracle"


@pytest.mark.parametrize("method", ["iterative", "partition_oracle"])
def test_a_float_solve_that_overflows_is_a_domain_error(spec_file, capsys, method):
    # y = x + 1e300 y^2 has the x^3 coefficient 2e600, and the solve exited 2
    # with "float coefficients must be finite, got inf", blaming the input
    path = spec_file(dict(QUAD_MINUS, terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1e300"}]))
    code, out, err = run(capsys, ["solve", "--spec", path, "--degree", "5",
                                  "--method", method])
    assert (code, out) == (1, "")
    assert err == "error: float coefficients of the solution overflow by degree 3\n"


def test_solve_out_file(spec_file, capsys, tmp_path):
    path = spec_file(QUAD_MINUS)
    target = tmp_path / "sol.json"
    code, out, _ = run(capsys, ["solve", "--spec", path,
                                "--out", str(target)])
    assert code == 0
    assert not out
    assert json.loads(target.read_text())["source"] == "iterative"



def test_unwritable_out_is_a_usage_error_before_the_verb_runs(
        spec_file, capsys, tmp_path, monkeypatch):
    path = spec_file(QUAD_MINUS)
    calls = []
    monkeypatch.setattr("impsolve.cli.solve_formal",
                        lambda *args: calls.append(args))
    for target in (tmp_path / "missing" / "sol.json", tmp_path):
        code, out, err = run(capsys, ["solve", "--spec", path,
                                      "--out", str(target)])
        assert code == 2
        assert not out
        assert err.startswith("error: ") and str(target) in err
        assert "Traceback" not in err
    assert not calls
    assert not (tmp_path / "missing").exists()


def test_failed_verb_leaves_no_out_file(spec_file, capsys, tmp_path):
    path = spec_file(QUAD_MINUS)
    target = tmp_path / "m.json"
    code, out, err = run(capsys, ["membership", "--spec", path, "--X", "0.1",
                                  "--out", str(target)])
    assert code == 2 and err.startswith("error: ")
    assert not target.exists()


# ---------------------------------------------------------------------------
# majorant and the pipeline into the comparison verbs

def test_majorant_document(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    code, out, _ = run(capsys, ["majorant", "--spec", path])
    assert code == 0
    doc = json.loads(out)
    values = [t["value"] for t in doc["terms"]]
    assert values == ["1.0", "1.0"]


def test_comparison_verbs_reject_signed_equations(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    code, _, err = run(capsys, ["membership", "--spec", path,
                                "--X", "0.1"])
    assert code == 2
    assert "majorant verb" in err


def test_unparsable_point_is_a_usage_error(spec_file, capsys):
    path = spec_file(QUAD_PLUS_EXACT)
    code, out, err = run(capsys, ["membership", "--spec", path, "--X", "abc"])
    assert code == 2 and not out
    assert "bad --X" in err


def test_majorant_pipeline(spec_file, capsys, tmp_path):
    path = spec_file(QUAD_MINUS)
    cmp_path = tmp_path / "cmp.json"
    code, _, _ = run(capsys, ["majorant", "--spec", path,
                              "--out", str(cmp_path)])
    assert code == 0
    code, out, _ = run(capsys, ["membership", "--spec", str(cmp_path),
                                "--X", "0.2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "inside"
    assert doc["principal_Y"][0] == pytest.approx(0.27639320225, abs=1e-9)


# ---------------------------------------------------------------------------
# hille, membership, region, radius

def test_hille_document(spec_file, capsys):
    cmp_doc = dict(QUAD_MINUS)
    cmp_doc["terms"] = [
        {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1.0"},
    ]
    path = spec_file(cmp_doc)
    code, out, _ = run(capsys, ["hille", "--spec", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert doc["X_star"] == pytest.approx(0.25, abs=1e-9)
    assert doc["Y_star"] == pytest.approx(0.5, abs=1e-9)
    assert abs(doc["residual_fixed"]) <= 1e-12


def test_membership_outside(spec_file, capsys):
    cmp_doc = dict(QUAD_MINUS)
    cmp_doc["terms"] = [
        {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1.0"},
    ]
    path = spec_file(cmp_doc)
    code, out, _ = run(capsys, ["membership", "--spec", path, "--X", "0.3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "outside"
    assert doc["principal_Y"] is None
    # dPsi/dY = 2Y exceeds 1 at the witness, which no least fixed point allows
    assert 2 * Fraction(doc["witness"][0]) > 1


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


# the first lower bound on Psi(1e200, 0) = 1e200: Psi's nearest value,
# 1e200, times the bracket's lo = 1 - 10 * 2^-52 for Y = X + Y^2
LOWERED = 1e200 * (1 - 10 * 2 ** -52)


@pytest.mark.parametrize("mode, X, witness", [
    ("float", "1e200", LOWERED),
    ("exact", "1" + "0" * 200, LOWERED),
    ("exact", "1" + "0" * 400, sys.float_info.max),
], ids=["float", "exact", "exact beyond floats"])
def test_the_witness_at_a_huge_point_is_its_first_down_iterate(spec_file, capsys, mode,
                                                               X, witness):
    # the second iterate, X + Y(1)^2, overflowed, and the first, X rounded
    # down to floats, was the witness after a divergence test.  The first
    # lower bound, where dPsi/dY = 2Y > 1, is the witness: 1e200 times lo,
    # or at 1e400, beyond the range, Psi in Fraction rounded down, the
    # largest float.  No float Newton runs at 1e400
    doc = dict(QUAD_PLUS_EXACT, mode=mode, terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1"},
    ])
    code, out, _ = run(capsys, ["membership", "--spec", spec_file(doc), "--X", X])
    assert code == 0
    got = json.loads(out, parse_constant=_refuse_constant)
    assert (got["verdict"], got["iterations_used"]) == ("outside", 1)
    assert [Fraction(e) for e in got["witness"]] == [Fraction(witness)]


def test_iterate_through_an_overflow_is_an_outside_trace(spec_file, capsys):
    # 1e10 * 1e300 overflows in the first step; the second step read it and
    # raised, so the verb exited 2.  The trace keeps only the finite Y(0),
    # and being outside it has no bounds
    doc = dict(QUAD_PLUS, terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1e10"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1.0"},
    ])
    code, out, err = run(capsys, ["iterate", "--spec", spec_file(doc),
                                  "--X", "1e300", "--max-iter", "2"])
    assert (code, out, err) == (0, "p,Y0,bound0,delta0\n0,0.0,,0.0\n", "")


def test_membership_answers_for_a_coefficient_below_the_float_range(spec_file, capsys):
    # exact y = x + 10^-400 y^2 is inside at X = 1/5.  Newton ran on a float
    # copy of the comparison, which refused the coefficient: membership
    # answered unresolved and iterate exited 2.  Newton now searches on the
    # coefficient rounded to nearest, 0.0, and the exact check proves Y~
    doc = dict(QUAD_PLUS_EXACT, terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1/1" + "0" * 400},
    ])
    path = spec_file(doc)
    code, out, err = run(capsys, ["membership", "--spec", path, "--X", "1/5"])
    assert (code, err) == (0, "")
    got = json.loads(out)
    Y_tilde = [Fraction(e) for e in got["principal_Y"]]
    assert is_pre_fixed([{(1, 0): 1, (0, 2): Fraction(1, 10 ** 400)}],
                        (Fraction(1, 5),), Y_tilde)
    assert got == {"verdict": "inside",
                   "principal_Y": ["3602879701896433/18014398509481984"],
                   "iterations_used": 2, "witness": None}
    code, out, err = run(capsys, ["iterate", "--spec", path, "--X", "1/5"])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("2,7205759403792793/36028797018963968,")


def test_iterate_x_answers_for_a_coefficient_below_the_float_range(spec_file, capsys):
    # the primal run of exact y = x - 10^-400 y^2 read psi's float copy,
    # which refused the coefficient, and exited 2; the nearest leaf is -0.0
    doc = dict(QUAD_PLUS_EXACT, terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "-1/1" + "0" * 400},
    ])
    code, out, err = run(capsys, ["iterate", "--spec", spec_file(doc), "--x", "1/5"])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "p,Y0,y0,bound0,delta0"
    assert out.splitlines()[-1].split(",")[2] == "7205759403792793/36028797018963968"


def test_iterate_answers_for_a_coefficient_beyond_the_float_range(spec_file, capsys):
    # exact y = x + 10^400 y^2 has no float kernel.  membership answered
    # outside after 1 step while iterate refused the coefficient and exited
    # 2; its trace now steps as membership's does, by Psi in Fraction
    # rounded down, and ends on the witness
    path = spec_file(dict(QUAD_PLUS_EXACT, terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1" + "0" * 400}]))
    code, out, err = run(capsys, ["membership", "--spec", path, "--X", "1/5"])
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert (got["verdict"], got["iterations_used"]) == ("outside", 1)
    code, out, err = run(capsys, ["iterate", "--spec", path, "--X", "1/5"])
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header == "p,Y0,bound0,delta0" and len(rows) == 2
    assert rows[-1].split(",")[1] == got["witness"][0]


def test_region_csv(spec_file, capsys):
    cmp_doc = dict(QUAD_MINUS)
    cmp_doc["terms"] = [
        {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1.0"},
    ]
    path = spec_file(cmp_doc)
    code, out, _ = run(capsys, ["region", "--spec", path,
                                "--ymax", "0.9", "--steps", "90"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Y,X,dPsi_dY,is_turning"
    assert len(lines) == 92
    assert sum(row.endswith(",1") for row in lines[1:]) == 1


@pytest.mark.parametrize("ymax", ["inf", "1e308"])
def test_region_refuses_a_grid_that_overflows(spec_file, capsys, ymax):
    # --ymax inf failed with "float coefficients must be finite, got nan"
    path = spec_file(QUAD_PLUS)
    code, out, err = run(capsys, ["region", "--spec", path,
                                  "--ymax", ymax, "--steps", "3"])
    assert code == 2 and not out
    assert "Y_max" in err


def test_region_refuses_steps_too_large_for_a_float(spec_file, capsys):
    # Y_max * steps raised OverflowError: a traceback and exit 1
    path = spec_file(QUAD_PLUS)
    code, out, err = run(capsys, ["region", "--spec", path, "--steps", str(10 ** 400)])
    assert code == 2 and not out
    assert err == "error: Y_max must be positive, with Y_max * steps finite, got 1.0\n"


@pytest.mark.parametrize("doc, steps, digest", [
    (lambda: QUAD_PLUS, "200",
     "1f8920994095a6593e5aa343718abc64a04d4423b20c8b0c4dee101e16a87b78"),
    (lambda: CUBIC, "900",
     "35f70f5368369d518be528b9ac3cec1ac358889aea7a6f638c0ce4e30667799a"),
], ids=["quad", "cubic"])
def test_region_stdout_is_frozen(spec_file, capsys, doc, steps, digest):
    # sha256 of the whole CSV, recorded when the graph solve bisected X to
    # float resolution: a faster graph solve must not move a bit of a point
    code, out, err = run(capsys, ["region", "--spec", spec_file(doc()),
                                  "--ymax", "1.0", "--steps", steps])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == int(steps) + 2
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_radius_document(spec_file, capsys):
    cmp_doc = dict(QUAD_MINUS)
    cmp_doc["terms"] = [
        {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1.0"},
    ]
    path = spec_file(cmp_doc)
    code, out, _ = run(capsys, ["radius", "--spec", path,
                                "--direction", "1.0", "--tol", "1e-4"])
    assert code == 0
    doc = json.loads(out)
    assert not doc["unbounded"]
    assert doc["t_inside"] <= 0.25 <= doc["t_outside"]


# ---------------------------------------------------------------------------
# iterate

def test_iterate_comparison_csv(spec_file, capsys):
    cmp_doc = dict(QUAD_MINUS)
    cmp_doc["terms"] = [
        {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1.0"},
    ]
    path = spec_file(cmp_doc)
    code, out, _ = run(capsys, ["iterate", "--spec", path, "--X", "0.2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,Y0,bound0,delta0"
    assert lines[1].startswith("0,0.0,")


def test_iterate_primal_csv(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    code, out, _ = run(capsys, ["iterate", "--spec", path, "--x", "0.2"])
    assert code == 0
    assert out.splitlines()[0] == "p,Y0,y0,bound0,delta0"


def test_iterate_primal_divergent_point(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    code, _, err = run(capsys, ["iterate", "--spec", path, "--x", "0.4"])
    assert code == 1
    assert "diverged" in err


@pytest.mark.parametrize("doc, x", [
    (lambda: QUAD_EXACT_MINUS, "-1/10"),
    (lambda: QUAD_MINUS, "-1e-1"),
    (lambda: dict(QUAD_MINUS, dim_x=2, profile_x="componentwise", terms=[
        {"output": 0, "alpha": [1, 0], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [0, 1], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [0, 0], "beta": [2], "value": "-1.0"}]), "-0.1,0.05"),
], ids=["exact", "float", "pair"])
def test_a_negative_primal_point_needs_no_equals_sign(spec_file, capsys, doc, x):
    # argparse read the point as an option: "argument --x: expected one
    # argument", exit 2; only --x=-1/10 worked
    path = spec_file(doc())
    code, out, err = run(capsys, ["iterate", "--spec", path, "--x", x])
    assert (code, err) == (0, "") and out.startswith("p,Y0,")
    assert run(capsys, ["iterate", "--spec", path, f"--x={x}"]) == (code, out, err)


def test_iterate_requires_exactly_one_point(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    code, _, _ = run(capsys, ["iterate", "--spec", path])
    assert code == 2
    code, _, _ = run(capsys, ["iterate", "--spec", path,
                              "--X", "0.1", "--x", "0.1"])
    assert code == 2


QUAD_EXACT = dict(QUAD_PLUS_EXACT, terms=[
    # y = x + y^2, exact
    {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
    {"output": 0, "alpha": [0], "beta": [2], "value": "1"},
])


QUAD_EXACT_MINUS = dict(QUAD_EXACT, terms=[
    # y = x - y^2, exact
    {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
    {"output": 0, "alpha": [0], "beta": [2], "value": "-1"},
])


def test_exact_iterate_prints_exact_images_of_float_iterates(spec_file, capsys):
    # the trace ran in Fraction, whose digits double each step; it now prints
    # the exact image of each float iterate, each bound exactly Y~ - Y(p)
    code, out, err = run(capsys, ["iterate", "--spec", spec_file(QUAD_EXACT),
                                  "--X", "1/5", "--max-iter", "60"])
    assert (code, err) == (0, "")
    header, *lines = out.splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert 2 <= len(rows) <= 61
    Y_tilde = Fraction(rows[0]["bound0"])
    for row in rows:
        Y = Fraction(row["Y0"])
        assert Fraction(float(Y)) == Y
        assert Fraction(row["bound0"]) == Y_tilde - Y


@pytest.mark.parametrize("tol", ["1e-12", "1e-3"])
@pytest.mark.parametrize("doc, point", [
    (QUAD_EXACT, ["--X", "1/5"]),
    (QUAD_EXACT, ["--X", "13/50"]),
    (QUAD_EXACT, ["--X", "251/1000"]),
    (dict(QUAD_MINUS, mode="exact", terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "-1"},
    ]), ["--x", "1/5"]),
], ids=["X 1/5", "X 13/50", "X 251/1000", "x 1/5"])
def test_exact_iterate_finishes(spec_file, capsys, doc, point, tol):
    # an exact trace iterated in Fraction, whose digits double each step,
    # and none of these finished: 13/50 and 251/1000 lie outside, 1/5 inside
    argv = ["iterate", "--spec", spec_file(doc), *point, "--tol", tol]
    code, out, err = within(2.0, lambda: run(capsys, argv))
    assert (code, err) == (0, "")
    assert out.startswith("p,Y0,")


def test_majorant_prints_an_exact_coefficient_of_any_length(spec_file, capsys):
    # a 5,000-digit denominator outgrows the interpreter's 4,300-digit
    # int-to-str guard; the comparison must still print it in full
    denominator = "9" * 5000
    doc = dict(QUAD_EXACT, terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
        {"output": 0, "alpha": [0], "beta": [2], "value": f"-1/{denominator}"},
    ])
    code, out, err = run(capsys, ["majorant", "--spec", spec_file(doc)])
    assert (code, err) == (0, "")
    values = {tuple(t["beta"]): t["value"] for t in json.loads(out)["terms"]}
    assert values[(2,)] == f"1/{denominator}"


# ---------------------------------------------------------------------------
# the README's commands

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(title):
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split(
        "\n## ", 1)[0]


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_every_readme_command_runs(tmp_path, monkeypatch, capsys, mode):
    # the README's example equation, or its exact copy, whose points are
    # written as rationals; solve --method partition_oracle exited 2 at the
    # default degree 10, and the exact iterate lines never finished
    doc = json.loads(_readme_section("The equation file format").split(
        "```json\n", 1)[1].split("```", 1)[0])
    if mode == "exact":
        doc["mode"] = mode
        for term in doc["terms"]:
            term["value"] = str(int(float(term["value"])))
    (tmp_path / "eq.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert run(capsys, ["majorant", "--spec", "eq.json", "--out", "cmp.json"])[0] == 0
    commands = [line.split("#")[0].split()[1:] for line in
                _readme_section("Command line").splitlines()
                if line.startswith("impsolve ")]
    assert len(commands) == 12
    for argv in commands:
        if mode == "exact":
            argv = [str(Fraction(a)) if flag in ("--X", "--x") else a
                    for flag, a in zip([None] + argv, argv)]
        code, _, err = within(10.0, lambda: run(capsys, argv))
        assert (code, err) == (0, ""), argv


# ---------------------------------------------------------------------------
# check

def test_check_reports_clean_samples(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    code, out, _ = run(capsys, ["check", "--spec", path,
                                "--samples", "100"])
    assert code == 0
    doc = json.loads(out)
    assert doc["points_checked"] == 100
    assert doc["increments_checked"] == 100
    assert doc["violations"] == []


MIXED = {
    # y0 = x + y1^2, y1 = x/100 + y0^2/100, the x side measured by the max norm
    "dim_x": 1, "dim_y": 2, "mode": "float",
    "profile_x": "aggregate", "profile_y": "componentwise", "degree_cap": 4,
    "terms": [
        {"output": 0, "alpha": [1], "beta": [0, 0], "value": "1.0"},
        {"output": 0, "alpha": [0], "beta": [0, 2], "value": "1.0"},
        {"output": 1, "alpha": [1], "beta": [0, 0], "value": "0.01"},
        {"output": 1, "alpha": [0], "beta": [2, 0], "value": "0.01"},
    ],
}


def test_check_accepts_the_majorant_of_a_mixed_profile_spec(spec_file, capsys):
    # the majorant collapsed both sides, and check refused it with "the norm
    # profiles do not match the comparison equation dimensions" (exit 2)
    path = spec_file(MIXED)
    code, out, err = run(capsys, ["check", "--spec", path, "--samples", "200"])
    assert (code, err) == (0, "")
    assert json.loads(out)["violations"] == []
    code, out, _ = run(capsys, ["iterate", "--spec", path, "--x", "0.1"])
    assert code == 0 and out.startswith("p,Y0,Y1,y0,y1,bound0,bound1,")


def test_mixed_profile_radius_is_at_least_the_collapsed_one(spec_file, capsys):
    # keeping the y side componentwise can only widen the certified region:
    # collapsing it too gives Y = X + Y^2, radius 1/4
    radii = []
    for profile_y in ("componentwise", "aggregate"):
        path = spec_file(dict(MIXED, profile_y=profile_y))
        code, out, _ = run(capsys, ["majorant", "--spec", path])
        assert code == 0
        cmp_path = spec_file(json.loads(out), name="cmp.json")
        code, out, _ = run(capsys, ["radius", "--spec", cmp_path,
                                    "--direction", "1.0", "--tol", "1e-3"])
        assert code == 0
        radii.append(json.loads(out)["t_inside"])
    assert radii[1] == pytest.approx(0.25, abs=1e-3)
    assert radii[0] >= radii[1]


def test_check_deterministic_under_seed(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    _, a, _ = run(capsys, ["check", "--spec", path, "--samples", "50",
                           "--seed", "9"])
    _, b, _ = run(capsys, ["check", "--spec", path, "--samples", "50",
                           "--seed", "9"])
    assert a == b


def test_check_exact_mode(spec_file, capsys):
    path = spec_file(QUAD_PLUS_EXACT)
    code, out, _ = run(capsys, ["check", "--spec", path,
                                "--samples", "25"])
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_check_refuses_a_box_that_overflows(spec_file, capsys):
    # every sampled value overflowed to inf, which compares false against
    # inf, so nothing could be reported and the check exited 0
    path = spec_file(QUAD_MINUS)
    code, out, err = run(capsys, ["check", "--spec", path, "--box", "1e200"])
    assert code == 2 and not out
    assert "box" in err


def test_check_keeps_a_small_exact_box(spec_file, capsys, monkeypatch):
    # Fraction(1e-7).limit_denominator(10**6) is 0, which collapsed the
    # sampling box to the origin
    boxes = []

    def record(eq, cmp, n_samples, box, **kwargs):
        boxes.append(box)
        return MajorantSampleReport(n_samples, n_samples, ())

    monkeypatch.setattr("impsolve.cli.check_majorant_samples", record)
    path = spec_file(QUAD_PLUS_EXACT)
    code, _, _ = run(capsys, ["check", "--spec", path, "--box", "1e-7"])
    assert code == 0
    lo, hi = boxes[0]
    assert lo.entries == (Fraction(-1, 10**7),) * 2
    assert hi.entries == (Fraction(1, 10**7),) * 2


# ---------------------------------------------------------------------------
# failure exits

def test_missing_file(capsys):
    code, _, err = run(capsys, ["solve", "--spec", "/no/such/file.json"])
    assert code == 2
    assert "cannot read" in err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim_x": 1,,}')
    code, _, err = run(capsys, ["solve", "--spec", str(path)])
    assert code == 2
    assert "line 1" in err


def test_linear_y_term_rejected(spec_file, capsys):
    doc = dict(QUAD_MINUS)
    doc["terms"] = doc["terms"] + [
        {"output": 0, "alpha": [0], "beta": [1], "value": "0.5"}]
    path = spec_file(doc)
    code, _, err = run(capsys, ["solve", "--spec", path])
    assert code == 2
    assert "linear y term" in err


def test_rational_in_float_mode(spec_file, capsys):
    doc = dict(QUAD_MINUS)
    doc["terms"] = [
        {"output": 0, "alpha": [1], "beta": [0], "value": "1/2"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "-1.0"}]
    path = spec_file(doc)
    code, _, err = run(capsys, ["solve", "--spec", path])
    assert code == 2
    assert "rational literal" in err


@pytest.mark.parametrize("argv", [
    ["radius", "--direction", "1.0", "--tol", "nan"],
    ["radius", "--direction", "1.0", "--tol", "-1"],
    ["iterate", "--X", "0.2", "--tol", "nan"],
    ["iterate", "--X", "0.2", "--tol=-1e-12"],
    # on an exact spec Fraction(inf) raised OverflowError: a traceback, exit 1
    ["iterate", "--X", "1/5", "--tol", "inf"],
])
def test_bad_tol_is_a_usage_error(spec_file, capsys, argv):
    path = spec_file(QUAD_PLUS_EXACT if "1/5" in argv else QUAD_PLUS)
    code, out, err = run(capsys, argv[:1] + ["--spec", path] + argv[1:])
    assert code == 2 and not out
    assert "tol must be a finite non-negative number" in err


@pytest.mark.parametrize("argv", [
    ["hille", "--tol", "1e-12"],
    ["membership", "--X", "0.2", "--tol", "1e-12"],
    ["radius", "--direction", "1.0", "--budget", "10000"],
], ids=["hille --tol", "membership --tol", "radius --budget"])
def test_removed_flag_is_unrecognized(spec_file, capsys, argv):
    # hille and membership always run at DEFAULT_TOL, and radius probes at
    # DEFAULT_BUDGET; at --tol 1 membership of X = 0.3 answered inside
    code, out, err = run(capsys, argv[:1] + ["--spec", spec_file(QUAD_PLUS)] + argv[1:])
    assert code == 2 and not out
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err


@pytest.mark.parametrize("argv", [["hille"], ["region"],
                                  ["radius", "--direction", "1.0"]])
def test_coefficient_beyond_the_float_range_is_a_usage_error(spec_file, capsys,
                                                             argv):
    # converting the exact equation to float raised OverflowError: a
    # traceback and exit 1
    path = spec_file(dict(QUAD_PLUS_EXACT, terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
        {"output": 0, "alpha": [0], "beta": [2], "value": str(10 ** 400)}]))
    code, out, err = run(capsys, argv[:1] + ["--spec", path] + argv[1:])
    assert code == 2 and not out
    assert err.startswith("error: coefficient 1000")
    assert err.endswith(" is too large for a float\n")


@pytest.mark.parametrize("argv", [["hille"], ["region"],
                                  ["radius", "--direction", "1.0"]])
def test_coefficient_below_the_float_range_is_a_usage_error(spec_file, capsys,
                                                            argv):
    # No longer a usage error: the verbs answer.  A float copy that dropped
    # the term rounded to 0.0 refused Y = 10^-400 X + Y^2 as not depending
    # on X in hille and region, and answered unbounded in radius, as for
    # Y = Y^2; a copy that refused the term exited 2.  The turn is at
    # X = 2.5e399, beyond the float range, so hille fails, region shows no
    # turn, and radius finds no outside verdict
    path = spec_file(dict(QUAD_PLUS_EXACT, terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": f"1/{10 ** 400}"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1"}]))
    code, out, err = run(capsys, argv[:1] + ["--spec", path] + argv[1:])
    assert "does not depend on X" not in err and "unbounded" not in out
    if argv[0] == "radius":
        assert (code, out) == (1, "")
        assert err == "error: no outside verdict along (1.0) in the float range\n"
    elif argv[0] == "hille":
        assert (code, err) == (0, "")
        assert json.loads(out)["status"] == "failed"
    else:
        assert (code, err) == (0, "")
        assert out.endswith(",0\n") and ",1\n" not in out


@pytest.mark.parametrize("argv, message", [
    (["--box", "inf"], "box"),
    (["--box", "nan"], "box"),
    (["--samples", "-3"], "n_samples"),
    (["--samples", "0"], "n_samples"),
])
def test_check_refuses_an_empty_or_infinite_sample(spec_file, capsys, argv,
                                                    message):
    # --box inf ended in an OverflowError traceback from Fraction(inf), and
    # --samples -3 printed a clean report of zero points
    path = spec_file(QUAD_PLUS_EXACT)
    code, out, err = run(capsys, ["check", "--spec", path] + argv)
    assert code == 2 and not out
    assert message in err


def test_unknown_verb(capsys):
    assert run(capsys, ["frobnicate"])[0] == 2


def test_unknown_flag(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    assert run(capsys, ["solve", "--spec", path, "--frob"])[0] == 2


def test_verb_options_are_frozen():
    # every option is a value some caller must want to vary: one added or
    # removed changes this map on purpose
    verbs = next(a for a in build_parser()._actions if a.choices).choices
    got = {verb: [s for a in p._actions if a.dest != "help" for s in a.option_strings]
           for verb, p in verbs.items()}
    assert got == {
        "solve": ["--spec", "--out", "--degree", "--method"],
        "majorant": ["--spec", "--out"],
        "hille": ["--spec", "--out"],
        "iterate": ["--spec", "--out", "--X", "--x", "--tol", "--max-iter"],
        "membership": ["--spec", "--out", "--X", "--budget"],
        "region": ["--spec", "--out", "--ymax", "--steps"],
        "check": ["--spec", "--out", "--samples", "--seed", "--box"],
        "radius": ["--spec", "--out", "--direction", "--tol"],
    }


def test_every_verb_shares_one_spec_and_one_out_option():
    # each verb declared its own --spec and --out, 8 actions apiece
    verbs = next(a for a in build_parser()._actions if a.choices).choices
    for dest in ("spec", "out"):
        assert len({a for p in verbs.values() for a in p._actions if a.dest == dest}) == 1


def test_only_main_parses_the_spec():
    # each _cmd_* handler called parse_spec itself; main now hands it the equation
    tree = ast.parse(Path(impsolve.cli.__file__).read_text(encoding="utf-8"))
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "parse_spec"}
    assert callers == {"main"}


# ---------------------------------------------------------------------------
# frozen documents: the exact stdout text of the record-printing verbs

QUAD_PLUS = dict(QUAD_MINUS, terms=[
    {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
    {"output": 0, "alpha": [0], "beta": [2], "value": "1.0"},
])

CUBIC = dict(QUAD_MINUS, terms=[
    {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
    {"output": 0, "alpha": [1], "beta": [1], "value": "1.0"},
    {"output": 0, "alpha": [0], "beta": [3], "value": "1.0"},
])

# exact membership's witness is the exact image of the first lower bound
# on Y = 3/2 + Y^2/2: 3/2 times lo = 1 - 10 * 2^-52, 3/2 less 15 ulps
EXACT_WITNESS = "6755399441055729/4503599627370496"

FROZEN_DOCUMENTS = [
    (QUAD_PLUS, ["hille"], """\
{
  "X_star": 0.25,
  "Y_star": 0.49999999999999994,
  "residual_fixed": 0.0,
  "residual_derivative": 1.1102230246251565e-16,
  "status": "found"
}
"""),
    (QUAD_PLUS, ["membership", "--X", "0.2"], """\
{
  "verdict": "inside",
  "principal_Y": [
    0.2763932022500272
  ],
  "iterations_used": 7,
  "witness": null
}
"""),
    (QUAD_PLUS, ["membership", "--X", "0.3"], """\
{
  "verdict": "outside",
  "principal_Y": null,
  "iterations_used": 6,
  "witness": [
    0.6073745738548137
  ]
}
"""),
    (QUAD_PLUS_EXACT, ["membership", "--X", "3/2"], """\
{
  "verdict": "outside",
  "principal_Y": null,
  "iterations_used": 1,
  "witness": [
    "%s"
  ]
}
""" % EXACT_WITNESS),
    (QUAD_PLUS_EXACT, ["membership", "--X", "1/5", "--budget", "3"], """\
{
  "verdict": "inside",
  "principal_Y": [
    "8121010851297099/36028797018963968"
  ],
  "iterations_used": 6,
  "witness": null
}
"""),
    (QUAD_PLUS, ["radius", "--direction", "1.0", "--tol", "1e-4"], """\
{
  "t_inside": 0.249969482421875,
  "t_outside": 0.2500610388815403,
  "unbounded": false
}
"""),
    (QUAD_PLUS_EXACT, ["check", "--samples", "4", "--seed", "3"], """\
{
  "points_checked": 4,
  "increments_checked": 4,
  "violations": []
}
"""),
]


@pytest.mark.parametrize("doc, argv, expected", FROZEN_DOCUMENTS,
                         ids=[" ".join(argv) for _, argv, _ in FROZEN_DOCUMENTS])
def test_record_document_text_is_frozen(spec_file, capsys, doc, argv, expected):
    path = spec_file(doc)
    code, out, err = run(capsys, [argv[0], "--spec", path, *argv[1:]])
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("argv, X, c, root", [
    (["membership", "--X", "0.2"], Fraction(0.2), 1, (1 - 0.2 ** 0.5) / 2),
    (["membership", "--X", "1/5", "--budget", "3"], Fraction(1, 5), Fraction(1, 2),
     1 - 0.6 ** 0.5),
], ids=["float", "exact"])
def test_frozen_inside_documents_hold_a_pre_fixed_point(argv, X, c, root):
    # the oracle behind the frozen inside documents: Y = X + c Y^2 has the
    # least root (1 - sqrt(1 - 4cX))/(2c); the printed principal_Y is exactly
    # a pre-fixed point at X and lies less than 1e-12 above that root
    text = next(out for _, args, out in FROZEN_DOCUMENTS if args == argv)
    (Y,) = map(Fraction, json.loads(text)["principal_Y"])
    assert X + c * Y * Y <= Y
    assert 0 < Y - Fraction(root) < 1e-12


@pytest.mark.parametrize("argv, c", [
    (["membership", "--X", "0.3"], 1),
    (["membership", "--X", "3/2"], Fraction(1, 2)),
], ids=["float", "exact"])
def test_frozen_outside_documents_hold_an_expanding_witness(argv, c):
    # the oracle behind the frozen outside documents: Y = X + c Y^2 has no
    # fixed point beyond X = 1/(4c), and dPsi/dY = 2cY exceeds 1 exactly at
    # the printed witness, which no least fixed point allows
    doc = json.loads(next(out for _, args, out in FROZEN_DOCUMENTS if args == argv))
    X = Fraction(argv[2])
    (Y,) = map(Fraction, doc["witness"])
    assert X > 1 / (4 * c) and 2 * c * Y > 1


def test_trace_without_bounds_text_is_frozen(spec_file, capsys):
    # three steps do not settle at X = 1/4, the boundary, so the trace has
    # no error bounds and their column stays empty
    path = spec_file(QUAD_PLUS)
    code, out, err = run(capsys, ["iterate", "--spec", path, "--X", "0.25",
                                  "--max-iter", "3"])
    assert (code, out, err) == (0, """\
p,Y0,bound0,delta0
0,0.0,,0.0
1,0.25,,0.25
2,0.3125,,0.0625
3,0.34765625,,0.03515625
""", "")


EXACT_AGGREGATE = {
    "dim_x": 2, "dim_y": 2, "mode": "exact",
    "profile_x": "aggregate", "profile_y": "aggregate", "degree_cap": 4,
    "terms": [
        {"output": 0, "alpha": [1, 0], "beta": [0, 0], "value": "1"},
        {"output": 0, "alpha": [0, 0], "beta": [1, 1], "value": "-1/2"},
        {"output": 0, "alpha": [0, 1], "beta": [0, 2], "value": "1/3"},
        {"output": 1, "alpha": [0, 1], "beta": [0, 0], "value": "2/3"},
        {"output": 1, "alpha": [0, 0], "beta": [2, 0], "value": "1/4"},
        {"output": 1, "alpha": [1, 0], "beta": [1, 0], "value": "-1/5"},
    ],
}

FLOAT_1X2 = {
    "dim_x": 1, "dim_y": 2, "mode": "float",
    "profile_x": "componentwise", "profile_y": "componentwise",
    "degree_cap": 6,
    "terms": [
        {"output": 0, "alpha": [1], "beta": [0, 0], "value": "1.0"},
        {"output": 0, "alpha": [0], "beta": [1, 1], "value": "-0.5"},
        {"output": 1, "alpha": [2], "beta": [0, 0], "value": "0.25"},
        {"output": 1, "alpha": [0], "beta": [2, 0], "value": "-1.5"},
        {"output": 1, "alpha": [1], "beta": [0, 1], "value": "0.75"},
    ],
}


def _term(output, alpha, beta, value):
    return {"output": output, "alpha": alpha, "beta": beta, "value": value}


# the comparison documents are written with componentwise profiles, terms
# sorted by total degree and then by exponents
FROZEN_MAJORANTS = [
    (QUAD_MINUS, {
        "dim_x": 1, "dim_y": 1, "mode": "float",
        "profile_x": "componentwise", "profile_y": "componentwise",
        "degree_cap": 24,
        "terms": [_term(0, [1], [0], "1.0"), _term(0, [0], [2], "1.0")]}),
    (EXACT_AGGREGATE, {
        "dim_x": 1, "dim_y": 1, "mode": "exact",
        "profile_x": "componentwise", "profile_y": "componentwise",
        "degree_cap": 4,
        "terms": [_term(0, [1], [0], "1"), _term(0, [0], [2], "1/2"),
                  _term(0, [1], [1], "1/5"), _term(0, [1], [2], "1/3")]}),
    (FLOAT_1X2, {
        "dim_x": 1, "dim_y": 2, "mode": "float",
        "profile_x": "componentwise", "profile_y": "componentwise",
        "degree_cap": 6,
        "terms": [_term(0, [1], [0, 0], "1.0"), _term(0, [0], [1, 1], "0.5"),
                  _term(1, [0], [2, 0], "1.5"), _term(1, [1], [0, 1], "0.75"),
                  _term(1, [2], [0, 0], "0.25")]}),
]


@pytest.mark.parametrize("doc, expected", FROZEN_MAJORANTS,
                         ids=["scalar-float", "aggregate-exact-2x2",
                              "componentwise-float-1x2"])
def test_majorant_document_text_is_frozen(spec_file, capsys, doc, expected):
    path = spec_file(doc)
    code, out, err = run(capsys, ["majorant", "--spec", path])
    assert (code, out, err) == (0, json.dumps(expected, indent=2) + "\n", "")

CHECK_WITH_VIOLATIONS = """\
{
  "points_checked": 2,
  "increments_checked": 1,
  "violations": [
    {
      "kind": "value",
      "component": 0,
      "point": [
        %s,
        %s
      ],
      "increment": null,
      "lhs": %s,
      "rhs": %s
    },
    {
      "kind": "increment",
      "component": 0,
      "point": [
        %s,
        %s
      ],
      "increment": [
        %s,
        %s
      ],
      "lhs": %s,
      "rhs": %s
    }
  ]
}
"""


@pytest.mark.parametrize("doc, num, rendered", [
    (QUAD_PLUS_EXACT, Fraction,
     ('"1/3"', '"-1/4"', '"5/7"', '"1/2"', '"1/8"', '"0"', '"1/16"',
      '"3/2"', '"2"', '"-1/3"')),
    (QUAD_MINUS, lambda a, b: a / b,
     ("0.3333333333333333", "-0.25", "0.7142857142857143", "0.5", "0.125",
      "0.0", "0.0625", "1.5", "2.0", "-0.3333333333333333")),
], ids=["exact", "float"])
def test_check_document_lists_violations(spec_file, capsys, monkeypatch,
                                         doc, num, rendered):
    report = MajorantSampleReport(2, 1, (
        MajorantViolation("value", 0, (num(1, 3), num(-1, 4)), None,
                          num(5, 7), num(1, 2)),
        MajorantViolation("increment", 0, (num(1, 8), num(0, 1)),
                          (num(1, 16), num(3, 2)), num(2, 1), num(-1, 3)),
    ))
    monkeypatch.setattr("impsolve.cli.check_majorant_samples",
                        lambda *args, **kwargs: report)
    path = spec_file(doc)
    code, out, _ = run(capsys, ["check", "--spec", path, "--samples", "2"])
    assert (code, out) == (0, CHECK_WITH_VIOLATIONS % rendered)
