"""End-to-end tests of the command-line verbs through ``main(argv)``.

Each verb is driven against small equation files written into tmp_path;
exit codes and document shapes are pinned.
"""

import json
from fractions import Fraction

import pytest

from impsolve.cli import main
from impsolve.lattice import MajorantSampleReport, MajorantViolation


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
    assert doc["witness"][0] > 1e9


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


def test_iterate_requires_exactly_one_point(spec_file, capsys):
    path = spec_file(QUAD_MINUS)
    code, _, _ = run(capsys, ["iterate", "--spec", path])
    assert code == 2
    code, _, _ = run(capsys, ["iterate", "--spec", path,
                              "--X", "0.1", "--x", "0.1"])
    assert code == 2


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
    ["hille", "--tol", "-1"],
    ["membership", "--X", "0.2", "--tol", "nan"],
    ["iterate", "--X", "0.2", "--tol=-1e-12"],
    # on an exact spec Fraction(inf) raised OverflowError: a traceback, exit 1
    ["membership", "--X", "1/5", "--tol", "inf"],
])
def test_bad_tol_is_a_usage_error(spec_file, capsys, argv):
    path = spec_file(QUAD_PLUS_EXACT if "1/5" in argv else QUAD_PLUS)
    code, out, err = run(capsys, argv[:1] + ["--spec", path] + argv[1:])
    assert code == 2 and not out
    assert "tol" in err


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


# ---------------------------------------------------------------------------
# frozen documents: the exact stdout text of the record-printing verbs

QUAD_PLUS = dict(QUAD_MINUS, terms=[
    {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
    {"output": 0, "alpha": [0], "beta": [2], "value": "1.0"},
])

EXACT_WITNESS = (
    "3194363658395567605885223511178367541429228139749757914076704696270472"
    "458770544633392925441/5789604461865809771178549250434395392663499233282"
    "0282019728792003956564819968")

FROZEN_DOCUMENTS = [
    (QUAD_PLUS, ["hille"], """\
{
  "X_star": 0.2500000000002274,
  "Y_star": 0.5,
  "residual_fixed": 2.2737367544323206e-13,
  "residual_derivative": 0.0,
  "status": "found"
}
"""),
    (QUAD_PLUS, ["membership", "--X", "0.2"], """\
{
  "verdict": "inside",
  "principal_Y": [
    0.27639320224914243
  ],
  "iterations_used": 43,
  "witness": null
}
"""),
    (QUAD_PLUS, ["membership", "--X", "0.3"], """\
{
  "verdict": "outside",
  "principal_Y": null,
  "iterations_used": 17,
  "witness": [
    237605761386.8204
  ]
}
"""),
    (QUAD_PLUS_EXACT, ["membership", "--X", "3/2"], """\
{
  "verdict": "outside",
  "principal_Y": null,
  "iterations_used": 8,
  "witness": [
    "%s"
  ]
}
""" % EXACT_WITNESS),
    (QUAD_PLUS_EXACT, ["membership", "--X", "1/5", "--budget", "3"], """\
{
  "verdict": "unresolved",
  "principal_Y": null,
  "iterations_used": 3,
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
