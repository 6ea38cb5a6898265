"""Ordered-vector operations, norm profiles, majorant construction, and the
equation file format.

Majorant examples were expanded by hand; the coefficientwise domination
property is checked against the naive composition oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from impsolve import (
    AGGREGATE,
    COMPONENTWISE,
    EXACT,
    FLOAT,
    SCALAR,
    ComparisonEquation,
    EquationSpec,
    LatticeVec,
    Series,
    SeriesMap,
    SpecFormatError,
    check_majorant_samples,
    compose_series,
    equation_from_dict,
    equation_to_dict,
    majorant,
    norm,
    series_abs,
)
from impsolve.lattice import PROFILE_KINDS

from helpers import quadratic_equation, random_equation


def F(n, d=1):
    return Fraction(n, d)


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def frac_vecs(draw, dim=3):
    return LatticeVec(tuple(draw(fractions) for _ in range(dim)))


# ---------------------------------------------------------------------------
# lattice vectors

def test_dimension_mismatch():
    with pytest.raises(ValueError):
        LatticeVec((1,)) + LatticeVec((1, 2))


# ---------------------------------------------------------------------------
# norm profiles

def test_profile_values():
    assert norm(SCALAR, (-2,)).entries == (2,)
    assert norm(COMPONENTWISE, (1, -3)).entries == (1, 3)
    assert norm(AGGREGATE, (1, -3)).entries == (3,)


def test_scalar_profile_needs_dim_one():
    psi = SeriesMap((Series(3, 4, {(1, 0, 0): 1.0}, FLOAT),
                     Series(3, 4, {(1, 0, 0): 1.0}, FLOAT)))
    with pytest.raises(ValueError, match="one-dimensional"):
        EquationSpec(1, 2, psi, COMPONENTWISE, SCALAR)


@given(frac_vecs(), frac_vecs(), fractions)
def test_norm_axioms(a, b, t):
    for profile in (COMPONENTWISE, AGGREGATE):
        na = norm(profile, a)
        assert all(e >= 0 for e in na.entries)
        assert (na.entries == tuple(0 for _ in na.entries)) == \
            (a.entries == (0, 0, 0))
        scaled = norm(profile, LatticeVec(tuple(t * e for e in a.entries)))
        assert scaled.entries == na.scale(abs(t)).entries
        triangle = zip(norm(profile, a + b).entries,
                       (na + norm(profile, b)).entries)
        assert all(lhs <= rhs for lhs, rhs in triangle)


# ---------------------------------------------------------------------------
# majorant construction

def test_majorant_componentwise_flips_signs():
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    cmp_eq = majorant(eq)
    assert cmp_eq.dim_x == 1 and cmp_eq.dim_y == 1
    assert dict(cmp_eq.psi.components[0].terms) == {(1, 0): 1.0, (0, 2): 1.0}


def test_majorant_aggregate_collapse():
    # psi = (x - y2^2, 2*x*y1) with an aggregate profile on y collapses to
    # one norming variable per side: Psi = X + 2XY + Y^2.
    comp0 = Series(3, 8, {(1, 0, 0): 1.0, (0, 0, 2): -1.0}, FLOAT)
    comp1 = Series(3, 8, {(1, 1, 0): 2.0}, FLOAT)
    eq = EquationSpec(1, 2, SeriesMap((comp0, comp1)), COMPONENTWISE, AGGREGATE)
    cmp_eq = majorant(eq)
    assert cmp_eq.dim_x == 1 and cmp_eq.dim_y == 1
    assert dict(cmp_eq.psi.components[0].terms) == {
        (1, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_majorant_aggregate_takes_largest_component_sum():
    # both outputs carry bidegree (0, 2) mass: 1 + 2 = 3 in the first
    # component against 1 in the second, so the collapse keeps 3.
    comp0 = Series(3, 8, {(0, 2, 0): 1.0, (0, 0, 2): -2.0}, FLOAT)
    comp1 = Series(3, 8, {(0, 1, 1): 1.0, (1, 0, 0): 1.0}, FLOAT)
    eq = EquationSpec(1, 2, SeriesMap((comp0, comp1)), AGGREGATE, AGGREGATE)
    cmp_eq = majorant(eq)
    assert dict(cmp_eq.psi.components[0].terms) == {(0, 2): 3.0, (1, 0): 1.0}


def test_majorant_idempotent_on_positive_equations():
    rng = random.Random(11)
    for _ in range(5):
        eq, _ = random_equation(rng, mode=FLOAT)
        pos = majorant(eq)
        eq2 = EquationSpec(eq.dim_x, eq.dim_y, pos.psi,
                           eq.profile_x, eq.profile_y)
        again = majorant(eq2)
        for a, b in zip(again.psi.components, pos.psi.components):
            assert dict(a.terms) == dict(b.terms)


def test_comparison_rejects_negative_coefficients():
    with pytest.raises(ValueError, match="positive type"):
        ComparisonEquation(1, 1, SeriesMap((
            Series(2, 8, {(1, 0): 1.0, (0, 2): -1.0}, FLOAT),)))



def test_comparison_is_an_equation_with_componentwise_profiles():
    cmp_eq = majorant(quadratic_equation(mode=EXACT, sign=-1))
    assert isinstance(cmp_eq, EquationSpec)
    assert cmp_eq.profile_x == COMPONENTWISE
    assert cmp_eq.profile_y == COMPONENTWISE
    assert cmp_eq.as_float().mode == FLOAT
    assert isinstance(cmp_eq.as_float(), ComparisonEquation)


def test_comparison_serializes_as_an_equation():
    eq = quadratic_equation(mode=EXACT, sign=-1)
    doc = equation_to_dict(majorant(eq))
    assert doc == dict(equation_to_dict(eq), terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1"}])
    back = equation_from_dict(doc)
    assert equation_to_dict(ComparisonEquation(back.dim_x, back.dim_y, back.psi)) == doc


def test_comparison_dominates_itself_on_samples():
    for mode, half in ((FLOAT, 0.1), (EXACT, F(1, 10))):
        cmp_eq = majorant(quadratic_equation(mode=mode, sign=-1))
        box = (LatticeVec((-half, -half)), LatticeVec((half, half)))
        report = check_majorant_samples(cmp_eq, cmp_eq, 40, box,
                                        check_increments=True,
                                        rng=random.Random(2))
        assert report.ok and report.points_checked == 40

@given(st.integers(0, 10_000))
def test_composition_domination_coefficientwise(seed):
    """Coefficients of g(f) are dominated by those of |g|(|f|)."""
    rng = random.Random(seed)
    def small(num_vars, zero_const):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            expo = tuple(rng.randint(0, 2) for _ in range(num_vars))
            if zero_const and sum(expo) == 0:
                continue
            terms[expo] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        return Series(num_vars, 6, terms, EXACT)
    g = small(2, zero_const=False)
    f1 = small(2, zero_const=True)
    f2 = small(2, zero_const=True)
    got = compose_series(g, [f1, f2])
    dom = compose_series(series_abs(g), [series_abs(f1), series_abs(f2)])
    for gamma, value in got.terms.items():
        assert abs(value) <= dom.coefficient(gamma)


# ---------------------------------------------------------------------------
# sampled majorant checks

def _box(dim, half=0.1):
    return (LatticeVec((-half,) * dim), LatticeVec((half,) * dim))


def test_samples_accept_true_majorant():
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    report = check_majorant_samples(eq, majorant(eq), 200, _box(2),
                                    check_increments=True,
                                    rng=random.Random(5))
    assert report.ok
    assert report.points_checked == 200
    assert report.increments_checked == 200


def test_samples_flag_false_majorant():
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    liar = ComparisonEquation(1, 1, SeriesMap((
        Series(2, 24, {(1, 0): 0.5, (0, 2): 1.0}, FLOAT),)))
    report = check_majorant_samples(eq, liar, 200, _box(2),
                                    rng=random.Random(5))
    assert not report.ok
    assert report.violations
    first = report.violations[0]
    assert first.kind == "value"
    assert first.lhs > first.rhs


def test_samples_flag_false_increments():
    # Y = X + Y^2/2 dominates neither the values nor the increments of
    # y = x - y^2; an increment violation records the increment it drew
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    liar = ComparisonEquation(1, 1, SeriesMap((
        Series(2, 24, {(1, 0): 1.0, (0, 2): 0.5}, FLOAT),)))
    report = check_majorant_samples(eq, liar, 50, _box(2),
                                    check_increments=True,
                                    rng=random.Random(1))
    assert report.increments_checked == 50
    moves = [v for v in report.violations if v.kind == "increment"]
    assert moves and len(moves) < len(report.violations)
    for v in moves:
        assert v.increment is not None and len(v.increment) == 2
        assert v.lhs > v.rhs


def test_samples_exact_mode():
    eq = quadratic_equation(mode=EXACT, sign=-1)
    lo = LatticeVec((F(-1, 10), F(-1, 10)))
    hi = LatticeVec((F(1, 10), F(1, 10)))
    report = check_majorant_samples(eq, majorant(eq), 50, (lo, hi),
                                    check_increments=True,
                                    rng=random.Random(9))
    assert report.ok


def test_samples_deterministic_under_seed():
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    liar = ComparisonEquation(1, 1, SeriesMap((
        Series(2, 24, {(1, 0): 0.5, (0, 2): 1.0}, FLOAT),)))
    r1 = check_majorant_samples(eq, liar, 60, _box(2), rng=random.Random(3))
    r2 = check_majorant_samples(eq, liar, 60, _box(2), rng=random.Random(3))
    assert len(r1.violations) == len(r2.violations)
    assert r1.violations[0].point == r2.violations[0].point


def test_samples_evaluate_psi_once_per_sample(monkeypatch):
    # a value sample evaluates psi(z) and Psi(Z); an increment sample
    # psi(z + w), psi(z), Psi(Z) and Psi(Z + W)
    evaluate = SeriesMap.evaluate
    calls = []

    def counting(self, point):
        calls.append(point)
        return evaluate(self, point)

    monkeypatch.setattr(SeriesMap, "evaluate", counting)
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    check_majorant_samples(eq, majorant(eq), 30, _box(2),
                           check_increments=True, rng=random.Random(5))
    assert len(calls) == 6 * 30


@pytest.mark.parametrize("increments", [False, True])
def test_samples_refuse_a_box_that_overflows(increments):
    # Y = X + Y^2/2 does not dominate y = x - y^2, but on a box of 1e200
    # every value compared inf against inf and every increment involved nan,
    # both of which compare false, so the report came back clean
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    liar = ComparisonEquation(1, 1, SeriesMap((
        Series(2, 24, {(1, 0): 1.0, (0, 2): 0.5}, FLOAT),)))
    assert not check_majorant_samples(eq, liar, 60, _box(2),
                                      rng=random.Random(3)).ok
    with pytest.raises(ValueError, match="box"):
        check_majorant_samples(eq, liar, 60, _box(2, 1e200),
                               check_increments=increments,
                               rng=random.Random(3))


def test_samples_box_validation():
    eq = quadratic_equation(mode=FLOAT)
    good = majorant(eq)
    with pytest.raises(ValueError, match="dimension"):
        check_majorant_samples(eq, good, 10, _box(3))
    bad = (LatticeVec((0.1, 0.1)), LatticeVec((-0.1, -0.1)))
    with pytest.raises(ValueError, match="corner"):
        check_majorant_samples(eq, good, 10, bad)


@pytest.mark.parametrize("n", [0, -3])
def test_samples_refuse_an_empty_check(n):
    # a check of no points is no evidence for the majorant
    eq = quadratic_equation(mode=FLOAT)
    with pytest.raises(ValueError, match="n_samples"):
        check_majorant_samples(eq, majorant(eq), n, _box(2))


# ---------------------------------------------------------------------------
# equation documents

def test_equation_dict_round_trip():
    rng = random.Random(21)
    for _ in range(8):
        eq, _ = random_equation(rng, mode=EXACT)
        doc = equation_to_dict(eq)
        back = equation_from_dict(doc)
        assert back.dim_x == eq.dim_x and back.dim_y == eq.dim_y
        assert back.profile_x == eq.profile_x
        assert back.profile_y == eq.profile_y
        for a, b in zip(back.psi.components, eq.psi.components):
            assert dict(a.terms) == dict(b.terms)


def test_document_terms_are_sorted_and_stringly():
    eq = quadratic_equation(mode=EXACT, sign=-1)
    doc = equation_to_dict(eq)
    assert [t["value"] for t in doc["terms"]] == ["1", "-1"]
    assert doc["terms"][0]["alpha"] == [1]
    assert doc["terms"][0]["beta"] == [0]


def _doc(**overrides):
    base = {
        "dim_x": 1, "dim_y": 1, "mode": "float",
        "profile_x": "scalar", "profile_y": "scalar", "degree_cap": 8,
        "terms": [
            {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
            {"output": 0, "alpha": [0], "beta": [2], "value": "-1.0"},
        ],
    }
    base.update(overrides)
    return base


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
_TOP_FIELDS = ("dim_x", "dim_y", "mode", "profile_x", "profile_y",
               "degree_cap", "terms")
_TERM_FIELDS = ("output", "alpha", "beta", "value")
_MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_TOP_FIELDS),
              _JSON | st.sampled_from(PROFILE_KINDS)),
    st.tuples(st.just("drop"), st.sampled_from(_TOP_FIELDS)),
    st.tuples(st.just("set_term"), st.integers(0, 2),
              st.sampled_from(_TERM_FIELDS), _JSON),
    st.tuples(st.just("drop_term"), st.integers(0, 2),
              st.sampled_from(_TERM_FIELDS)),
    st.tuples(st.just("mode"), st.sampled_from(("exact", "float"))),
)


@given(st.lists(_MUTATIONS, min_size=1, max_size=4))
def test_document_reader_refuses_only_with_spec_errors(mutations):
    # outside input reaches the CLI through equation_from_dict, whose
    # SpecFormatError is its exit 2; any other exception would be a crash
    doc = {
        "dim_x": 1, "dim_y": 2, "mode": "float",
        "profile_x": "scalar", "profile_y": "componentwise", "degree_cap": 4,
        "terms": [
            {"output": 0, "alpha": [1], "beta": [0, 0], "value": "1"},
            {"output": 0, "alpha": [0], "beta": [0, 2], "value": "-1"},
            {"output": 1, "alpha": [1], "beta": [1, 0], "value": "2"},
        ],
    }
    for mutation in mutations:
        op, *args = mutation
        terms = doc.get("terms")
        if op == "set":
            doc[args[0]] = args[1]
        elif op == "drop":
            doc.pop(args[0], None)
        elif op == "mode":
            doc["mode"] = args[0]
        elif isinstance(terms, list) and args[0] < len(terms) \
                and isinstance(terms[args[0]], dict):
            if op == "set_term":
                terms[args[0]][args[1]] = args[2]
            else:
                terms[args[0]].pop(args[1], None)
    try:
        eq = equation_from_dict(doc)
    except SpecFormatError:
        return
    assert isinstance(eq, EquationSpec)


def test_document_missing_field():
    doc = _doc()
    del doc["dim_y"]
    with pytest.raises(SpecFormatError, match="dim_y"):
        equation_from_dict(doc)


def test_document_bad_alpha_length():
    doc = _doc(terms=[{"output": 0, "alpha": [1, 0], "beta": [0],
                       "value": "1.0"}])
    with pytest.raises(SpecFormatError, match=r"terms\[0\]"):
        equation_from_dict(doc)


def test_document_duplicate_term():
    doc = _doc(terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [1], "beta": [0], "value": "2.0"},
    ])
    with pytest.raises(SpecFormatError, match=r"terms\[1\]"):
        equation_from_dict(doc)


def test_document_constant_term_rejected():
    doc = _doc(terms=[{"output": 0, "alpha": [0], "beta": [0],
                       "value": "1.0"}])
    with pytest.raises(SpecFormatError, match="constant term"):
        equation_from_dict(doc)


def test_document_linear_y_term_rejected():
    doc = _doc(terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
        {"output": 0, "alpha": [0], "beta": [1], "value": "0.5"},
    ])
    with pytest.raises(SpecFormatError, match="linear y term"):
        equation_from_dict(doc)


def test_document_degree_above_cap():
    doc = _doc(degree_cap=1,
               terms=[{"output": 0, "alpha": [0], "beta": [2],
                       "value": "1.0"}])
    with pytest.raises(SpecFormatError):
        equation_from_dict(doc)


def test_document_rational_in_float_mode():
    doc = _doc(terms=[{"output": 0, "alpha": [1], "beta": [0],
                       "value": "1/2"}])
    with pytest.raises(SpecFormatError, match="rational literal"):
        equation_from_dict(doc)


def test_equation_spec_validates_directly():
    with pytest.raises(ValueError, match="linear y term"):
        EquationSpec(1, 1,
                     SeriesMap((Series(2, 8, {(0, 1): 1.0}, FLOAT),)),
                     SCALAR, SCALAR)
    with pytest.raises(ValueError, match="constant term"):
        EquationSpec(1, 1,
                     SeriesMap((Series(2, 8, {(0, 0): 1.0, (1, 0): 1.0},
                                       FLOAT),)),
                     SCALAR, SCALAR)


def _zero_map(num_vars, outputs=1, cap=4):
    return SeriesMap.zero(num_vars, cap, FLOAT, outputs)


@pytest.mark.parametrize("args, message", [
    ((1, 1, _zero_map(2), "sup", COMPONENTWISE), "unknown norm profile kind"),
    ((0, 1, _zero_map(1), COMPONENTWISE, COMPONENTWISE),
     "dim_x and dim_y must be positive"),
    ((1, 1, _zero_map(3), COMPONENTWISE, COMPONENTWISE),
     "psi has 3 variables, expected 2"),
    ((1, 2, _zero_map(3), COMPONENTWISE, COMPONENTWISE),
     "psi has 1 outputs, expected 2"),
    ((1, 1, _zero_map(2, cap=0), COMPONENTWISE, COMPONENTWISE),
     "the degree cap must be at least 1"),
], ids=["unknown kind", "dim_x 0", "variables", "outputs", "cap 0"])
def test_equation_spec_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        EquationSpec(*args)
