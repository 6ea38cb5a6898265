"""Ordered-vector operations, norm profiles, majorant construction, and the
equation file format.

Majorant examples were expanded by hand; the coefficientwise domination
property is checked against the naive composition oracle.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from impsolve import (
    AGGREGATE,
    COMPONENTWISE,
    EXACT,
    FLOAT,
    SCALAR,
    ComparisonEquation,
    EquationSpec,
    LatticeVec,
    MajorantSampleReport,
    MajorantViolation,
    Series,
    SeriesMap,
    SpecFormatError,
    check_majorant_samples,
    compose_series,
    equation_from_dict,
    equation_to_dict,
    majorant,
    norm,
)
from impsolve.lattice import PROFILE_KINDS, SAMPLE_SLACK

from helpers import quadratic_equation, random_equation


def F(n, d=1):
    return Fraction(n, d)


fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def frac_vecs(draw, dim=3):
    return LatticeVec(tuple(draw(fractions) for _ in range(dim)))


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
        EquationSpec(psi, COMPONENTWISE, SCALAR)


@given(frac_vecs(), frac_vecs(), fractions)
def test_norm_axioms(a, b, t):
    for profile in (COMPONENTWISE, AGGREGATE):
        na = norm(profile, a)
        assert all(e >= 0 for e in na.entries)
        assert (na.entries == tuple(0 for _ in na.entries)) == \
            (a.entries == (0, 0, 0))
        scaled = norm(profile, LatticeVec(tuple(t * e for e in a.entries)))
        assert scaled.entries == tuple(e * abs(t) for e in na.entries)
        a_plus_b = tuple(x + y for x, y in zip(a.entries, b.entries))
        triangle = zip(norm(profile, a_plus_b).entries,
                       (x + y for x, y in zip(na.entries, norm(profile, b).entries)))
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
    eq = EquationSpec(SeriesMap((comp0, comp1)), COMPONENTWISE, AGGREGATE)
    cmp_eq = majorant(eq)
    assert cmp_eq.dim_x == 1 and cmp_eq.dim_y == 1
    assert dict(cmp_eq.psi.components[0].terms) == {
        (1, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_majorant_aggregate_takes_largest_component_sum():
    # both outputs carry bidegree (0, 2) mass: 1 + 2 = 3 in the first
    # component against 1 in the second, so the collapse keeps 3.
    comp0 = Series(3, 8, {(0, 2, 0): 1.0, (0, 0, 2): -2.0}, FLOAT)
    comp1 = Series(3, 8, {(0, 1, 1): 1.0, (1, 0, 0): 1.0}, FLOAT)
    eq = EquationSpec(SeriesMap((comp0, comp1)), AGGREGATE, AGGREGATE)
    cmp_eq = majorant(eq)
    assert dict(cmp_eq.psi.components[0].terms) == {(0, 2): 3.0, (1, 0): 1.0}


def test_an_aggregate_float_sum_rounds_up():
    # psi = x0 + 2^-53 x1 + y^2 with an aggregate x side: |x0| + 2^-53 |x1|
    # <= (1 + 2^-53) X, whose nearest float 1.0 fell below the sum
    psi = SeriesMap((Series(3, 4, {(1, 0, 0): 1.0, (0, 1, 0): 2.0 ** -53,
                                   (0, 0, 2): 1.0}, FLOAT),))
    cmp_eq = majorant(EquationSpec(psi, AGGREGATE, COMPONENTWISE))
    assert dict(cmp_eq.psi.components[0].terms) == {(1, 0): 1.0000000000000002, (0, 2): 1.0}


def test_majorant_idempotent_on_positive_equations():
    rng = random.Random(11)
    for _ in range(5):
        eq, _ = random_equation(rng, mode=FLOAT)
        pos = majorant(eq)
        eq2 = EquationSpec(pos.psi, eq.profile_x, eq.profile_y)
        again = majorant(eq2)
        for a, b in zip(again.psi.components, pos.psi.components):
            assert dict(a.terms) == dict(b.terms)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_a_fold_that_merges_nothing_keeps_each_modulus(mode):
    # componentwise and scalar sides merge no terms, so the comparison is
    # psi with every coefficient replaced by its modulus, in psi's own mode
    rng = random.Random(34)
    for _ in range(200):
        eq, _ = random_equation(rng, mode=mode)
        scale = (lambda: Fraction(10) ** rng.randint(-30, 30)) if mode == EXACT else (
            lambda: 10.0 ** rng.uniform(-30, 30))
        comps = [Series(c.num_vars, c.degree_cap, {g: v * scale() for g, v in c.terms.items()},
                        mode) for c in eq.psi.components]
        profiles = [rng.choice([SCALAR, COMPONENTWISE]) if dim == 1 else COMPONENTWISE
                    for dim in (eq.dim_x, eq.dim_y)]
        eq = EquationSpec(SeriesMap(comps), *profiles)
        moduli = SeriesMap(Series(c.num_vars, c.degree_cap, {g: abs(v) for g, v in c.terms.items()},
                                  mode) for c in comps)
        got = majorant(eq).psi
        assert got == moduli
        kind = Fraction if mode == EXACT else float
        assert all(type(v) is kind for comp in got.components for v in comp.terms.values())


def test_comparison_rejects_negative_coefficients():
    with pytest.raises(ValueError, match="positive type"):
        ComparisonEquation(SeriesMap((
            Series(2, 8, {(1, 0): 1.0, (0, 2): -1.0}, FLOAT),)))



def test_comparison_is_an_equation_with_componentwise_profiles():
    cmp_eq = majorant(quadratic_equation(mode=EXACT, sign=-1))
    assert isinstance(cmp_eq, EquationSpec)
    assert cmp_eq.profile_x == COMPONENTWISE
    assert cmp_eq.profile_y == COMPONENTWISE


def test_comparison_serializes_as_an_equation():
    eq = quadratic_equation(mode=EXACT, sign=-1)
    doc = equation_to_dict(majorant(eq))
    assert doc == dict(equation_to_dict(eq), terms=[
        {"output": 0, "alpha": [1], "beta": [0], "value": "1"},
        {"output": 0, "alpha": [0], "beta": [2], "value": "1"}])
    back = equation_from_dict(doc)
    assert equation_to_dict(ComparisonEquation(back.psi)) == doc


def test_comparison_dominates_itself_on_samples():
    for mode, half in ((FLOAT, 0.1), (EXACT, F(1, 10))):
        cmp_eq = majorant(quadratic_equation(mode=mode, sign=-1))
        box = (LatticeVec((-half, -half)), LatticeVec((half, half)))
        report = check_majorant_samples(cmp_eq, cmp_eq, 40, box,
                                        check_increments=True,
                                        rng=random.Random(2))
        assert not report.violations and report.points_checked == 40

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
    def series_abs(s):
        return Series(s.num_vars, s.degree_cap, {a: abs(v) for a, v in s.terms.items()}, s.mode)
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
    assert not report.violations
    assert report.points_checked == 200
    assert report.increments_checked == 200


def test_samples_flag_false_majorant():
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    liar = ComparisonEquation(SeriesMap((
        Series(2, 24, {(1, 0): 0.5, (0, 2): 1.0}, FLOAT),)))
    report = check_majorant_samples(eq, liar, 200, _box(2),
                                    rng=random.Random(5))
    assert report.violations
    assert report.violations
    first = report.violations[0]
    assert first.kind == "value"
    assert first.lhs > first.rhs


def test_samples_flag_false_increments():
    # Y = X + Y^2/2 dominates neither the values nor the increments of
    # y = x - y^2; an increment violation records the increment it drew
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    liar = ComparisonEquation(SeriesMap((
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
    assert not report.violations


def test_samples_deterministic_under_seed():
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    liar = ComparisonEquation(SeriesMap((
        Series(2, 24, {(1, 0): 0.5, (0, 2): 1.0}, FLOAT),)))
    r1 = check_majorant_samples(eq, liar, 60, _box(2), rng=random.Random(3))
    r2 = check_majorant_samples(eq, liar, 60, _box(2), rng=random.Random(3))
    assert len(r1.violations) == len(r2.violations)
    assert r1.violations[0].point == r2.violations[0].point


def test_samples_evaluate_psi_once_per_sample(monkeypatch):
    # a value sample evaluates psi(z) and Psi(Z); an increment sample
    # psi(z + w), psi(z), Psi(Z) and Psi(Z + W).  Each map evaluation is
    # one run of the map's compiled kernel, whatever its component count
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    cmp_eq = majorant(eq)
    compiled = {id(m): m._plan for m in (eq.psi, cmp_eq.psi)}
    calls = []

    def counting_plan(self):
        run, coefficients = compiled[id(self)]

        def counting(point, leaves, zero, scale=None):
            calls.append(point)
            return run(point, leaves, zero, scale)
        return counting, coefficients

    monkeypatch.setattr(SeriesMap, "_plan", property(counting_plan))
    check_majorant_samples(eq, cmp_eq, 30, _box(2),
                           check_increments=True, rng=random.Random(5))
    assert len(calls) == 6 * 30


@pytest.mark.parametrize("increments", [False, True])
def test_samples_refuse_a_box_that_overflows(increments):
    # Y = X + Y^2/2 does not dominate y = x - y^2, but on a box of 1e200
    # every value compared inf against inf and every increment involved nan,
    # both of which compare false, so the report came back clean
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    liar = ComparisonEquation(SeriesMap((
        Series(2, 24, {(1, 0): 1.0, (0, 2): 0.5}, FLOAT),)))
    assert check_majorant_samples(eq, liar, 60, _box(2),
                                  rng=random.Random(3)).violations
    with pytest.raises(ValueError, match="box"):
        check_majorant_samples(eq, liar, 60, _box(2, 1e200),
                               check_increments=increments,
                               rng=random.Random(3))


@pytest.mark.parametrize("increments", [False, True])
def test_samples_refuse_a_box_whose_span_overflows(increments):
    # hi - lo of a box from -1e308 to 1e308 is inf, so every draw was inf or
    # nan, and the refusal came from the evaluation as "float coefficients
    # must be finite, got inf", which named no box
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    with pytest.raises(ValueError, match="box from"):
        check_majorant_samples(eq, majorant(eq), 10, _box(2, 1e308),
                               check_increments=increments, rng=random.Random(3))


@pytest.mark.parametrize("terms", [{(1, 0): 0.5}, {}], ids=["y=x/2", "y=0"])
def test_samples_refuse_a_box_whose_pair_sums_overflow(terms):
    # x in [1e308, 1.5e308]: every value psi(z) and Psi(Z) is finite, but
    # every increment z + w leaves the float range.  y = 0 has kernels that
    # read no coordinate, so only a check of their inputs can see the inf
    eq = EquationSpec(SeriesMap((Series(2, 4, terms, FLOAT),)),
                      COMPONENTWISE, COMPONENTWISE)
    box = (LatticeVec((1e308, 0.0)), LatticeVec((1.5e308, 1.0)))
    report = check_majorant_samples(eq, majorant(eq), 10, box, rng=random.Random(3))
    assert report.violations == () and report.points_checked == 10
    with pytest.raises(ValueError, match="box from"):
        check_majorant_samples(eq, majorant(eq), 10, box, check_increments=True,
                               rng=random.Random(3))


def test_samples_take_a_box_up_to_the_top_of_the_float_range():
    # the span of [0, float max] is finite, and so is every draw from it
    eq = EquationSpec(SeriesMap((Series(2, 4, {(1, 0): 0.5}, FLOAT),)),
                      COMPONENTWISE, COMPONENTWISE)
    box = (LatticeVec((0.0, 0.0)), LatticeVec((sys.float_info.max, 1.0)))
    report = check_majorant_samples(eq, majorant(eq), 50, box, rng=random.Random(3))
    assert report.violations == () and report.points_checked == 50


def test_samples_box_validation():
    eq = quadratic_equation(mode=FLOAT)
    good = majorant(eq)
    with pytest.raises(ValueError, match="dimension"):
        check_majorant_samples(eq, good, 10, _box(3))
    bad = (LatticeVec((0.1, 0.1)), LatticeVec((-0.1, -0.1)))
    with pytest.raises(ValueError, match="corner"):
        check_majorant_samples(eq, good, 10, bad)


@pytest.mark.parametrize("cmp_eq, message", [
    (majorant(quadratic_equation(mode=EXACT)), "mode mismatch: float vs exact"),
    (ComparisonEquation(SeriesMap((Series(
        3, 8, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 2): 1.0}, FLOAT),))),
     "the norm profiles do not match the comparison equation dimensions"),
], ids=["mode", "dimensions"])
def test_samples_refuse_a_comparison_that_cannot_dominate(cmp_eq, message):
    with pytest.raises(ValueError, match=message):
        check_majorant_samples(quadratic_equation(mode=FLOAT), cmp_eq, 10, _box(2))


def _halved(cmp_eq):
    return ComparisonEquation(SeriesMap(tuple(
        Series(c.num_vars, c.degree_cap, {a: v / 2 for a, v in c.terms.items()}, c.mode)
        for c in cmp_eq.psi.components)))


def test_samples_report_frozen_exact():
    # recorded before the value and increment checks shared one comparison:
    # pins the draw order of points and pairs and the order of violations
    eq = quadratic_equation(mode=EXACT, sign=-1, cap=4)
    box = (LatticeVec((F(-1, 2),) * 2), LatticeVec((F(1, 2),) * 2))
    report = check_majorant_samples(eq, _halved(majorant(eq)), 3, box,
                                    check_increments=True, rng=random.Random(4))
    assert repr(report) == (
        "MajorantSampleReport(points_checked=3, increments_checked=3, violations=("
        "MajorantViolation(kind='value', component=0, point=(Fraction(-1829, 65536), "
        "Fraction(6985, 65536)), increment=None, lhs=Fraction(168655569, 4294967296), "
        "rhs=Fraction(168655569, 8589934592)), "
        "MajorantViolation(kind='value', component=0, point=(Fraction(-9623, 32768), "
        "Fraction(2393, 8192)), increment=None, lhs=Fraction(25434353, 67108864), "
        "rhs=Fraction(25434353, 134217728)), "
        "MajorantViolation(kind='value', component=0, point=(Fraction(29999, 65536), "
        "Fraction(-1557, 8192)), increment=None, lhs=Fraction(28294727, 67108864), "
        "rhs=Fraction(33143225, 134217728)), "
        "MajorantViolation(kind='increment', component=0, point=(Fraction(3497, 65536), "
        "Fraction(-10137, 65536)), increment=(Fraction(-18851, 65536), Fraction(3, 128)), "
        "lhs=Fraction(1178357, 4194304), rhs=Fraction(1239179, 8388608))))")


def test_samples_report_frozen_float_aggregate():
    # psi = (x - y1^2, 2 x y0) measured by the max norm on y, recorded like
    # the exact report above
    psi = SeriesMap((Series(3, 4, {(1, 0, 0): 1.0, (0, 0, 2): -1.0}, FLOAT),
                     Series(3, 4, {(1, 1, 0): 2.0}, FLOAT)))
    eq = EquationSpec(psi, COMPONENTWISE, AGGREGATE)
    box = (LatticeVec((-0.5,) * 3), LatticeVec((0.5,) * 3))
    report = check_majorant_samples(eq, _halved(majorant(eq)), 3, box,
                                    check_increments=True, rng=random.Random(8))
    assert repr(report) == (
        "MajorantSampleReport(points_checked=3, increments_checked=3, violations=("
        "MajorantViolation(kind='value', component=0, point=(-0.2732941406189512, "
        "0.4622950358343828, -0.37366910134914044), increment=None, "
        "lhs=0.4129227379220254, rhs=0.36984794491879713), "
        "MajorantViolation(kind='value', component=0, point=(0.49912853916257904, "
        "-0.2906023681110872, 0.141868435072107), increment=None, "
        "lhs=0.4790018862927704, rhs=0.43683707322964843), "
        "MajorantViolation(kind='increment', component=0, point=(-0.0408662372276033, "
        "-0.04686756886185717, -0.005017306110822295), increment=(-0.30776915775731783, "
        "0.3305212736329717, -0.4104343765594104), lhs=0.48034408503023585, "
        "rhs=0.4148651721981132)))")


def test_samples_report_frozen_float_componentwise():
    # y0 = x0 - x1 y1 + y0^2/2, y1 = 2 x0 x1 - y0 y1 + x1 y0^2 measured entry
    # by entry on both sides, recorded like the reports above
    psi = SeriesMap((
        Series(4, 4, {(1, 0, 0, 0): 1.0, (0, 1, 0, 1): -1.0, (0, 0, 2, 0): 0.5}, FLOAT),
        Series(4, 4, {(1, 1, 0, 0): 2.0, (0, 0, 1, 1): -1.0, (0, 1, 2, 0): 1.0}, FLOAT)))
    eq = EquationSpec(psi, COMPONENTWISE, COMPONENTWISE)
    box = (LatticeVec((-0.5, -0.25, -0.5, -0.25)), LatticeVec((0.5, 0.5, 0.25, 0.5)))
    report = check_majorant_samples(eq, _halved(majorant(eq)), 3, box,
                                    check_increments=True, rng=random.Random(11))
    assert repr(report) == (
        "MajorantSampleReport(points_checked=3, increments_checked=3, violations=("
        "MajorantViolation(kind='value', component=0, point=(-0.04762044649018138, "
        "0.16982928956037197, 0.19315793801779702, 0.09923755257483002), increment=None, "
        "lhs=0.045818895032031265, rhs=0.04156444202565919), "
        "MajorantViolation(kind='value', component=1, point=(-0.04762044649018138, "
        "0.16982928956037197, 0.19315793801779702, 0.09923755257483002), increment=None, "
        "lhs=0.029006885292586507, rhs=0.020839771574944065), "
        "MajorantViolation(kind='value', component=1, point=(0.007841273062271115, "
        "0.19053862163742274, -0.36150474210884254, 0.13393147928135413), increment=None, "
        "lhs=0.0763056646621392, rhs=0.0381528323310696), "
        "MajorantViolation(kind='value', component=0, point=(0.12988272021680192, "
        "0.3447326543899645, -0.4294074078280862, -0.02244905303160588), increment=None, "
        "lhs=0.22981700280574666, rhs=0.11490850140287333), "
        "MajorantViolation(kind='value', component=1, point=(0.12988272021680192, "
        "0.3447326543899645, -0.4294074078280862, -0.02244905303160588), increment=None, "
        "lhs=0.14347534313361127, rhs=0.08137746123730275), "
        "MajorantViolation(kind='increment', component=0, point=(-0.4093294625081606, "
        "0.3572334007753831, 0.020078861905929335, -0.2185897477226155), "
        "increment=(0.48219342079877825, 0.4735683358441751, -0.009558099849619639, "
        "0.21167202843392807), lhs=0.40970687791308746, rhs=0.38090284354019927)))")


def _reference_samples(eq, cmp_eq, n, box, increments, rng):
    """The sampled check written out on ``SeriesMap.evaluate`` and ``norm``:
    the same draws, comparisons and order of violations."""
    lo, hi = box
    exact = eq.mode == EXACT

    def draw():
        if exact:
            return tuple(a + (b - a) * F(rng.randrange(65537), 65536)
                         for a, b in zip(lo.entries, hi.entries))
        return tuple(a + (b - a) * rng.random() for a, b in zip(lo.entries, hi.entries))

    def norms(z):
        return (norm(eq.profile_x, z[:eq.dim_x]).entries
                + norm(eq.profile_y, z[eq.dim_x:]).entries)

    violations = []

    def compare(kind, z, w, lhs, rhs):
        for i, (a, b) in enumerate(zip(lhs, rhs)):
            if a > (b if exact else b + SAMPLE_SLACK * max(1.0, abs(b))):
                violations.append(MajorantViolation(kind, i, z, w, a, b))

    for z in [draw() for _ in range(n)]:
        compare("value", z, None, norm(eq.profile_y, eq.psi.evaluate(z)).entries,
                cmp_eq.psi.evaluate(norms(z)))
    pairs = [(draw(), draw()) for _ in range(n if increments else 0)]
    for z, w in pairs:
        Z, W = norms(z), norms(w)
        move = [a - b for a, b in zip(eq.psi.evaluate(tuple(a + b for a, b in zip(z, w))),
                                      eq.psi.evaluate(z))]
        base = cmp_eq.psi.evaluate(Z)
        compare("increment", z, w, norm(eq.profile_y, move).entries,
                [a - b for a, b in zip(cmp_eq.psi.evaluate(
                    tuple(a + b for a, b in zip(Z, W))), base)])
    return MajorantSampleReport(n, len(pairs), tuple(violations))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("profiles", [(x, y) for x in (COMPONENTWISE, AGGREGATE)
                                      for y in (COMPONENTWISE, AGGREGATE)])
def test_samples_match_the_reference(mode, profiles, seed):
    # true majorants and halved ones, which draw violations of both kinds
    rng = random.Random(seed)
    eq = _mixed(rng, mode, *profiles)
    dim = eq.dim_x + eq.dim_y
    step = F(1, 8) if mode == EXACT else 0.125
    lo = LatticeVec(-step * rng.randint(0, 4) for _ in range(dim))
    hi = LatticeVec(step * rng.randint(1, 4) for _ in range(dim))
    for cmp_eq in (majorant(eq), _halved(majorant(eq))):
        for increments in (False, True):
            draws = rng.randrange(2 ** 31)
            got = check_majorant_samples(eq, cmp_eq, 12, (lo, hi), increments,
                                         random.Random(draws))
            want = _reference_samples(eq, cmp_eq, 12, (lo, hi), increments,
                                      random.Random(draws))
            assert repr(got) == repr(want)


def _mixed(rng, mode, profile_x, profile_y):
    """A seeded signed equation whose two sides are measured differently."""
    eq, _ = random_equation(rng, mode=mode, cap=4)
    return EquationSpec(eq.psi, profile_x, profile_y)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("profiles", [(AGGREGATE, COMPONENTWISE),
                                      (COMPONENTWISE, AGGREGATE)],
                         ids=["aggregate x", "aggregate y"])
def test_mixed_profile_majorant_passes_the_samples(mode, profiles):
    # the majorant collapses only the aggregate side; the sampler, which
    # measures each side by its own profile, then finds no violation
    rng = random.Random(1601)
    shapes = set()
    for _ in range(12):
        eq = _mixed(rng, mode, *profiles)
        cmp_eq = majorant(eq)
        shapes.add((eq.dim_x, eq.dim_y, cmp_eq.dim_x, cmp_eq.dim_y))
        half = F(1, 8) if mode == EXACT else 0.125
        dim = eq.dim_x + eq.dim_y
        report = check_majorant_samples(
            eq, cmp_eq, 60, (LatticeVec((-half,) * dim), LatticeVec((half,) * dim)),
            check_increments=True, rng=random.Random(rng.randrange(2 ** 31)))
        assert report.violations == ()
    # some draw keeps a componentwise side of dimension 2 next to a collapsed one
    assert any(2 in shape[2:] for shape in shapes)


def test_mixed_profile_majorant_collapses_one_side():
    # y0 = x0 - x1 y1^2, y1 = 2 x0 x1 + y0^2 with an aggregate x side: the
    # x monomials of equal degree sum, and both y variables stay
    psi = SeriesMap((Series(4, 4, {(1, 0, 0, 0): 1.0, (0, 1, 0, 2): -1.0}, FLOAT),
                     Series(4, 4, {(1, 1, 0, 0): 2.0, (0, 0, 2, 0): 1.0}, FLOAT)))
    cmp_eq = majorant(EquationSpec(psi, AGGREGATE, COMPONENTWISE))
    assert (cmp_eq.dim_x, cmp_eq.dim_y) == (1, 2)
    assert [dict(c.terms) for c in cmp_eq.psi.components] == [
        {(1, 0, 0): 1.0, (1, 0, 2): 1.0}, {(2, 0, 0): 2.0, (0, 2, 0): 1.0}]
    # with the aggregate side on y instead, the x variables stay and the
    # larger output sum of each monomial is kept
    cmp_eq = majorant(EquationSpec(psi, COMPONENTWISE, AGGREGATE))
    assert (cmp_eq.dim_x, cmp_eq.dim_y) == (2, 1)
    assert dict(cmp_eq.psi.components[0].terms) == {
        (1, 0, 0): 1.0, (0, 1, 2): 1.0, (1, 1, 0): 2.0, (0, 0, 2): 1.0}


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


@pytest.mark.parametrize("doc, message", [
    ([], "^an equation document must be a JSON object$"),
    (_doc(mode="rational"), "^field 'mode' must be 'exact' or 'float', got 'rational'$"),
    (_doc(dim_x=0), "^dim_x and dim_y must be positive$"),
    (_doc(dim_y=0), "^dim_x and dim_y must be positive$"),
    (_doc(terms=["x"]), r"^terms\[0\] must be an object$"),
    (_doc(terms=[{"output": 1, "alpha": [1], "beta": [0], "value": "1.0"}]),
     r"^terms\[0\]: output 1 out of range for dim_y=1$"),
], ids=["not an object", "unknown mode", "dim_x 0", "dim_y 0", "term not an object",
        "output out of range"])
def test_document_structure_refusals(doc, message):
    with pytest.raises(SpecFormatError, match=message):
        equation_from_dict(doc)


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


@pytest.mark.parametrize("terms, cap, message", [
    ([{"output": 0, "alpha": [0], "beta": [3], "value": "1.0"}], 2,
     r"^term \(0, 3\) of degree 3 exceeds the cap 2$"),
    ([{"output": 0, "alpha": [1], "beta": [0], "value": "1.0"},
      {"output": 0, "alpha": [0], "beta": [1], "value": "0.5"}], 8,
     r"^component 0: linear y term \(0, 1\) is not allowed"),
    ([{"output": 0, "alpha": [0], "beta": [0], "value": "1.0"}], 8,
     "^component 0: constant term is not allowed"),
], ids=["over cap", "linear y", "constant"])
def test_document_normal_form_refusal_names_the_term(terms, cap, message):
    # the reader no longer repeats these rules; Series and EquationSpec
    # refuse the term and name it
    with pytest.raises(SpecFormatError, match=message):
        equation_from_dict(_doc(degree_cap=cap, terms=terms))


def test_document_zero_valued_term_is_no_term():
    # a zero coefficient leaves the map as it is, so it breaks no rule of
    # the normal form, even at a constant or linear y position
    zeros = [{"output": 0, "alpha": [0], "beta": [0], "value": "0.0"},
             {"output": 0, "alpha": [0], "beta": [1], "value": "0.0"}]
    eq = equation_from_dict(_doc(terms=_doc()["terms"] + zeros))
    assert eq.psi == equation_from_dict(_doc()).psi


def test_document_rational_in_float_mode():
    doc = _doc(terms=[{"output": 0, "alpha": [1], "beta": [0],
                       "value": "1/2"}])
    with pytest.raises(SpecFormatError, match="rational literal"):
        equation_from_dict(doc)


def test_equation_spec_validates_directly():
    with pytest.raises(ValueError, match="linear y term"):
        EquationSpec(SeriesMap((Series(2, 8, {(0, 1): 1.0}, FLOAT),)), SCALAR, SCALAR)
    with pytest.raises(ValueError, match="constant term"):
        EquationSpec(SeriesMap((Series(2, 8, {(0, 0): 1.0, (1, 0): 1.0}, FLOAT),)),
                     SCALAR, SCALAR)


def _zero_map(num_vars, outputs=1, cap=4):
    return SeriesMap.zero(num_vars, cap, FLOAT, outputs)


@pytest.mark.parametrize("args, message", [
    ((_zero_map(2), "sup", COMPONENTWISE), "unknown norm profile kind"),
    ((_zero_map(1), COMPONENTWISE, COMPONENTWISE), "dim_x and dim_y must be positive"),
    ((_zero_map(2, cap=0), COMPONENTWISE, COMPONENTWISE),
     "the degree cap must be at least 1"),
], ids=["unknown kind", "dim_x 0", "cap 0"])
def test_equation_spec_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        EquationSpec(*args)
