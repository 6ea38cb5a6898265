"""Tests for the truncated sparse series layer.

The multiplication and composition oracles are the naive dict routines in
helpers.py; frozen examples were expanded by hand.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from impsolve import (
    EXACT,
    FLOAT,
    Series,
    SeriesMap,
    SpecFormatError,
    compose_series,
    format_value,
    multiindex_factorial,
    parse_value,
    series_compose,
    solve_formal,
)
from impsolve import series as series_module

from helpers import catalan, naive_mul, naive_substitute, quadratic_equation


def F(n, d=1):
    return Fraction(n, d)


@st.composite
def exact_terms(draw, num_vars=2, max_expo=2, max_terms=5):
    """A small dict of exponent tuple -> Fraction."""
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        expo = tuple(draw(st.integers(0, max_expo)) for _ in range(num_vars))
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 3))
        terms[expo] = Fraction(num, den)
    return terms


def make(terms, num_vars=2, cap=8):
    return Series(num_vars, cap, terms, EXACT)


# ---------------------------------------------------------------------------
# multi-indices and value parsing

def test_multiindex_factorial():
    assert multiindex_factorial((2, 1, 3)) == 2 * 1 * 6
    assert multiindex_factorial(()) == 1


def test_parse_value_exact():
    assert parse_value("3/4", EXACT) == F(3, 4)
    assert parse_value("-2", EXACT) == F(-2)
    with pytest.raises(SpecFormatError):
        parse_value("0.5", EXACT)
    with pytest.raises(SpecFormatError):
        parse_value("1e-3", EXACT)


def test_parse_value_float():
    assert parse_value("0.5", FLOAT) == 0.5
    assert parse_value("-2", FLOAT) == -2.0
    with pytest.raises(SpecFormatError, match="rational literal"):
        parse_value("1/2", FLOAT)
    with pytest.raises(SpecFormatError):
        parse_value("nan", FLOAT)


def test_format_round_trips():
    for text in ["3/4", "-7", "0"]:
        assert format_value(parse_value(text, EXACT), EXACT) == text
    v = parse_value("0.1", FLOAT)
    assert parse_value(format_value(v, FLOAT), FLOAT) == v


# ---------------------------------------------------------------------------
# construction and validation

def test_constructors():
    x = Series.coordinate(2, 6, EXACT, 0)
    assert dict(x.terms) == {(1, 0): F(1)}
    m = Series.monomial(2, 6, EXACT, (1, 2), F(3))
    assert m.coefficient((1, 2)) == F(3)
    assert Series.zero(2, 6, EXACT).is_zero()
    c = Series.monomial(2, 6, EXACT, (0, 0), F(5))
    assert c.constant_term == F(5)


def test_zero_coefficients_are_dropped():
    s = make({(1, 0): F(0), (0, 1): F(2)})
    assert (1, 0) not in s.terms
    assert s.coefficient((1, 0)) == 0


@pytest.mark.parametrize("alpha", [(-1, 2), (True, 0), (1.0, 0), (1,), (1, 0, 0)])
def test_bad_exponent_vectors_rejected(alpha):
    with pytest.raises(ValueError, match="exponent"):
        Series(2, 4, {alpha: F(1)}, EXACT)
    with pytest.raises(ValueError, match="exponent"):
        make({(1, 0): F(1)}).coefficient(alpha)


def test_terms_over_cap_rejected():
    with pytest.raises(ValueError):
        Series(2, 3, {(2, 2): F(1)}, EXACT)


def test_mode_mixing_rejected():
    a = Series(2, 6, {(1, 0): F(1)}, EXACT)
    b = Series(2, 6, {(1, 0): 1.0}, FLOAT)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises((TypeError, ValueError)):
        Series(2, 6, {(1, 0): 1.0}, EXACT)


def test_non_finite_float_coefficients_rejected():
    with pytest.raises(ValueError, match="finite"):
        Series(1, 2, {(1,): float("nan")}, FLOAT)
    big = Series(1, 2, {(1,): 1e200}, FLOAT)
    with pytest.raises(ValueError, match="finite"):
        big * big  # 1e400 overflows to inf


def test_exact_values_beyond_the_float_range_are_refused():
    # float() raised OverflowError, which callers do not take for a bad value
    with pytest.raises(ValueError, match=r"^coefficient 10{400} is too large"):
        series_module.coerce_value(10 ** 400, FLOAT)
    with pytest.raises(ValueError, match=r"^coefficient 10{400}/3 is too large"):
        Series(1, 2, {(1,): F(10 ** 400, 3)}, EXACT).as_float()


def test_cap_mismatch_rejected():
    a = Series(2, 6, {(1, 0): F(1)}, EXACT)
    b = Series(2, 5, {(1, 0): F(1)}, EXACT)
    with pytest.raises(ValueError):
        a * b


def test_with_cap_drops_high_terms():
    s = make({(1, 0): F(1), (2, 2): F(3)})
    t = s.with_cap(3)
    assert t.degree_cap == 3
    assert dict(t.terms) == {(1, 0): F(1)}


# ---------------------------------------------------------------------------
# ring results skip the public checks, so they must pass them unchanged

def assert_checked(r):
    """``r`` survives the public constructor as it is."""
    kind = Fraction if r.mode == EXACT else float
    assert all(type(a) is tuple for a in r.terms)
    assert all(type(v) is kind for v in r.terms.values())
    again = Series(r.num_vars, r.degree_cap, dict(r.terms), r.mode)
    assert again == r
    assert list(again.terms) == list(r.terms)


@given(st.sampled_from([EXACT, FLOAT]), exact_terms(), exact_terms(),
       exact_terms(num_vars=1, max_expo=3), exact_terms(num_vars=1, max_expo=3))
def test_ring_results_pass_the_public_checks(mode, ta, tb, tu, tv):
    value = (lambda v: v) if mode == EXACT else float

    def build(terms, num_vars, drop_constant=False):
        return Series(num_vars, 4, {k: value(v) for k, v in terms.items()
                                    if not (drop_constant and not any(k))}, mode)

    a, b = build(ta, 2), build(tb, 2)
    inner = [build(tu, 1, True), build(tv, 1, True)]
    results = [a + b, a - b, -a, a.scale(value(F(-3, 2))), a * b,
               a.partial(0), a.partial(1), a.with_cap(2), a.with_cap(6),
               a.as_float(), compose_series(a, inner)]
    for r in results:
        assert_checked(r)
    assert (a - a).is_zero()


def test_ring_overflow_is_refused():
    big = Series(1, 2, {(1,): 1e308}, FLOAT)
    for op in (lambda: big + big, lambda: big.scale(10.0), lambda: big * big):
        with pytest.raises(ValueError, match="finite"):
            op()


def test_solve_checks_few_series(monkeypatch):
    # checking every ring result as well took 635 constructions here
    checked = []
    original = Series.__post_init__

    def counting(self):
        checked.append(self)
        original(self)

    monkeypatch.setattr(Series, "__post_init__", counting)
    solve_formal(quadratic_equation(cap=40), 40)
    assert len(checked) < 100


# ---------------------------------------------------------------------------
# ring operations against the naive oracle

def test_frozen_product():
    # (1 + 2x - y)(x + y^2), expanded by hand
    a = make({(0, 0): F(1), (1, 0): F(2), (0, 1): F(-1)})
    b = make({(1, 0): F(1), (0, 2): F(1)})
    expect = {(1, 0): F(1), (0, 2): F(1), (2, 0): F(2),
              (1, 2): F(2), (1, 1): F(-1), (0, 3): F(-1)}
    assert dict((a * b).terms) == expect


@given(exact_terms(), exact_terms())
def test_product_matches_naive(ta, tb):
    a, b = make(ta), make(tb)
    want = naive_mul({k: v for k, v in ta.items() if v != 0},
                     {k: v for k, v in tb.items() if v != 0}, 8)
    assert dict((a * b).terms) == want


@given(exact_terms(), exact_terms(), exact_terms())
def test_ring_laws(ta, tb, tc):
    a, b, c = make(ta), make(tb), make(tc)
    assert dict(((a + b) + c).terms) == dict((a + (b + c)).terms)
    assert dict((a * b).terms) == dict((b * a).terms)
    assert dict((a * (b + c)).terms) == dict((a * b + a * c).terms)
    # truncation is a ring quotient, so products associate exactly
    assert dict(((a * b) * c).terms) == dict((a * (b * c)).terms)


@given(exact_terms(), exact_terms())
def test_subtraction_and_scale(ta, tb):
    a, b = make(ta), make(tb)
    assert (a - b + b - a).is_zero()
    assert dict(a.scale(F(3, 2)).terms) == {
        k: v * F(3, 2) for k, v in a.terms.items()}


@given(exact_terms())
def test_evaluate_matches_direct_sum(ts):
    s = make(ts)
    pt = (F(1, 3), F(-1, 2))
    want = sum((v * pt[0] ** k[0] * pt[1] ** k[1] for k, v in ts.items()
                if v != 0), F(0))
    assert s.evaluate(pt) == want


def test_evaluate_float():
    s = Series(1, 8, {(1,): 1.0, (2,): 1.0}, FLOAT)
    assert s.evaluate((0.5,)) == pytest.approx(0.75)


@pytest.mark.parametrize("mode, point", [
    (FLOAT, (0.5,)),
    (FLOAT, (0.5, 0.5, 0.5)),
    (EXACT, (0.5, F(1, 2))),
    (FLOAT, (F(1, 2), 0.5)),
    (FLOAT, (True, 0.5)),
    (EXACT, (F(1, 2), False)),
    (FLOAT, (float("inf"), 0.5)),
    (FLOAT, (0.5, float("-inf"))),
    (FLOAT, (float("nan"), 0.5)),
])
def test_evaluate_rejects_bad_points(mode, point):
    one = 1 if mode == EXACT else 1.0
    s = Series(2, 4, {(1, 0): one, (0, 2): one}, mode)
    with pytest.raises(ValueError):
        s.evaluate(point)


def test_evaluate_takes_ints_and_leaves_equality_alone():
    terms = {(1, 0): F(1), (1, 1): F(-2, 3), (0, 3): F(5)}
    a, b = Series(2, 4, terms, EXACT), Series(2, 4, terms, EXACT)
    assert a.evaluate((2, F(1, 2))) == F(47, 24)
    assert a == b and b == a
    fa = a.as_float()
    assert fa.evaluate((2, 0.5)) == fa.evaluate((2.0, 0.5))
    assert fa == b.as_float()


# Values recorded from the evaluator before it was compiled into a plan.
# Equality is exact: they pin the order of the float operations, and the
# sign checks pin the leading multiplication of the zero accumulator,
# which decides the sign of -x0 at (0.0, 0.5) and (0.0, -0.5).
FROZEN_TWO = {(1, 0): 1.0, (0, 2): -0.75, (1, 1): 0.3, (2, 3): 1e-3, (0, 5): 0.125}
FROZEN_THREE = {(1, 0, 0): 0.5, (0, 1, 1): -0.25, (0, 0, 2): 0.3, (1, 0, 1): 0.1,
                (2, 1, 0): -0.2, (0, 3, 0): 1 / 3, (1, 1, 1): 0.7, (0, 0, 5): -1.1}


@pytest.mark.parametrize("terms, point, want", [
    (FROZEN_TWO, (0.3, -0.7), -0.15153961999999999),
    (FROZEN_TWO, (0.1, 0.2), 0.07604008000000001),
    (FROZEN_TWO, (-0.5, 0.25), -0.5842490234375),
    (FROZEN_TWO, (0.0, 0.0), 0.0),
    ({(1, 0): -1.0}, (0.0, 0.5), 0.0),
    ({(1, 0): -1.0}, (0.0, -0.5), -0.0),
    (FROZEN_THREE, (0.2, 0.3, 0.4), 0.138136),
    (FROZEN_THREE, (-0.35, 0.15, -0.6), 0.08153599999999994),
    (FROZEN_THREE, (1.0, -1.0, 0.5), 0.2322916666666667),
    (FROZEN_THREE, (0.0, 0.0, -0.0), 0.0),
])
def test_evaluate_float_frozen(terms, point, want):
    s = Series(len(point), 6, terms, FLOAT)
    got = s.evaluate(point)
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
    assert s.evaluate(point) == got


# ---------------------------------------------------------------------------
# differentiation

def test_partial_of_coordinate():
    x = Series.coordinate(2, 6, EXACT, 0)
    d = x.partial(0)
    assert d.constant_term == F(1)
    assert d.degree_cap == 5
    assert x.partial(1).is_zero()


def test_frozen_partial():
    s = make({(2, 1): F(3), (0, 2): F(1)})
    d = s.partial(0)
    assert dict(d.terms) == {(1, 1): F(6)}


@given(exact_terms(max_expo=2), exact_terms(max_expo=2))
def test_product_rule(ta, tb):
    a, b = make(ta, cap=8), make(tb, cap=8)
    for var in (0, 1):
        lhs = (a * b).partial(var)
        rhs = a.partial(var) * b.with_cap(7) + a.with_cap(7) * b.partial(var)
        assert dict(lhs.terms) == dict(rhs.terms)


@given(exact_terms(), exact_terms())
def test_partial_is_linear(ta, tb):
    a, b = make(ta), make(tb)
    assert dict((a + b).partial(0).terms) == dict(
        (a.partial(0) + b.partial(0)).terms)


# ---------------------------------------------------------------------------
# composition

def test_frozen_composition():
    # g(u) = u^2 at u = x + y^2: (x + y^2)^2 = x^2 + 2xy^2 + y^4
    g = Series(1, 8, {(2,): F(1)}, EXACT)
    u = make({(1, 0): F(1), (0, 2): F(1)})
    got = compose_series(g, [u])
    assert dict(got.terms) == {(2, 0): F(1), (1, 2): F(2), (0, 4): F(1)}


def test_composition_requires_zero_constants():
    g = Series(1, 8, {(1,): F(1)}, EXACT)
    u = make({(0, 0): F(1)})
    with pytest.raises(ValueError):
        compose_series(g, [u])


@given(exact_terms(num_vars=2), exact_terms(num_vars=1, max_expo=3),
       exact_terms(num_vars=1, max_expo=3))
def test_composition_matches_naive(touter, tu, tv):
    tu.pop((0,), None)
    tv.pop((0,), None)
    outer = Series(2, 8, touter, EXACT)
    u = Series(1, 8, tu, EXACT)
    v = Series(1, 8, tv, EXACT)
    got = compose_series(outer, [u, v])
    want = naive_substitute(
        {k: val for k, val in touter.items() if val != 0},
        [{k: val for k, val in tu.items() if val != 0},
         {k: val for k, val in tv.items() if val != 0}],
        1, 8, F(1))
    assert dict(got.terms) == want


def test_series_map_identity_composition():
    m = SeriesMap((make({(1, 1): F(2), (2, 0): F(1)}),
                   make({(0, 2): F(-1)})))
    ident = SeriesMap.identity(2, 8, EXACT)
    again = series_compose(m, ident)
    for a, b in zip(again.components, m.components):
        assert dict(a.terms) == dict(b.terms)


# ---------------------------------------------------------------------------
# records

def test_records_round_trip():
    s = make({(1, 0): F(1, 2), (0, 3): F(-4)})
    recs = s.to_records()
    assert recs == sorted(recs, key=lambda r: (sum(r["exponents"]),
                                               r["exponents"]))
    back = Series.from_records(recs, 2, 8, EXACT)
    assert dict(back.terms) == dict(s.terms)


def test_records_reject_duplicates():
    recs = [{"exponents": (1, 0), "value": "1"},
            {"exponents": (1, 0), "value": "2"}]
    with pytest.raises(ValueError, match="repeats"):
        Series.from_records(recs, 2, 8, EXACT)


def test_str_is_readable():
    s = make({(1, 0): F(1), (0, 2): F(-1)})
    text = str(s)
    assert "x0" in text and "x1^2" in text


# ---------------------------------------------------------------------------
# compiled kernels
#
# Values recorded from the recursive Horner evaluator that the compiled
# kernels replace.  Float equality is exact and signs are checked, so they
# pin the order of the float operations; exact results are checked against
# a direct sum.

def _draw(rng, mode):
    n = rng.randint(-9, 9)
    return F(n, rng.randint(1, 9)) if mode == EXACT else n / rng.randint(1, 9)


def long_terms(mode):
    """Degree 1 to 200 in one variable, seeded."""
    rng = random.Random(200)
    return {(k,): _draw(rng, mode) for k in range(1, 201)}


def three_terms(mode):
    """About half of the monomials of degree 1 to 6 in three variables."""
    rng = random.Random(3)
    out = {}
    for a in range(7):
        for b in range(7 - a):
            for c in range(7 - a - b):
                if a + b + c and rng.random() < 0.6:
                    out[(a, b, c)] = _draw(rng, mode)
    return out


def direct_sum(series, point):
    total = F(0)
    for alpha, value in series.terms.items():
        term = value
        for t, e in zip(point, alpha):
            term *= t ** e
        total += term
    return total


@pytest.mark.parametrize("t, want", [
    (0.5, -1.8028678587354363),
    (-0.75, 0.6277233125070572),
    (0.99, -20.55666258972692),
    (1.0, -36.96666666666667),
    (0.0, -0.0),
    (-0.0, 0.0),
])
def test_degree_200_float_frozen(t, want):
    got = Series(1, 200, long_terms(FLOAT), FLOAT).evaluate((t,))
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("point, want", [
    ((0.3, -0.6, 0.9), 5.110644383333333),
    ((-1.0, 0.5, 0.25), -1.0732142857142861),
    ((2.0, 1.5, -1.25), -505.83771701388883),
    ((0.0, -0.0, 0.0), 0.0),
    ((-0.0, -0.0, -0.0), -0.0),
    ((0.0, 0.0, -0.0), 0.0),
])
def test_three_variable_float_frozen(point, want):
    s = Series(3, 6, three_terms(FLOAT), FLOAT)
    assert len(s.terms) == 49
    got = s.evaluate(point)
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("terms, point", [
    (long_terms(EXACT), (F(1, 2),)),
    (long_terms(EXACT), (F(-7, 8),)),
    (three_terms(EXACT), (F(1, 3), F(-2, 5), F(3, 4))),
    (three_terms(EXACT), (F(0), F(0), F(0))),
])
def test_exact_kernels_match_direct_sum(terms, point):
    s = Series(len(point), 200, terms, EXACT)
    assert s.evaluate(point) == direct_sum(s, point)


def _digest(series):
    items = sorted((tuple(a), v) for a, v in series.terms.items())
    return hashlib.sha256(repr(items).encode()).hexdigest()


# The exact digest was checked against naive_substitute when it was recorded.
@pytest.mark.parametrize("mode, want", [
    (FLOAT, "aceee306bca13fe22dff71b33ca23d30c2b4452b0d819c19255e6887007a1861"),
    (EXACT, "05777c0090c30c5b594a0b5b08ab969b4ade37ad38f35cc8ef7b1c21ff958014"),
])
def test_composition_degree_60_frozen(mode, want):
    outer = Series(3, 60, three_terms(mode), mode)
    inner = []
    for j in range(3):
        rng = random.Random(10 + j)
        inner.append(Series(1, 60, {(k,): _draw(rng, mode) for k in range(1, 61)
                                    if k < 3 or rng.random() < 0.3}, mode))
    got = compose_series(outer, inner)
    assert len(got.terms) == 60
    assert _digest(got) == want


def test_solve_compiles_psi_once_per_term_set(monkeypatch):
    built = []
    original = series_module._compile

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(series_module, "_compile", counting)
    sol = solve_formal(quadratic_equation(cap=40), 40)
    assert sol.phi.components[0].coefficient((40,)) == pytest.approx(
        float(catalan(39)), rel=1e-12)
    # round 1 runs at cap 1, where y^2 is dropped; every later round shares
    # the plan of psi's full term set
    assert len(built) == 2
