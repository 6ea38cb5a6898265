"""Tests for the truncated sparse series layer.

The multiplication and composition oracles are the naive dict routines in
helpers.py; frozen examples were expanded by hand.
"""

import hashlib
import math
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from impsolve import (
    EXACT,
    FLOAT,
    ComparisonEquation,
    Series,
    SeriesMap,
    SpecFormatError,
    compose_series,
    format_value,
    multiindex_factorial,
    parse_value,
    series_compose,
    solve_formal,
    solve_partition_oracle,
)
from impsolve import series as series_module
from impsolve.kantorovich import _bounds

from helpers import (_jacobian, catalan, exact_polys, naive_mul, naive_substitute, poly_at,
                     quadratic_equation, random_comparison)


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


def test_exact_literals_of_any_length_round_trip():
    # format_value prints exact values past the interpreter's 4300-digit
    # int-from-str limit, and parse_value refused to read them back
    text = "7" * 5000 + "/3"
    value = parse_value(text, EXACT)
    assert (value.numerator % 10, value.denominator) == (7, 3)
    assert format_value(value, EXACT) == text


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
        series_module._nearest_plan(Series(1, 2, {(1,): F(10 ** 400, 3)}, EXACT))
    # below the float range the nearest leaf is a signed zero, and the exact
    # series keeps its term for every check
    tiny = Series(1, 2, {(1,): F(-1, 10 ** 400)}, EXACT)
    leaves = series_module._nearest_plan(tiny)[1]
    assert leaves == (0.0,) and str(leaves[0]) == "-0.0"
    assert tiny.evaluate((1,)) == F(-1, 10 ** 400)


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
    results = [a + b, a - b, -a, a * b,
               a.partial(0), a.partial(1), a.with_cap(2), a.with_cap(6),
               compose_series(a, inner)]
    for r in results:
        assert_checked(r)
    assert (a - a).is_zero()


def test_ring_overflow_is_refused():
    big = Series(1, 2, {(1,): 1e308}, FLOAT)
    for op in (lambda: big + big, lambda: big * big):
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


def test_exact_solve_multiplies_no_fractions(monkeypatch):
    # multiplying Fractions pair by pair took 11,480 products here
    products = []
    original = Fraction.__mul__

    def counting(a, b):
        products.append(a)
        return original(a, b)

    monkeypatch.setattr(Fraction, "__mul__", counting)
    solve_formal(quadratic_equation(EXACT, cap=40), 40)
    assert len(products) < 100


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


@st.composite
def wide_terms(draw, num_vars=2, max_expo=3, max_terms=6):
    """Exponent tuple -> Fraction with numerators up to +-10**20 over
    denominators up to 10**4, large coprime ones among them."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = tuple(draw(st.integers(0, max_expo)) for _ in range(num_vars))
        num = draw(st.integers(-10**20, 10**20))
        den = draw(st.one_of(st.integers(1, 10**4), st.sampled_from([9949, 9967, 9973])))
        terms[expo] = Fraction(num, den)
    return terms


def assert_reduced(s):
    for v in s.terms.values():
        assert type(v) is Fraction and v != 0
        assert v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1


@given(wide_terms(), wide_terms(), wide_terms(), st.integers(0, 6))
def test_wide_exact_products_match_naive(ta, tb, tn, cap):
    a, b, n = (make({k: v for k, v in t.items() if sum(k) <= cap}, cap=cap)
               for t in (ta, tb, tn))
    # (a + n)(a - n) = a^2 - n^2: the cross terms cancel to zero
    for left, right in ((a, b), (a + n, a - n), (make({}, cap=cap), b), (a, make({}, cap=cap))):
        got = left * right
        assert dict(got.terms) == naive_mul(dict(left.terms), dict(right.terms), cap)
        assert_reduced(got)
    assert dict(((a + n) * (a - n)).terms) == dict((a * a - n * n).terms)


def _product_operand(rng, mode, n, cap):
    """Seeded terms in no order of degree: low ones and ones of degree
    ``cap``, in one variable or spread over all ``n``, with signed small
    values, which cancel, or wide ones, whose float sums round by order."""
    def value():
        if mode == EXACT:
            return F(rng.choice([-3, -1, 1, 2]) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 3))
        return rng.choice([-3.0, -1.0, 1.0, 2.0, rng.uniform(-1, 1) * 1e3])

    terms = {_exponent(rng, n, *rng.choice([(0, cap), (cap, cap)])): value()
             for _ in range(rng.randint(1, 8))}
    power = [0] * n
    power[rng.randrange(n)] = cap
    terms[tuple(power)] = value()
    return Series(n, cap, terms, mode)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_products_keep_the_naive_order_and_bits(mode):
    # helpers.naive_mul loops left terms outside and right terms inside, in
    # insertion order, as the library does: that fixes each float sum's
    # rounding and the order of the output's terms.  Operands with terms
    # at the cap in 2-3 variables would merge keys in any radix below
    # cap + 1; (p + q)(p - q) cancels its cross terms
    rng = random.Random(3636)
    cancelled = 0
    for _ in range(400):
        n, cap = rng.randint(1, 3), rng.randint(0, 8)
        p, q = (_product_operand(rng, mode, n, cap) for _ in range(2))
        empty = Series.zero(n, cap, mode)
        for a, b in ((p, q), (q, p), (p + q, p - q), (empty, q), (p, empty)):
            got = a * b
            assert list(got.terms.items()) == list(
                naive_mul(dict(a.terms), dict(b.terms), cap).items())
            cancelled += len(got.terms) < len({tuple(map(sum, zip(x, y))) for x in a.terms
                                               for y in b.terms if sum(x) + sum(y) <= cap})
    assert cancelled > 100


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
    c = Series.monomial(2, 8, EXACT, (0, 0), F(3, 2))
    assert dict((a * c).terms) == {k: v * F(3, 2) for k, v in a.terms.items()}


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
    fa = Series(2, 4, {k: float(v) for k, v in terms.items()}, FLOAT)
    assert fa.evaluate((2, 0.5)) == fa.evaluate((2.0, 0.5))


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


def _exponent(rng, num_vars, low, high):
    """A seeded exponent vector in ``num_vars`` variables of total degree in
    ``[low, high]``."""
    alpha = [0] * num_vars
    for _ in range(rng.randint(low, high)):
        alpha[rng.randrange(num_vars)] += 1
    return tuple(alpha)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_outer_terms_above_the_inner_cap_add_nothing(mode):
    # every inner series vanishes at the origin, so an outer term of degree
    # d feeds only degrees of at least d: an outer above the inner cap c
    # composes as the outer cut to c does, bit for bit and term for term
    rng = random.Random(606)
    for _ in range(300):
        m, n, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 5)
        terms = {_exponent(rng, m, 0, c + 3): _draw(rng, mode) for _ in range(rng.randint(1, 10))}
        terms[_exponent(rng, m, c + 1, c + 3)] = _draw(rng, mode) or 1
        outer = Series(m, c + 3, terms, mode)
        inner = [Series(n, c, {_exponent(rng, n, 1, c): _draw(rng, mode)
                               for _ in range(rng.randint(1, 6))}, mode) for _ in range(m)]
        got = compose_series(outer, inner)
        want = compose_series(outer.with_cap(c), inner)
        assert got.degree_cap == c
        assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


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
    assert str(Series.zero(2, 8, EXACT)) == "0"


# ---------------------------------------------------------------------------
# refusals

def _zero(num_vars=1, cap=2, mode=EXACT):
    return Series.zero(num_vars, cap, mode)


def _delete_a_field():
    del _zero().mode


REFUSALS = [
    (lambda: series_module.check_mode("decimal"), ValueError,
     "unknown coefficient mode 'decimal'"),
    (lambda: series_module.coerce_value(float("inf"), FLOAT), ValueError,
     "float coefficients must be finite, got inf"),
    (lambda: series_module.coerce_value(object(), FLOAT), ValueError,
     "float mode takes float or int coefficients, got object"),
    (lambda: parse_value(3, FLOAT), SpecFormatError,
     "coefficient literals must be strings, got 3"),
    (lambda: parse_value("1.5.2", FLOAT), SpecFormatError,
     "bad float coefficient '1.5.2'"),
    (_delete_a_field, AttributeError, "cannot delete field 'mode'"),
    (lambda: Series(0, 2, {}, EXACT), ValueError,
     "num_vars must be a positive integer, got 0"),
    (lambda: Series(1, -1, {}, EXACT), ValueError,
     "degree_cap must be a non-negative integer, got -1"),
    (lambda: Series.coordinate(2, 2, EXACT, 2), ValueError,
     "variable index 2 out of range for 2 variables"),
    (lambda: _zero(2).partial(-1), ValueError,
     "variable index -1 out of range for 2 variables"),
    (lambda: _zero() + 1, TypeError, "cannot add Series and int"),
    (lambda: _zero(1) + _zero(2), ValueError, "cannot add series in 1 and 2 variables"),
    (lambda: _zero().with_cap(-1), ValueError,
     "degree_cap must be a non-negative integer, got -1"),
    (lambda: Series.from_records([{"value": "1"}], 1, 2, EXACT), ValueError,
     "record 0 must have 'exponents' and 'value' fields"),
    (lambda: SeriesMap(()), ValueError, "a series map needs at least one component"),
    (lambda: compose_series(_zero(2), [_zero()]), ValueError,
     "outer series has 2 variables but 1 inner components were given"),
    (lambda: compose_series(_zero(), [_zero(cap=3)]), ValueError,
     "outer cap 2 does not match inner cap 3"),
    (lambda: compose_series(_zero(), [_zero(mode=FLOAT)]), ValueError,
     "outer mode exact does not match inner mode float"),
    (lambda: series_compose(SeriesMap((_zero(2),)), SeriesMap((_zero(),))), ValueError,
     "inner map has 1 outputs but outer map takes 2 variables"),
    (lambda: solve_partition_oracle(quadratic_equation(mode=EXACT), 0), ValueError,
     "degree must be a positive integer, got 0"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS,
                         ids=[message for _, _, message in REFUSALS])
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value).startswith(message)


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
    # every round composes the one copy of psi cut to the solve's degree,
    # so its plan is compiled once
    assert len(built) == 1


# ---------------------------------------------------------------------------
# the bracket of the nearest kernels

# points with no float image (1/5, above the float range), subnormal ones,
# and one at the top of the range, whose products overflow
EDGE_POINTS = (0.0, 5e-324, sys.float_info.min / 3, 1e-200, sys.float_info.max,
               Fraction(sys.float_info.max) + 1, Fraction(1, 5), Fraction(7, 3))
EDGE_COEFFICIENTS = (Fraction(1, 10 ** 400), Fraction(10 ** 400), Fraction(1, 5))


@st.composite
def rounded_cases(draw):
    """``(terms, num_vars, point)``: a non-negative series in 1-3 variables,
    exact or float, and a point of non-negative floats or Fractions."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        value = st.one_of(st.sampled_from(EDGE_COEFFICIENTS),
                          st.fractions(0, 10, max_denominator=1000))
    else:
        value = st.floats(0, sys.float_info.max)
    alphas = st.tuples(*[st.integers(0, 3)] * n).filter(lambda a: sum(a) <= 4)
    terms = draw(st.dictionaries(alphas, value, max_size=6))
    point = tuple(draw(st.one_of(st.sampled_from(EDGE_POINTS), st.floats(0, 4),
                                 st.fractions(0, 4, max_denominator=1000)))
                  for _ in range(n))
    return terms, n, point


@settings(max_examples=300)
@given(rounded_cases())
def test_rounded_kernels_bracket_the_exact_value(case):
    terms, n, point = case
    exact = poly_at(terms, point)
    mode = FLOAT if all(type(v) is float for v in terms.values()) else EXACT
    s = Series(n, 4, terms, mode)
    lo, hi, floor = series_module._bracket([s])
    try:
        run, leaves = series_module._nearest_plan(s)
        z = tuple(map(float, point))
        (v,) = run(z, leaves, 0.0)
    except (ValueError, OverflowError):  # a coefficient or entry beyond the float range
        v = math.inf
    if v < math.inf and min([1.0, *(f for e, f in zip(point, z) if e)]) >= floor:
        # one nearest evaluation, scaled and rounded, brackets the exact value
        assert lo * v <= exact <= hi * v
    else:
        # the gate failed or v is not finite: the value is exact, rounded down
        assert series_module._down(exact) <= exact


@st.composite
def jacobian_cases(draw):
    """``(cmp, x, Y)`` drawn as ``rounded_cases`` draws: a comparison in one
    X and one or two Y, exact or float, at a point ``x`` in its mode and
    float ``Y``, as ``_outside`` reads them.  A float one also takes 0.1 at
    Y-exponents 3, 5 or 6, where ``fl(e * 0.1)`` exceeds ``e * 0.1``."""
    q, exact = draw(st.integers(1, 2)), draw(st.booleans())
    if exact:
        value = st.one_of(st.sampled_from(EDGE_COEFFICIENTS),
                          st.fractions(0, 10, max_denominator=1000))
    else:
        value = st.floats(0, sys.float_info.max)
    alphas = st.tuples(*[st.integers(0, 3)] * (1 + q)).filter(
        lambda a: sum(a) <= 4 and (a[0] or sum(a) >= 2))
    comps = [draw(st.dictionaries(alphas, value, max_size=6)) for _ in range(q)]
    tenths = st.tuples(st.integers(1, q), st.sampled_from([3, 5, 6]))
    for terms in comps if not exact else ():
        for j, e in draw(st.lists(tenths, max_size=2)):
            terms[tuple(e if k == j else 0 for k in range(1 + q))] = 0.1
    mode = EXACT if exact else FLOAT
    cmp_eq = ComparisonEquation(SeriesMap(tuple(Series(1 + q, 6, t, mode) for t in comps)))
    floats = st.one_of(st.sampled_from([p for p in EDGE_POINTS if type(p) is float]),
                       st.floats(0, 4))
    x = draw(st.one_of(st.sampled_from(EDGE_POINTS), st.fractions(0, 4, max_denominator=1000))
             if exact else floats)
    return cmp_eq, (x,), tuple(draw(floats) for _ in range(q))


@settings(max_examples=300)
@given(jacobian_cases())
def test_the_jacobian_lower_bounds_never_exceed_the_exact_partials(case):
    # _outside reads dPsi/dY from the lower bound of _bounds.  A partial's
    # leaf fl(e * c) is one rounding more than Psi's, and fl(3 * 0.1) =
    # 0.30000000000000004 exceeds 3 * Fraction(0.1): both the bracket and
    # the Fraction fallback must start from e * c exactly
    cmp_eq, x, Y = case
    exact = [e for row in _jacobian(exact_polys(cmp_eq), x + Y, 1) for e in row]
    J = _bounds(cmp_eq, x)(series_module._down)(Y, True)
    assert len(J) == len(exact) and all(b <= e for b, e in zip(J, exact))


def _bounds_hold(cmp_eq, x, Y):
    """``lower <= exact <= upper`` from ``_bounds`` at ``(x, Y)``, for Psi and
    for the flat dPsi/dY, the exact form being the dict oracle's value."""
    bound = _bounds(cmp_eq, x)
    lower, upper, exact = bound(series_module._down), bound(series_module._up), bound(Fraction)
    polys, z = exact_polys(cmp_eq), x + Y
    for d, want in ((False, [poly_at(p, z) for p in polys]),
                    (True, [e for row in _jacobian(polys, z, len(x)) for e in row])):
        assert exact(Y, d) == tuple(want)
        assert all(a <= e <= b for a, e, b in zip(lower(Y, d), want, upper(Y, d), strict=True))
    return lower, upper, exact


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_the_bound_evaluator_brackets_psi_and_its_partials(mode):
    # seeded comparisons in one or two X and Y, at points with zero and
    # subnormal entries, and in exact mode with x entries below the float range
    for seed in range(60):
        rng = random.Random(seed)
        cmp_eq = random_comparison(rng)
        floats = lambda: rng.choice([rng.uniform(0, 1.5), 0.0, 5e-324, sys.float_info.min / 3])
        x = tuple(floats() for _ in range(cmp_eq.dim_x))
        if mode == EXACT:
            cmp_eq = ComparisonEquation(SeriesMap(tuple(Series(
                c.num_vars, c.degree_cap, {g: Fraction(v) for g, v in c.terms.items()}, EXACT)
                for c in cmp_eq.psi.components)))
            x = tuple(rng.choice([Fraction(rng.randint(0, 3000), 1999), F(1, 10 ** 400)])
                      for _ in x)
        _bounds_hold(cmp_eq, x, tuple(floats() for _ in range(cmp_eq.dim_y)))


# each fails the gate of an upper bound; the last passes a lower bound's
GATE_FAILURES = {
    "subnormal-coefficient": (
        ComparisonEquation(SeriesMap((Series(2, 4, {(1, 0): 1e-323, (0, 2): 2.0 ** 50},
                                             FLOAT),))), (2.0 ** 1020,), (2.0 ** -51,), True),
    "coefficient-above-the-float-range": (
        ComparisonEquation(SeriesMap((Series(2, 4, {(1, 0): F(1), (0, 2): F(10 ** 400)},
                                             EXACT),))), (F(1, 10 ** 401),), (1e-300,), True),
    "non-finite-kernel-value": (
        ComparisonEquation(SeriesMap((Series(2, 4, {(1, 0): 1.0, (0, 2): 1e300}, FLOAT),))),
        (1.0,), (1e10,), True),
    "x-entry-below-the-float-range": (
        ComparisonEquation(SeriesMap((Series(3, 4, {(1, 0, 0): F(1), (0, 1, 0): F(1),
                                                    (0, 0, 2): F(1)}, EXACT),))),
        (F(3, 10), F(1, 10 ** 400)), (0.5,), False),
}


@pytest.mark.parametrize("name", GATE_FAILURES)
def test_a_point_that_fails_the_gate_is_bounded_by_its_rounded_exact_value(name):
    # an entry read as 0.0 only lowers the value, so a lower bound may pass
    # the gate where an upper one fails it
    cmp_eq, x, Y, lower_falls_back = GATE_FAILURES[name]
    lower, upper, exact = _bounds_hold(cmp_eq, x, Y)
    for d in (False, True):
        assert upper(Y, d) == tuple(map(series_module._up, exact(Y, d)))
        assert (lower(Y, d) == tuple(map(series_module._down, exact(Y, d)))) is lower_falls_back


@given(st.one_of(st.sampled_from(EDGE_POINTS + EDGE_COEFFICIENTS),
                 st.fractions(0, 10, max_denominator=10 ** 6), st.floats(0, 1e300)))
def test_down_picks_the_float_below(value):
    down = series_module._down(value)
    assert type(down) is float and down <= value
    assert down == sys.float_info.max or math.nextafter(down, math.inf) > value


# the source _compile generates for Y = X + Y^2, a map of one component
NEAREST_SOURCE = """def run(point, leaves, zero, scale=None):
    t0, t1, = point
    a1 = zero * t0 + leaves[0]
    a0 = zero * t1 + a1
    a0 = a0 * t1
    a2 = zero * t0 + leaves[1]
    a2 = a2 * t0
    a0 = a0 * t1 + a2
    if scale is None:
        return (a0, )
    return (scale * a0, )"""


def _reference_horner(terms, var, point):
    """Nested Horner in the order of ``_compile``'s nearest kernel."""
    groups = {}
    for alpha, value in terms.items():
        groups.setdefault(alpha[var], {})[alpha] = value
    acc = 0.0
    for k in range(max(groups, default=-1), -1, -1):
        sub = groups.get(k)
        if sub is None:
            acc = acc * point[var]
        elif var == 0:
            acc = acc * point[var] + next(iter(sub.values()))
        else:
            acc = acc * point[var] + _reference_horner(sub, var - 1, point)
    return acc


def test_the_nearest_kernel_source_is_unchanged():
    namespace = {}
    exec(NEAREST_SOURCE, namespace)
    run, leaves = series_module._compile([{(1, 0): 1.0, (0, 2): 1.0}], 2)
    # the flags differ only by the modules' __future__ imports
    for field in ("co_code", "co_consts", "co_names", "co_varnames"):
        assert getattr(run.__code__, field) == getattr(namespace["run"].__code__, field)
    assert leaves == (1.0, 1.0)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                    st.floats(-1e3, 1e3).filter(bool), max_size=6),
    st.tuples(*[st.floats(-4, 4)] * n))))
def test_the_nearest_kernel_is_plain_horner(case):
    terms, point = case
    run, leaves = series_module._compile([terms], len(point))
    (got,) = run(point, leaves, 0.0)
    want = _reference_horner(terms, len(point) - 1, point)
    assert math.copysign(1, got) == math.copysign(1, want) and got == want
    assert leaves == tuple(terms[a] for a in sorted(terms, key=lambda a: a[::-1],
                                                    reverse=True))


@st.composite
def seeded_maps(draw):
    """``(components, num_vars, point)``: 1-3 seeded float series in 1-3
    variables, some empty and some large enough to overflow, and a point."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n, q = rng.randint(1, 3), rng.randint(1, 3)
    scale = rng.choice([1.0, 1e3, 1e200])
    comps = [{tuple(rng.randint(0, 3) for _ in range(n)): rng.uniform(-scale, scale)
              for _ in range(rng.randint(0, 6))} for _ in range(q)]
    return comps, n, tuple(rng.uniform(-4, 4) * rng.choice([1.0, 1e100]) for _ in range(n))


def _bits(value):
    return struct.pack("<d", value)


@given(seeded_maps(), st.sampled_from([1.0, -1.0, 0.5, 1 - 2.0 ** -50]))
def test_a_map_kernel_runs_each_component_kernel(case, scale):
    # one kernel per map returns each component's plain Horner value, bit
    # for bit, and times scale where it is given: the same operations in
    # the same order
    comps, n, point = case
    run, leaves = series_module._compile(comps, n)
    singles = [series_module._compile([terms], n) for terms in comps]
    assert leaves == tuple(c for _, coefficients in singles for c in coefficients)
    want = [_reference_horner(terms, n - 1, point) for terms in comps]
    assert list(map(_bits, run(point, leaves, 0.0))) == list(map(_bits, want))
    got = run(point, leaves, 0.0, scale)
    assert list(map(_bits, got)) == [_bits(scale * v) for v in want]
    point = tuple(map(Fraction, point))
    exact = run(point, tuple(map(Fraction, leaves)), Fraction(0))
    assert exact == tuple(r(point, tuple(map(Fraction, c)), Fraction(0))[0] for r, c in singles)
    assert all(type(v) is Fraction for v in exact)
