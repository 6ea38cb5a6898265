"""Soundness of every certified claim on random positive systems.

Hypothesis draws small comparison equations (one or two unknowns, total
degree at most 3, dyadic coefficients, so float and exact mode hold the
same numbers), points X and tolerances.  Each claim of ``membership``,
``iterate_comparison`` and ``iterate_primal`` is checked against the exact
oracle of helpers.py, monotone Newton in ``Fraction`` arithmetic, never
against the library:

- ``inside`` has an exact pre-fixed point at X: ``principal_Y``, or
  ``Y(0) + bound(0)`` for a trace, passes the oracle's own exact check, and
  the oracle does not prove X outside;
- every error bound is at least the true error, ``bound(p) >= Y* - Y(p)``,
  tested against the oracle's lower bound on the least fixed point ``Y*``;
- ``outside`` is not contradicted by a pre-fixed point the oracle verified,
  and ``dPsi/dY`` has spectral radius above 1 exactly at its witness;
- ``certificate_check`` is the exact decision ``is_pre_fixed``, at drawn
  witnesses and at the least fixed point and one ulp either side of it.

A second strategy spans the scales of ``y = x + c y^2`` over twenty
decades of c, where every point drawn is inside and the certified ``Y~``
must lie close above the closed-form root.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import inf, nextafter

from hypothesis import given, settings, strategies as st

from impsolve import (COMPONENTWISE, EXACT, FLOAT, INSIDE, OUTSIDE,
                      ComparisonEquation, DomainError, EquationSpec,
                      LatticeVec, Series, SeriesMap, certificate_check,
                      iterate_comparison, iterate_primal, membership)

from helpers import (exact_polys, expands, fixed_point_oracle, is_pre_fixed,
                     scalar_comparison)

# the membership budget and the trace's max_iter, the same in both modes:
# an exact run iterates on its float twin, never in Fraction
BUDGET, MAX_ITER = 2000, 400

dyadics = st.builds(lambda k, j: Fraction(k, 2 ** j), st.integers(1, 8),
                    st.integers(0, 3))


@st.composite
def systems(draw):
    """``(cmp, X, tol)``: a positive system, a point X >= 0 and a tol."""
    mode = draw(st.sampled_from([EXACT, FLOAT]))
    value = Fraction if mode == EXACT else float
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    gammas = st.tuples(*[st.integers(0, 3)] * (p + q)).filter(
        lambda g: sum(g) <= 3 and (any(g[:p]) or sum(g) >= 2))
    comps = tuple(
        Series(p + q, 3, {g: value(c) for g, c in draw(
            st.dictionaries(gammas, dyadics, min_size=1, max_size=4)).items()},
            mode)
        for _ in range(q))
    X = tuple(value(Fraction(k, 64)) for k in draw(
        st.lists(st.integers(0, 40), min_size=p, max_size=p)))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.5, 1.0]))
    return ComparisonEquation(SeriesMap(comps)), X, tol


def _bounds_cover_the_tail(polys, X, trace):
    """The trace's inside claim and bounds against the exact oracle."""
    lower, _, outside = fixed_point_oracle(polys, X)
    Y_tilde = [Fraction(y) + Fraction(b) for y, b in
               zip(trace.iterates_Y[0].entries, trace.error_bounds[0].entries)]
    assert not outside
    assert is_pre_fixed(polys, X, Y_tilde)
    for Y, bound in zip(trace.iterates_Y, trace.error_bounds):
        for y, b, low in zip(Y.entries, bound.entries, lower):
            assert Fraction(b) >= low - Fraction(y)


@settings(max_examples=200)
@given(systems())
def test_membership_claims_hold(case):
    cmp_eq, X, _ = case
    polys = exact_polys(cmp_eq)
    got = membership(cmp_eq, LatticeVec(X), BUDGET)
    _, upper, outside = fixed_point_oracle(polys, X)
    if got.verdict == INSIDE:
        assert not outside
        assert is_pre_fixed(polys, X, got.principal_Y.entries)
    if got.verdict == OUTSIDE:
        assert upper is None
        assert expands(polys, X, got.witness.entries)


@settings(max_examples=200)
@given(systems())
def test_every_bound_covers_the_true_error(case):
    cmp_eq, X, tol = case
    polys = exact_polys(cmp_eq)
    trace = iterate_comparison(cmp_eq, LatticeVec(X), MAX_ITER, tol)
    if trace.verdict == INSIDE:
        _bounds_cover_the_tail(polys, X, trace)
    # a positive system is its own majorant: the paired run's primal
    # iterates are the comparison's, and so is its true error
    eq = EquationSpec(cmp_eq.psi, COMPONENTWISE, COMPONENTWISE)
    try:
        paired = iterate_primal(eq, X, cmp_eq, MAX_ITER, tol)
    except DomainError:
        assert trace.verdict != INSIDE
        return
    assert trace.verdict == INSIDE
    _bounds_cover_the_tail(polys, X, paired)


@settings(max_examples=200)
@given(systems(), st.data())
def test_the_check_is_the_exact_decision(case, data):
    # the float kernels rounded up and down decide certificate_check, so on
    # a witness at the least fixed point, or one ulp either side, they
    # must agree with the pure-Fraction test
    cmp_eq, X, _ = case
    polys = exact_polys(cmp_eq)
    value = Fraction if cmp_eq.mode == EXACT else float
    lower, _, _ = fixed_point_oracle(polys, X)
    ulps = st.sampled_from([-1, 0, 1])
    Y = tuple(value(y) if k == 0 else value(max(nextafter(float(y), k * inf), 0.0))
              for y, k in zip(lower, data.draw(st.tuples(*[ulps] * len(lower)))))
    if data.draw(st.booleans()):
        Y = tuple(value(Fraction(k, 64)) for k in data.draw(
            st.lists(st.integers(0, 64), min_size=len(Y), max_size=len(Y))))
    assert certificate_check(cmp_eq, X, Y) == is_pre_fixed(polys, X, Y)


@st.composite
def scaled_quadratics(draw):
    """``(c, X)``: c log-uniform in [1, 1e20], X log-uniform over thirty
    decades below ``(1 - 1e-6) / (4c)``, inside the region ``X < 1/(4c)``."""
    c = 10.0 ** draw(st.floats(0, 20))
    return c, (1 - 1e-6) / (4 * c) * 10.0 ** -draw(st.floats(0, 30))


@settings(max_examples=200)
@given(scaled_quadratics())
def test_the_push_is_relative_at_every_scale(case):
    # a push never below 1e-14 failed every check once Y was far below it,
    # so large c and small X came back unresolved
    c, X = case
    cmp_eq = scalar_comparison({(1, 0): 1.0, (0, 2): c})
    got = membership(cmp_eq, LatticeVec((X,)))
    assert got.verdict == INSIDE
    (Y,) = got.principal_Y.entries
    assert is_pre_fixed(exact_polys(cmp_eq), (X,), (Y,))
    # the root (1 - sqrt(1 - 4cX))/(2c), in a form without cancellation; the
    # push along v = (1 - dPsi/dY)^-1 = 1/sqrt(1 - 4cX) grows with v, up to
    # 1e3 at the top of the range, so the gap is bounded relative to Y* v
    with localcontext() as ctx:
        ctx.prec = 50
        s = (1 - 4 * Decimal(c) * Decimal(X)).sqrt()
        root = 2 * Decimal(X) / (1 + s)
        assert 0 <= Decimal(Y) - root <= Decimal("1e-12") * root / s
