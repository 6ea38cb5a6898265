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
- ``outside`` is found, not only true: at every X the oracle proves outside
  with a margin, X / 1.1 outside, ``membership`` answers ``outside``;
- so is ``inside``: at every X where the oracle on the unknowns X feeds
  proves a least fixed point at 1.1 X, ``membership`` answers ``inside``;
- ``certificate_check`` is the exact decision ``is_pre_fixed``, at drawn
  witnesses and at the least fixed point and one ulp either side of it;
- the two questions agree: at every certified inside point of an exact
  system, each partial sum of its formal solution lies below ``Y~``.

A second strategy spans the scales of ``y = x + c y^2`` over twenty
decades of c, where every point drawn is inside and the certified ``Y~``
must lie close above the closed-form root.

Both modes run one engine: an exact system with dyadic coefficients answers
as its float image does, and a ray's bracket holds against the oracle in
both modes, non-dyadic exact coefficients such as k/10 and k/3 included.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import inf, nextafter

from hypothesis import assume, given, settings, strategies as st

from impsolve import (COMPONENTWISE, EXACT, FLOAT, INSIDE, OUTSIDE,
                      ComparisonEquation, DomainError, EquationSpec,
                      LatticeVec, Series, SeriesMap, certificate_check,
                      hille_point, iterate_comparison, iterate_primal,
                      membership, radius_along_ray, solve_formal, trace_graph)

from helpers import (exact_polys, expands, fixed_point_oracle, is_pre_fixed,
                     oracle_on_the_fed_unknowns, scalar_comparison)

# the membership budget and the trace's max_iter, the same in both modes:
# an exact run searches on Psi's kernels on its coefficients rounded to
# nearest, and never iterates in Fraction
BUDGET, MAX_ITER = 2000, 400

dyadics = st.builds(lambda k, j: Fraction(k, 2 ** j), st.integers(1, 8),
                    st.integers(0, 3))
non_dyadics = st.builds(Fraction, st.integers(1, 8), st.sampled_from([1, 2, 3, 8, 10]))


def _terms(draw, p, q, coefficients):
    """The terms of ``q`` components in ``p + q`` variables: total degree at
    most 3, none constant and none linear in Y alone."""
    gammas = st.tuples(*[st.integers(0, 3)] * (p + q)).filter(
        lambda g: sum(g) <= 3 and (any(g[:p]) or sum(g) >= 2))
    return [draw(st.dictionaries(gammas, coefficients, min_size=1, max_size=4))
            for _ in range(q)]


def _crossing(draw, terms, p, coefficients):
    """``terms`` with ``c X_0`` and ``c' Y_0^2`` added to component 0, so
    that every ray feeds a cycle and crosses the boundary."""
    n = p + len(terms)
    x0 = tuple(int(j == 0) for j in range(n))
    y0 = tuple(2 * (j == p) for j in range(n))
    return [{**terms[0], x0: draw(coefficients), y0: draw(coefficients)}] + terms[1:]


def _comparison(terms, mode):
    value = Fraction if mode == EXACT else float
    return ComparisonEquation(SeriesMap(tuple(
        Series(len(next(iter(t))), 3, {g: value(c) for g, c in t.items()}, mode)
        for t in terms)))


@st.composite
def systems(draw):
    """``(cmp, X, tol)``: a positive system, a point X >= 0 and a tol."""
    mode = draw(st.sampled_from([EXACT, FLOAT]))
    value = Fraction if mode == EXACT else float
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    terms = _terms(draw, p, q, dyadics)
    X = tuple(value(Fraction(k, 64)) for k in draw(
        st.lists(st.integers(0, 40), min_size=p, max_size=p)))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.5, 1.0]))
    return _comparison(terms, mode), X, tol


@st.composite
def crossing_systems(draw):
    """``(cmp, X)``: a positive system whose every ray crosses the boundary
    (``_crossing``), in either mode, and a point X > 0."""
    mode = draw(st.sampled_from([EXACT, FLOAT]))
    value = Fraction if mode == EXACT else float
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    terms = _crossing(draw, _terms(draw, p, q, dyadics), p, dyadics)
    X = tuple(value(Fraction(k, 64)) for k in draw(
        st.lists(st.integers(1, 64), min_size=p, max_size=p)))
    return _comparison(terms, mode), X


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


@settings(max_examples=100)
@given(crossing_systems())
def test_a_point_well_outside_is_found_outside(case):
    # the oracle proves X / 1.1 outside, so X is outside by a tenth: the
    # spectral test on the Kleene loop's own increments must find a witness
    # within the budget, not only never claim a false one
    cmp_eq, X = case
    polys = exact_polys(cmp_eq)
    assume(fixed_point_oracle(polys, tuple(Fraction(e) / Fraction(11, 10) for e in X))[2])
    got = membership(cmp_eq, LatticeVec(X), BUDGET)
    assert got.verdict == OUTSIDE
    assert expands(polys, X, got.witness.entries)


@settings(max_examples=400)
@given(systems())
def test_a_point_well_inside_is_found_inside(case):
    # the oracle, on the unknowns X feeds, proves a least fixed point at
    # 1.1 X, so X is inside by a tenth: the Newton certificate must find it,
    # also where dPsi/dY has rho >= 1 on an unknown that no term feeds
    cmp_eq, X, _ = case
    polys = exact_polys(cmp_eq)
    assume(oracle_on_the_fed_unknowns(polys, tuple(map(Fraction, X)),
                                      Fraction(11, 10))[1] is not None)
    got = membership(cmp_eq, LatticeVec(X), BUDGET)
    assert got.verdict == INSIDE
    assert is_pre_fixed(polys, X, got.principal_Y.entries)


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
    # one nearest kernel per component, bracketed by _bracket, decides
    # certificate_check, with Fraction only where the bracket cannot; on a
    # witness at the least fixed point, or one ulp either side, it must
    # agree with the pure-Fraction test
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


@settings(max_examples=100)
@given(systems())
def test_the_partial_sums_lie_below_every_certified_inside(case):
    # Phi_N(X) <= Y_N(X) <= Y* <= Y~: the N-th Kleene iterate from 0, a
    # polynomial in X, carries every coefficient of the formal solution Phi
    # up to degree N and above N only non-negative ones; checked in Fraction
    # on the drawn system made exact, at X = t (1, ..., 1) for t = k/64 up
    # to the first outside verdict, past which the region holds no point
    cmp_eq, _, _ = case
    exact = _comparison(exact_polys(cmp_eq), EXACT)
    partial_sums = [solve_formal(exact, N).phi for N in (4, 8)]
    for k in range(1, 65):
        X = (Fraction(k, 64),) * exact.dim_x
        got = membership(exact, LatticeVec(X), BUDGET)
        if got.verdict == OUTSIDE:
            break
        if got.verdict == INSIDE:
            for phi in partial_sums:
                assert all(v <= y for v, y in zip(phi.evaluate(X), got.principal_Y.entries))


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


@settings(max_examples=60)
@given(st.integers(1, 2), st.integers(1, 2), st.data())
def test_an_exact_system_answers_as_its_float_image(p, q, data):
    # one engine serves both modes: on dyadic coefficients the nearest
    # kernels of the exact system are the float system's, and the exact
    # checks decide as the float checks do, so every answer is the same
    terms = _terms(data.draw, p, q, dyadics)
    if data.draw(st.booleans()):
        terms = _crossing(data.draw, terms, p, dyadics)
    exact, image = _comparison(terms, EXACT), _comparison(terms, FLOAT)
    X = tuple(Fraction(k, 64) for k in data.draw(
        st.lists(st.integers(0, 40), min_size=p, max_size=p)))
    got = membership(exact, LatticeVec(X), BUDGET)
    assert got.principal_Y is None or type(got.principal_Y.entries[0]) is Fraction
    assert got == membership(image, LatticeVec(tuple(map(float, X))), BUDGET)
    direction = LatticeVec(tuple(data.draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=p, max_size=p).filter(any))))
    assert (radius_along_ray(exact, direction, tol=1e-3)
            == radius_along_ray(image, direction, tol=1e-3))
    if p == q == 1 and any(g[0] for g in terms[0]):
        assert hille_point(exact) == hille_point(image)
        assert trace_graph(exact, 1.0, 16) == trace_graph(image, 1.0, 16)


@settings(max_examples=80)
@given(st.sampled_from([EXACT, FLOAT]), st.integers(1, 2), st.data())
def test_a_ray_bracket_holds_against_the_oracle(mode, q, data):
    # the inside end has a pre-fixed point and the outside end none, in
    # both modes; an exact comparison decides each probe against its own
    # coefficients, k/10 or k/3 too, not against their float images
    terms = _crossing(data.draw, _terms(data.draw, 1, q, non_dyadics), 1, non_dyadics)
    cmp_eq = _comparison(terms, mode)
    d = data.draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
    ray = radius_along_ray(cmp_eq, LatticeVec((float(d),)), tol=1e-3)
    assert not ray.unbounded
    polys = exact_polys(cmp_eq)
    t_in, t_out = Fraction(ray.t_inside), Fraction(ray.t_outside)
    _, upper = oracle_on_the_fed_unknowns(polys, (d,), t_in)
    assert upper is not None and is_pre_fixed(polys, (t_in * d,), upper)
    assert oracle_on_the_fed_unknowns(polys, (d,), t_out)[1] is None
