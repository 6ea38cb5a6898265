"""Monotone iteration on the comparison equation, paired primal runs,
membership verdicts, and convergence certificates.

Frozen iterate values were computed by hand from Y <- X + Y^2; principal
limits come from the closed-form roots in helpers.py.
"""

import io
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import impsolve.kantorovich
from impsolve import (
    COMPONENTWISE,
    DEFAULT_BUDGET,
    EXACT,
    ComparisonEquation,
    DomainError,
    EquationSpec,
    FLOAT,
    INSIDE,
    LatticeVec,
    Membership,
    OUTSIDE,
    Series,
    SeriesMap,
    UNRESOLVED,
    certificate_check,
    error_bound,
    iterate_comparison,
    iterate_primal,
    majorant,
    membership,
    radius_along_ray,
    trace_to_csv,
)

from helpers import (
    _exact_inverse,
    exact_polys,
    expands,
    fixed_point_oracle,
    is_pre_fixed,
    principal_quadratic,
    quadratic_comparison,
    quadratic_equation,
    random_comparison,
    random_equation,
    scalar_comparison,
    signed_quadratic,
    within,
)


X_at = lambda t: LatticeVec((t,))


# ---------------------------------------------------------------------------
# the comparison iteration

def test_first_iterates_frozen():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.25), max_iter=3)
    got = [Y.entries[0] for Y in trace.iterates_Y]
    assert got == [0.0, 0.25, 0.3125, 0.34765625]


def test_convergence_inside():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.2))
    assert trace.verdict == INSIDE
    limit = trace.iterates_Y[-1].entries[0]
    assert limit == pytest.approx(principal_quadratic(0.2), abs=1e-10)


def test_divergence_outside():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.3))
    assert trace.verdict == OUTSIDE
    assert trace.error_bounds is None
    assert trace.steps < 50


def test_budget_exhaustion_on_boundary():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.25),
                               max_iter=500)
    assert trace.verdict == UNRESOLVED
    assert trace.steps == 500


def test_iterates_are_monotone():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.2))
    values = [Y.entries[0] for Y in trace.iterates_Y]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_negative_X_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        iterate_comparison(quadratic_comparison(), X_at(-0.1))


def test_monotone_corpus():
    rng = random.Random(515)
    hits = 0
    for _ in range(8):
        cmp_eq = random_comparison(rng)
        for k in range(3, 9):
            X = LatticeVec((0.5 ** k,) * cmp_eq.dim_x)
            trace = iterate_comparison(cmp_eq, X, max_iter=2000)
            if trace.verdict != INSIDE:
                continue
            hits += 1
            for a, b in zip(trace.iterates_Y, trace.iterates_Y[1:]):
                assert all(x <= y + 1e-12 for x, y in
                           zip(a.entries, b.entries))
            break
    assert hits >= 6  # the corpus must actually exercise the property


@st.composite
def positive_comparisons(draw):
    """A comparison of q <= 2 unknowns, degree <= 3, with a point X >= 0."""
    mode = draw(st.sampled_from([EXACT, FLOAT]))
    value = (lambda v: v) if mode == EXACT else float
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    gammas = st.tuples(*[st.integers(0, 3)] * (p + q)).filter(
        lambda g: sum(g) <= 3 and (any(g[:p]) or sum(g) >= 2))
    coefficients = st.fractions(Fraction(1, 4), 2, max_denominator=4)
    comps = tuple(
        Series(p + q, 6, {g: value(c) for g, c in draw(
            st.dictionaries(gammas, coefficients, min_size=1, max_size=4)).items()},
            mode)
        for _ in range(q))
    X = draw(st.lists(st.fractions(0, 2, max_denominator=8),
                      min_size=p, max_size=p))
    return ComparisonEquation(SeriesMap(comps)), LatticeVec(tuple(map(value, X)))


@given(positive_comparisons())
def test_iterates_from_zero_never_decrease(case):
    # non-negative coefficients and X make every step of the compiled Psi
    # monotone, in float rounding as in exact arithmetic
    cmp_eq, X = case
    trace = iterate_comparison(cmp_eq, X, max_iter=400, tol=1e-6)
    for a, b in zip(trace.iterates_Y, trace.iterates_Y[1:]):
        assert all(x <= y for x, y in zip(a.entries, b.entries))
    for bound in trace.error_bounds or ():
        assert all(e >= 0 for e in bound.entries)


def _signed_cubic():
    """y = x + y^2 - y^3/1000: one negative coefficient, so no comparison."""
    return EquationSpec(SeriesMap((Series(2, 9, {(1, 0): 1.0, (0, 2): 1.0,
                                                 (0, 3): -1e-3}, FLOAT),)),
                        COMPONENTWISE, COMPONENTWISE)


@pytest.mark.parametrize("call", [
    # answered inside: only the type vouches for non-negative coefficients
    lambda: membership(_signed_cubic(), X_at(0.1)),
    lambda: iterate_comparison(_signed_cubic(), X_at(0.1)),
    lambda: iterate_primal(quadratic_equation(), (0.1,), quadratic_equation(sign=-1)),
    lambda: certificate_check(quadratic_equation(sign=-1), (0.1,), (0.2,)),
], ids=["membership", "iterate_comparison", "iterate_primal", "certificate_check"])
def test_a_non_comparison_is_refused(call):
    with pytest.raises(TypeError, match="a ComparisonEquation is required, "
                                        "got EquationSpec"):
        call()


# ---------------------------------------------------------------------------
# error bounds

def test_error_bounds_shrink_to_zero():
    # each bound covers the whole tail Y* - Y(p): measured against the exact
    # oracle's lower bound on Y*, never against the last iterate
    trace = iterate_comparison(quadratic_comparison(), X_at(0.2))
    bounds = [b.entries[0] for b in trace.error_bounds]
    assert len(bounds) == len(trace.iterates_Y)
    assert all(b >= 0 for b in bounds)
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    lower, _, _ = fixed_point_oracle(exact_polys(quadratic_comparison()), (0.2,))
    for b, Y in zip(bounds, trace.iterates_Y):
        assert Fraction(b) >= lower[0] - Fraction(Y.entries[0])
    assert bounds[-1] <= 1e-12


def test_error_bound_accessor():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.2))
    assert error_bound(trace, 0).entries[0] == pytest.approx(
        principal_quadratic(0.2), abs=1e-9)
    with pytest.raises(ValueError):
        error_bound(trace, len(trace.iterates_Y))


def test_error_bound_requires_convergence():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.3))
    with pytest.raises(DomainError):
        error_bound(trace, 0)


# ---------------------------------------------------------------------------
# paired primal runs

def test_primal_pairing_converges_to_closed_form():
    eq = quadratic_equation(sign=-1)
    trace = iterate_primal(eq, (0.2,), majorant(eq))
    assert trace.iterates_y is not None
    assert len(trace.iterates_y) == len(trace.iterates_Y)
    y_final = trace.iterates_y[-1][0]
    assert y_final == pytest.approx(signed_quadratic(0.2), abs=1e-10)


def test_primal_error_dominated_by_bound():
    eq = quadratic_equation(sign=-1)
    trace = iterate_primal(eq, (0.2,), majorant(eq), tol=1e-15)
    y_true = signed_quadratic(0.2)
    for p in range(min(50, len(trace.iterates_y))):
        err = abs(y_true - trace.iterates_y[p][0])
        assert err <= error_bound(trace, p).entries[0] + 1e-15


def test_primal_run_of_a_comparison_is_its_comparison_run():
    for mode, x in ((FLOAT, 0.2), (EXACT, Fraction(1, 100))):
        cmp_eq = quadratic_comparison(mode=mode)
        trace = iterate_primal(cmp_eq, (x,), cmp_eq, max_iter=60, tol=1e-6)
        assert trace.verdict == INSIDE
        assert trace.iterates_y == tuple(Y.entries for Y in trace.iterates_Y)
        assert trace.iterates_Y == iterate_comparison(
            cmp_eq, X_at(x), 60, 1e-6).iterates_Y

def test_primal_dominated_stepwise():
    rng = random.Random(616)
    exercised = 0
    for _ in range(6):
        eq, _ = random_equation(rng, mode=FLOAT)
        cmp_eq = majorant(eq)
        for k in range(4, 10):
            x = tuple(((-1) ** j) * 0.5 ** k for j in range(eq.dim_x))
            try:
                trace = iterate_primal(eq, x, cmp_eq, max_iter=3000)
            except DomainError:
                continue
            exercised += 1
            for yp, Yp in zip(trace.iterates_y, trace.iterates_Y):
                for a, b in zip(yp, Yp.entries):
                    assert abs(a) <= b + 1e-12
            for (ya, Ya), (yb, Yb) in zip(
                    zip(trace.iterates_y, trace.iterates_Y),
                    zip(trace.iterates_y[1:], trace.iterates_Y[1:])):
                for i in range(len(ya)):
                    step = abs(yb[i] - ya[i])
                    gap = Yb.entries[i] - Ya.entries[i]
                    assert step <= gap + 1e-12
            break
    assert exercised >= 4


def test_primal_requires_comparison_certificate():
    eq = quadratic_equation(sign=-1)
    with pytest.raises(DomainError, match="diverged"):
        iterate_primal(eq, (0.4,), majorant(eq))


# ---------------------------------------------------------------------------
# membership

def test_membership_inside():
    got = membership(quadratic_comparison(), X_at(0.2))
    assert got.verdict == INSIDE
    assert got.principal_Y.entries[0] == pytest.approx(
        principal_quadratic(0.2), abs=1e-10)
    assert got.witness is None


def test_membership_outside_with_witness():
    # the witness is a Kleene iterate below every fixed point where
    # dPsi/dY = 2Y exceeds 1, which no least fixed point allows
    got = membership(quadratic_comparison(), X_at(0.3))
    assert got == Membership(OUTSIDE, None, 6, witness=LatticeVec((0.6073745738548137,)))
    assert 2 * Fraction(got.witness.entries[0]) > 1


def test_exact_membership_outside_finishes():
    # the divergence search iterated in Fraction, whose digits double each
    # step, and never returned at the default budget; it now runs in float
    # on lower bounds from Psi's nearest kernel, and the witness has 2Y > 1
    got = within(1.0, lambda: membership(quadratic_comparison(EXACT),
                                         X_at(Fraction(26, 100))))
    assert (got.verdict, got.iterations_used) == (OUTSIDE, 14)
    (Y,) = got.witness.entries
    assert type(Y) is Fraction and Y == float(Y) and 2 * Y > 1


def test_membership_unresolved_on_boundary():
    got = membership(quadratic_comparison(), X_at(0.25))
    assert got.verdict == UNRESOLVED
    assert got.iterations_used == DEFAULT_BUDGET


def test_large_tol_does_not_certify_a_point_outside():
    # no fixed point exists for X > 1/4, and at tol 0.01 the verdict is
    # outside; at tol 1 the first step, from 0 to 0.3, counts as settled
    assert iterate_comparison(quadratic_comparison(), X_at(0.3), tol=1).verdict != INSIDE


@pytest.mark.parametrize("tol", [float("nan"), -1e-12, float("-inf"),
                                 float("inf")])
def test_bad_tol_rejected(tol):
    # with a NaN tol no step ever settled: X = 0.2, inside, spent the whole
    # budget and came back unresolved; an infinite tol took the first step
    # as settled in float and raised OverflowError from Fraction(inf) in exact
    for mode, x in ((FLOAT, 0.2), (EXACT, Fraction(1, 5))):
        cmp_eq = quadratic_comparison(mode)
        with pytest.raises(ValueError, match="tol"):
            iterate_comparison(cmp_eq, X_at(x), tol=tol)
        eq = quadratic_equation(mode, sign=-1)
        with pytest.raises(ValueError, match="tol"):
            iterate_primal(eq, (x,), majorant(eq), tol=tol)


def test_zero_tol_is_legal():
    # no step settles at tol 0, so the trace runs the whole budget; the
    # certificate does not depend on tol, and its bounds hold at every step
    got = iterate_comparison(quadratic_comparison(), X_at(0.2), max_iter=20, tol=0.0)
    assert got.verdict == INSIDE and got.steps == 20
    lower, _, _ = fixed_point_oracle(exact_polys(quadratic_comparison()), (0.2,))
    for b, Y in zip(got.error_bounds, got.iterates_Y):
        assert Fraction(b.entries[0]) >= lower[0] - Fraction(Y.entries[0])


@pytest.mark.parametrize("call, message", [
    (lambda: membership(quadratic_comparison(), X_at(0.2), budget=0),
     "max_iter must be positive"),
    (lambda: iterate_comparison(quadratic_comparison(), X_at(0.2), max_iter=0),
     "max_iter must be positive"),
    (lambda: iterate_primal(quadratic_equation(), (0.1, 0.1),
                            quadratic_comparison()),
     "x has 2 entries, expected 1"),
], ids=["membership budget 0", "iterate max_iter 0", "primal x too long"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    # a comparison of dim_x 2 was refused as "X has dimension 1, expected
    # 2", about an X the caller never passed
    (lambda: iterate_primal(quadratic_equation(), (0.1,), ComparisonEquation(
        SeriesMap((Series(3, 8, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 2): 1.0},
                          FLOAT),)))),
     "the norm profiles do not match the comparison equation dimensions"),
    (lambda: iterate_primal(quadratic_equation(), (0.1,), quadratic_comparison(EXACT)),
     "mode mismatch: float vs exact"),
    # a point beyond the float range was called a "coefficient"
    (lambda: membership(quadratic_comparison(), X_at(10 ** 400)),
     r"^X entry 10{400} is too large for a float"),
    (lambda: certificate_check(quadratic_comparison(), (0.1,), (10 ** 400,)),
     r"^Y_tilde entry 10{400} is too large for a float"),
], ids=["primal comparison dimensions", "primal comparison mode",
        "X beyond floats", "Y_tilde beyond floats"])
def test_refusals_name_what_is_wrong(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# certificates and minimality

def test_certificate_frozen_examples():
    cmp_eq = quadratic_comparison()
    assert certificate_check(cmp_eq, (0.25,), (0.5,))
    assert not certificate_check(cmp_eq, (0.3,), (0.5,))
    assert certificate_check(cmp_eq, (0.1,), (0.2,))


def test_certificate_is_exact_in_float_mode():
    # at X = 1/4 + 2^-54, Psi(X, 1/2) = 1/2 + 2^-54 rounds to 1/2 in float,
    # but no fixed point exists for X > 1/4
    X = 0.25 + 2 ** -54
    assert X + 0.5 ** 2 == 0.5
    assert not certificate_check(quadratic_comparison(), (X,), (0.5,))
    assert certificate_check(quadratic_comparison(), (0.25,), (0.5,))


def test_certificate_rejects_negative_witness():
    cmp_eq = quadratic_comparison()
    with pytest.raises(ValueError, match="non-negative"):
        certificate_check(cmp_eq, (0.1,), (-0.2,))


def test_certificate_checks_both_shapes_on_a_system():
    # Y0 = X + Y0 Y1, Y1 = 2X + Y0^2 at (0.1; 0.2, 0.2): Y1 fails, and the
    # mis-shaped call read the same point but compared Y0 alone, so it
    # returned True
    cmp_eq = ComparisonEquation(SeriesMap((
        Series(3, 8, {(1, 0, 0): 1.0, (0, 1, 1): 1.0}, FLOAT),
        Series(3, 8, {(1, 0, 0): 2.0, (0, 2, 0): 1.0}, FLOAT))))
    assert not certificate_check(cmp_eq, (0.1,), (0.2, 0.2))
    with pytest.raises(ValueError, match="X has dimension 2, expected 1"):
        certificate_check(cmp_eq, (0.1, 0.2), (0.2,))
    with pytest.raises(ValueError, match="Y_tilde has dimension 1, expected 2"):
        certificate_check(cmp_eq, (0.1,), (0.2,))


def test_principal_solution_is_minimal():
    cmp_eq = quadratic_comparison()
    principal = membership(cmp_eq, X_at(0.2)).principal_Y.entries[0]
    grid = [k / 100 for k in range(1, 100)]
    certified = [y for y in grid if certificate_check(cmp_eq, (0.2,), (y,))]
    assert certified  # the upper root region must be sampled
    assert all(principal <= y + 1e-9 for y in certified)


def test_certificate_region_is_an_interval_between_roots():
    # for Y = 0.2 + Y^2 the certificate holds exactly between the roots
    lo = principal_quadratic(0.2)
    hi = (1.0 + math.sqrt(1.0 - 0.8)) / 2.0
    cmp_eq = quadratic_comparison()
    for y in [lo + 1e-6, 0.5, hi - 1e-6]:
        assert certificate_check(cmp_eq, (0.2,), (y,))
    for y in [lo - 1e-3, hi + 1e-3]:
        assert not certificate_check(cmp_eq, (0.2,), (y,))


# ---------------------------------------------------------------------------
# CSV export

def test_trace_csv_shape():
    eq = quadratic_equation(sign=-1)
    trace = iterate_primal(eq, (0.2,), majorant(eq))
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "p,Y0,y0,bound0,delta0"
    assert len(lines) == 1 + len(trace.iterates_Y)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0


def test_trace_csv_without_primal():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.1))
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    header = buf.getvalue().splitlines()[0]
    assert header == "p,Y0,bound0,delta0"


# ---------------------------------------------------------------------------
# frozen loop results
#
# Recorded from the code.  Equality is exact: the step count, the certified
# point and the witness pin every comparison and every float operation.  An
# inside result is the Newton certificate, recorded only once the exact
# oracle of helpers.py agreed with it (see _agrees_with_oracle); an outside
# one is a lower bound on a Kleene iterate, re-recorded only once expands
# and the oracle agreed with it, at a point the oracle proves outside,
# where dPsi/dY has spectral radius above 1 exactly.


def _agrees_with_oracle(cmp_eq, X, got):
    """The verdict matches the exact oracle, an inside ``principal_Y`` is a
    pre-fixed point at X within 1e-10 (relative) above its lower bound on
    the least fixed point, and an outside witness has ``rho(J) > 1``."""
    polys = exact_polys(cmp_eq)
    lower, upper, outside = fixed_point_oracle(polys, X)
    if got.verdict == OUTSIDE:
        return outside and expands(polys, X, got.witness.entries)
    Y = got.principal_Y.entries
    return (upper is not None and is_pre_fixed(polys, X, Y)
            and all(Fraction(y) - low <= Fraction(1e-10) * max(1, low)
                    for y, low in zip(Y, lower)))

def big_linear_comparison():
    """Y = 1e10 X + Y^2, the comparison of y = 1e10 x + y^2."""
    return scalar_comparison({(1, 0): 1e10, (0, 2): 1.0})


def seeded_ray_system(seed):
    """Y0 = a X + b Y0 Y1 + c Y1^2, Y1 = d X + e Y0^2 + f X Y1, seeded."""
    rng = random.Random(seed)
    co = lambda: rng.randint(500, 2000) / 1000
    Y0 = Series(3, 3, {(1, 0, 0): co(), (0, 1, 1): co(), (0, 0, 2): co()}, FLOAT)
    Y1 = Series(3, 3, {(1, 0, 0): co(), (0, 2, 0): co(), (1, 0, 1): co()}, FLOAT)
    return ComparisonEquation(SeriesMap((Y0, Y1)))


# the first iterate where 1e10 * 1e300 or 1e155^2 overflows: the nearest
# kernel gives inf, so Psi is taken in Fraction and rounded down, to the
# largest float
FIRST_DOWN_ITERATE = sys.float_info.max


def test_an_overflowing_first_step_is_outside_at_budget_one():
    # 1e300 is far past X* = 2.5e-11: the overflow needed a second step, in
    # Fraction, so a budget of 1 said unresolved; rounded down it stops at
    # the largest float, where dPsi/dY = 2Y exceeds 1 at once
    got = membership(big_linear_comparison(), X_at(1e300), 1)
    assert got == Membership(OUTSIDE, None, 1, witness=LatticeVec((FIRST_DOWN_ITERATE,)))


def test_overflow_is_outside_when_the_exact_steps_diverge():
    # the second step raised "float coefficients must be finite, got inf"
    # when it read the overflowed iterate.  The exact iterates 1e310, 1e620
    # diverge; rounded down, the first is the largest float, where dPsi/dY
    # exceeds 1.  The trace, on the nearest kernels, keeps the finite Y(0)
    got = membership(big_linear_comparison(), X_at(1e300), 2)
    assert got == Membership(OUTSIDE, None, 1, witness=LatticeVec((FIRST_DOWN_ITERATE,)))
    trace = iterate_comparison(big_linear_comparison(), X_at(1e300), 2)
    assert trace.verdict == OUTSIDE
    assert trace.iterates_Y == (LatticeVec((0.0,)),)


def test_a_first_iterate_that_overflows_is_outside():
    # y = x^2 + y^2 has its crossing at X = 1/2; at 1e155 the first iterate,
    # 1e310, overflows, and the next step raised ValueError
    got = membership(scalar_comparison({(2, 0): 1.0, (0, 2): 1.0}), X_at(1e155))
    assert got == Membership(OUTSIDE, None, 1, witness=LatticeVec((FIRST_DOWN_ITERATE,)))


@pytest.mark.parametrize("X2, steps", [(0.0, 8), (1e-201, 10)], ids=["nan", "inf"])
def test_an_overflow_that_horner_brings_back_is_unresolved(X2, steps):
    # X0^40 X1 X2 + X0/1e12 + Y^2 at (1e10, 1e-201, X2) is inside: its least
    # fixed point solves Y = 0.01 + Y^2, or about 0.02 + Y^2.  Horner
    # overflows on 1e10^40 before it multiplies by X1 and X2, so every float
    # evaluation is inf, or NaN where X2 = 0, which says nothing about the
    # true value; the second step raised "got inf" or "got nan".  So each
    # step takes Psi in Fraction, rounded down, and the iterates settle near
    # 0.01, or 0.02, where dPsi/dY = 2Y stays below 1; a step settles when
    # it moves no entry by more than 1e-12 of the largest, the 8th or 10th
    psi = SeriesMap((Series(4, 42, {(40, 1, 1, 0): 1.0, (1, 0, 0, 0): 1e-12,
                                    (0, 0, 0, 2): 1.0}, FLOAT),))
    cmp_eq, X = ComparisonEquation(psi), LatticeVec((1e10, 1e-201, X2))
    assert membership(cmp_eq, X) == Membership(UNRESOLVED, None, steps)
    assert iterate_comparison(cmp_eq, X).verdict == UNRESOLVED


def test_a_sequence_converging_past_the_float_range_is_unresolved():
    # Y = 1e300 X0 X1 + X1 Y/2 at (1e10, 1) has the fixed point 2e310: its
    # first iterate overflows; rounded down it settles at the largest
    # float, where dPsi/dY = 1/2; the second step moves it by 6e292, less
    # than 1e-12 of its size, so it settles there
    psi = SeriesMap((Series(3, 24, {(1, 1, 0): 1e300, (0, 1, 1): 0.5}, FLOAT),))
    got = membership(ComparisonEquation(psi), LatticeVec((1e10, 1.0)))
    assert got == Membership(UNRESOLVED, None, 2)


@pytest.mark.parametrize("X", [1e-20, 1e-19, 1e-15])
def test_a_tiny_scale_point_far_outside_is_outside(X):
    # y = x + 1e20 y^2 has X* = 2.5e-21.  Its first iterate, X, moved by
    # less than the absolute 1e-12 that counted as settled, so the answer
    # was unresolved after 1 step; there dPsi/dY = 2e20 X exceeds 1 already
    got = membership(scalar_comparison({(1, 0): 1.0, (0, 2): 1e20}), X_at(X))
    assert (got.verdict, got.principal_Y, got.iterations_used) == (OUTSIDE, None, 1)
    (Y,) = got.witness.entries
    assert Y <= X and 2 * Fraction(1e20) * Fraction(Y) > 1


def test_nan_point_raises():
    with pytest.raises(ValueError,
                       match=r"^X must be entrywise non-negative and finite, got \(nan\)$"):
        membership(big_linear_comparison(), X_at(float("nan")))


def test_non_finite_points_are_refused_as_points():
    # coerce_value refused them as coefficients: "float coefficients must
    # be finite, got inf"
    with pytest.raises(ValueError,
                       match=r"^X must be entrywise non-negative and finite, got \(inf\)$"):
        membership(quadratic_comparison(), X_at(math.inf))
    with pytest.raises(ValueError, match=r"^Y_tilde must be entrywise non-negative "
                       r"and finite, got \(nan\)$"):
        certificate_check(quadratic_comparison(), (0.1,), (math.nan,))


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_primal_refuses_a_non_finite_x(x):
    # its norm reached the comparison run, which refused it as a coefficient
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    with pytest.raises(ValueError, match="^x must be finite"):
        iterate_primal(eq, (x,), majorant(eq))


@pytest.mark.parametrize("c, fraction, want", [
    (1.0, 0.5, Membership(INSIDE, LatticeVec((0.14644660940672832,)), 6)),
    (1.0, 0.999996, Membership(INSIDE, LatticeVec((0.4990000000024931,)), 14)),
    (1.0, 1.000004, Membership(OUTSIDE, None, 1565,
                               witness=LatticeVec((0.5000028788993047,)))),
    (2.5, 0.5, Membership(INSIDE, LatticeVec((0.058578643762691326,)), 6)),
    (2.5, 0.999996, Membership(INSIDE, LatticeVec((0.19960000000100128,)), 14)),
    (2.5, 1.000004, Membership(OUTSIDE, None, 1565,
                               witness=LatticeVec((0.20000115155972226,)))),
])
def test_membership_quadratic_family_frozen(c, fraction, want):
    cmp_eq = scalar_comparison({(1, 0): 1.0, (0, 2): c})
    X = fraction * (1 / (4 * c))
    got = membership(cmp_eq, X_at(X))
    assert (got.verdict, got.iterations_used) == (want.verdict, want.iterations_used)
    assert got.principal_Y == want.principal_Y
    assert got.witness == want.witness
    assert _agrees_with_oracle(cmp_eq, (X,), got)


@pytest.mark.parametrize("X, want", [
    (0.05, Membership(INSIDE, LatticeVec((0.09236005439038703, 0.05810765979181866)), 6)),
    (0.1455, Membership(INSIDE, LatticeVec((0.485481374735882, 0.30856348880979667)), 11)),
    (0.14559, Membership(INSIDE, LatticeVec((0.4974253855648422, 0.3159593166209154)), 16)),
    (0.1456, Membership(OUTSIDE, None, 386,
                        witness=LatticeVec((0.49851954594115133, 0.3166367318169399)))),
    (0.4, Membership(OUTSIDE, None, 1,
                     witness=LatticeVec((0.6699999999999984, 0.413999999999999)))),
])
def test_membership_seeded_system_frozen(X, want):
    got = membership(seeded_ray_system(6), X_at(X))
    assert got == want
    assert _agrees_with_oracle(seeded_ray_system(6), (X,), got)


def test_radius_bracket_seeded_system_frozen():
    got = radius_along_ray(seeded_ray_system(6), X_at(1.0), tol=1e-6)
    assert (got.t_inside, got.t_outside, got.unbounded) == (
        0.1455904245376587, 0.1455912393661265, False)
    # the exact oracle certifies the inside end and proves the outside end
    polys = exact_polys(seeded_ray_system(6))
    assert fixed_point_oracle(polys, (got.t_inside,))[1] is not None
    assert fixed_point_oracle(polys, (got.t_outside,))[2]


def test_membership_exact_catalan_frozen():
    # Newton runs in float, so exact input no longer iterates in Fraction;
    # the certified point lies above the root (5 - sqrt(5))/10 by less than
    # 1e-12, and 1/5 + Y^2 <= Y holds exactly
    got = membership(quadratic_comparison(EXACT), X_at(Fraction(1, 5)), 14)
    assert got == Membership(INSIDE, LatticeVec(
        (Fraction(4979057290643843, 18014398509481984),)), 7)
    (Y,) = got.principal_Y.entries
    assert Fraction(1, 5) + Y * Y <= Y
    assert 0 < Y - (5 - math.sqrt(5)) / 10 < 1e-12


# ---------------------------------------------------------------------------
# one push, one verdict

@pytest.mark.parametrize("c, X", [(1e20, 1e-30), (1.0, 1e-320)],
                         ids=["large-coefficient", "subnormal"])
def test_a_tiny_fixed_point_is_certified(c, X):
    # Y = X + 1e20 Y^2 has X* = 2.5e-21; at X = 1e-30 a push of 1e-14, at
    # least, far above Y = 1e-30, failed the check, and the answer was
    # unresolved.  A push relative to a subnormal Y rounds to nothing; the
    # floor at the least normal float keeps one
    cmp_eq = scalar_comparison({(1, 0): 1.0, (0, 2): c})
    got = membership(cmp_eq, X_at(X))
    assert got.verdict == INSIDE
    assert is_pre_fixed(exact_polys(cmp_eq), (X,), got.principal_Y.entries)


@pytest.mark.parametrize("X", [0.3, 0.2500001])
@pytest.mark.parametrize("tol", [1e-12, 1e-3, 1.0])
def test_iterate_reports_the_membership_verdict(X, tol):
    # at X = 0.2500001 and tol 1e-3 the trace settled and said unresolved,
    # while membership said outside
    cmp_eq = quadratic_comparison()
    want = membership(cmp_eq, X_at(X))
    got = iterate_comparison(cmp_eq, X_at(X), tol=tol)
    assert got.verdict == want.verdict == OUTSIDE
    # tol says only where the trace stops, at the latest where the verdict came
    assert got.steps <= want.iterations_used


def test_a_failed_certificate_runs_one_exact_check(monkeypatch):
    calls = []
    check = impsolve.kantorovich._pre_fixed

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(impsolve.kantorovich, "_pre_fixed", counted)
    assert membership(quadratic_comparison(), X_at(0.3)).verdict == OUTSIDE
    assert len(calls) == 1


def test_the_rounded_kernels_decide_and_fraction_referees_ties(monkeypatch):
    # every membership check ran Psi in Fraction; now one nearest value of
    # Psi, times the bracket's lo and hi, decides, and only a tie runs it
    calls = []
    exact = impsolve.kantorovich._exact_psi

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(impsolve.kantorovich, "_exact_psi", counted)
    assert membership(quadratic_comparison(), X_at(0.2)).verdict == INSIDE
    assert membership(quadratic_comparison(), X_at(0.3)).verdict == OUTSIDE
    assert calls == []
    # Psi(1/4, 1/2) = 1/2: the exact tie no rounded kernel can settle
    for mode, value in ((FLOAT, float), (EXACT, Fraction)):
        calls.clear()
        assert certificate_check(quadratic_comparison(mode), (value(Fraction(1, 4)),),
                                 (value(Fraction(1, 2)),))
        assert len(calls) == 1
    assert not certificate_check(quadratic_comparison(), (0.25 + 2 ** -54,), (0.5,))


def test_a_point_with_no_float_image_is_rounded_outward():
    # Y = 2^1000 X + Y^2 at a subnormal X: rounded to nearest, X = 3.45
    # units of 2^-1074 reads as 3, and Psi(X, Y) as 3 * 2^-74 < Y
    cmp_eq = ComparisonEquation(SeriesMap((Series(
        2, 4, {(1, 0): Fraction(2 ** 1000), (0, 2): Fraction(1)}, EXACT),)))
    unit, Y = Fraction(1, 2 ** 1074), Fraction(34, 10 * 2 ** 74)
    assert not certificate_check(cmp_eq, (Fraction(345, 100) * unit,), (Y,))
    assert certificate_check(cmp_eq, (Fraction(335, 100) * unit,), (Y,))


def test_a_coefficient_beyond_the_float_range_keeps_every_answer():
    # exact Y = X + 10^400 Y^2 has X* = 10^-400 / 4, and no float kernel:
    # its coefficient is too large for a float.  Every check then runs on
    # Psi in Fraction, as it did where the outward-rounded kernels capped it
    cmp_eq = ComparisonEquation(SeriesMap((Series(
        2, 4, {(1, 0): Fraction(1), (0, 2): Fraction(10 ** 400)}, EXACT),)))
    polys = exact_polys(cmp_eq)
    X = (Fraction(1, 10 ** 300),)
    got = membership(cmp_eq, LatticeVec(X))
    assert (got.verdict, got.iterations_used) == (OUTSIDE, 1)
    assert expands(polys, X, got.witness.entries)
    X = (Fraction(1, 10 ** 401),)
    for Y, want in (((Fraction(2, 10 ** 401),), True), ((Fraction(1, 10 ** 402),), False)):
        assert certificate_check(cmp_eq, X, Y) is want is is_pre_fixed(polys, X, Y)


def _counting_exact_psi(monkeypatch):
    """The list that records each ``_exact_psi`` call from now on."""
    calls, exact = [], impsolve.kantorovich._exact_psi

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(impsolve.kantorovich, "_exact_psi", counted)
    return calls


def test_each_exact_fallback_runs_psi_in_fraction_once(monkeypatch):
    # a check whose upper bound falls back reuses that one Fraction value
    # for its lower bound and its tie, where bounds that each ran it made 3
    big = ComparisonEquation(SeriesMap((Series(
        2, 4, {(1, 0): Fraction(1), (0, 2): Fraction(10 ** 400)}, EXACT),)))
    tiny = scalar_comparison({(1, 0): 1e-323, (0, 2): 2.0 ** 50})
    X = (Fraction(1, 10 ** 401),)
    calls = _counting_exact_psi(monkeypatch)
    for run, want, count in [
            (lambda: certificate_check(big, X, (Fraction(2, 10 ** 401),)), True, 1),
            (lambda: certificate_check(big, X, (Fraction(1, 10 ** 402),)), False, 1),
            (lambda: membership(big, X_at(Fraction(1, 10 ** 300))).verdict, OUTSIDE, 2),
            (lambda: membership(tiny, X_at(2.0 ** 1022)).verdict, OUTSIDE, 4),
            (lambda: membership(tiny, X_at(2.0 ** 1020)).verdict, INSIDE, 1)]:
        calls.clear()
        assert run() == want
        assert len(calls) == count


@pytest.mark.parametrize("X, verdict, steps, witness", [
    ((Fraction(3, 10), Fraction(1, 10 ** 400)), OUTSIDE, 6, 0.6073745738548132),
    ((Fraction(1, 4), Fraction(1, 10 ** 400)), UNRESOLVED, DEFAULT_BUDGET, None),
])
def test_only_a_lower_bound_reads_an_x_entry_below_the_float_range_as_zero(
        monkeypatch, X, verdict, steps, witness):
    # exact Y = X0 + X1 + Y^2 with X1 = 10^-400, whose float image is 0.0:
    # the Kleene loop's lower bounds read it as 0 and stay in float, while
    # the upper bound of the one failed certificate check runs Fraction.
    # One gate for both sides moved the witness and ran Fraction 10,003 times
    cmp_eq = ComparisonEquation(SeriesMap((Series(
        3, 4, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1), (0, 0, 2): Fraction(1)},
        EXACT),)))
    calls = _counting_exact_psi(monkeypatch)
    got = membership(cmp_eq, LatticeVec(X))
    assert (got.verdict, got.iterations_used) == (verdict, steps)
    assert (got.witness and float(got.witness.entries[0])) == witness
    assert witness is None or expands(exact_polys(cmp_eq), X, got.witness.entries)
    assert len(calls) == 1


def test_a_subnormal_coefficient_keeps_its_value():
    # float Y = 1e-323 X + 2^50 Y^2 has X* = 2^1021.  Stepping one ulp down
    # at every Horner step read the subnormal 1e-323 as 5e-324, so 2X* was
    # unresolved after 10,000 steps.  The bracket's gate now sends it to
    # Fraction: Y = 2^-51, then 1.5 * 2^-51, where dPsi/dY = 2^51 Y = 1.5
    cmp_eq = scalar_comparison({(1, 0): 1e-323, (0, 2): 2.0 ** 50})
    polys = exact_polys(cmp_eq)
    got = membership(cmp_eq, X_at(2.0 ** 1022))
    assert got == Membership(OUTSIDE, None, 2, witness=LatticeVec((1.5 * 2.0 ** -51,)))
    assert expands(polys, (2.0 ** 1022,), got.witness.entries)
    got = membership(cmp_eq, X_at(2.0 ** 1020))
    assert got.verdict == INSIDE
    assert is_pre_fixed(polys, (2.0 ** 1020,), got.principal_Y.entries)


def _float_trace(X, tol, steps):
    """The float Kleene iterates of Y = X + Y^2 from zero, up to ``steps``
    steps or the first that moves by at most ``tol``."""
    Y = [0.0]
    while len(Y) <= steps and (len(Y) < 2 or abs(Y[-1] - Y[-2]) > tol):
        Y.append(X + Y[-1] * Y[-1])
    return tuple(LatticeVec((y,)) for y in Y)


@pytest.mark.parametrize("X", [0.2, 0.25, 0.3])
@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-3, 1.0])
def test_the_trace_is_membership_loop_cut_at_tol(monkeypatch, X, tol):
    # an uncertified float point ran the Kleene loop twice, once for the
    # verdict and once for the trace.  The verdict now runs on lower bounds
    # from Psi's nearest kernel, and the trace is the one nearest-kernel loop
    want = membership(quadratic_comparison(), X_at(X), 500)
    calls = []
    kleene = impsolve.kantorovich._kleene

    def counted(*args, **kwargs):
        calls.append(args)
        return kleene(*args, **kwargs)

    monkeypatch.setattr(impsolve.kantorovich, "_kleene", counted)
    got = iterate_comparison(quadratic_comparison(), X_at(X), 500, tol)
    assert got.verdict == want.verdict
    steps = want.iterations_used if want.verdict == OUTSIDE else 500
    assert got.iterates_Y == _float_trace(X, tol, steps)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# outside is a checked claim: a Kleene iterate rounded down where dPsi/dY
# has spectral radius above 1

def big_pair_comparison():
    """Y0 = 1e10 X + 2.5e-11 Y0^2, Y1 = 1e-9 Y0^2: X* = 1, where Y0 = 2e10."""
    return ComparisonEquation(SeriesMap((
        Series(3, 2, {(1, 0, 0): 1e10, (0, 2, 0): 2.5e-11}, FLOAT),
        Series(3, 2, {(0, 2, 0): 1e-9}, FLOAT))))


def test_a_large_iterate_below_the_fixed_point_is_not_outside():
    # the divergence test read Y0 > 1e9 with a growing step as outside, after
    # 2 steps, with the witness (12499999999.985, 99999999999.8); the oracle
    # proves a fixed point near (2e10, 4e11) exists there
    cmp_eq, X = big_pair_comparison(), (0.999999999999,)
    assert fixed_point_oracle(exact_polys(cmp_eq), X)[1] is not None
    assert membership(cmp_eq, LatticeVec(X)) == Membership(UNRESOLVED, None, DEFAULT_BUDGET)


def test_a_ray_bracket_ends_outside_past_a_large_fixed_point():
    # at tol 0 the outside end was 0.9999999999961351, where the oracle
    # finds a pre-fixed point
    cmp_eq = big_pair_comparison()
    got = radius_along_ray(cmp_eq, X_at(1.0), tol=0.0)
    polys = exact_polys(cmp_eq)
    assert fixed_point_oracle(polys, (got.t_inside,))[1] is not None
    assert fixed_point_oracle(polys, (got.t_outside,))[2]


def test_a_reducible_system_is_outside_on_one_block():
    # Y1 = X^2 Y1 / 8 + X^2 / 4 converges on its own; Y0 = Y1^3 / 4 + Y0^2 Y1
    # + 3 Y0 Y1 has dY0'/dY0 >= 3 Y1 > 1 at X = 1.08.  The test vector, the
    # two-step increment, keeps Y1's entry until it falls below 2^-20 of
    # Y0's, at step 11, and then sits on Y0 alone.  The divergence test
    # needed 33 steps and Y0 = 2.4e14
    cmp_eq = ComparisonEquation(SeriesMap((
        Series(3, 6, {(0, 0, 3): 0.25, (0, 2, 1): 1.0, (0, 1, 1): 3.0}, FLOAT),
        Series(3, 6, {(2, 0, 1): 0.125, (2, 0, 0): 0.25}, FLOAT))))
    got = membership(cmp_eq, X_at(1.08))
    assert got == Membership(OUTSIDE, None, 11, witness=LatticeVec(
        (0.11615720208592294, 0.34137204380174)))
    assert expands(exact_polys(cmp_eq), (1.08,), got.witness.entries)
    assert fixed_point_oracle(exact_polys(cmp_eq), (1.08,))[1] is None


def test_a_nearly_bipartite_majorant_is_outside_near_its_crossing():
    # the majorant of y0 = x + y1^2, y1 = x/100 + y0^2/100 (x measured by
    # the max norm) crosses at X = 9.8142567461971...; at 9.81426 the
    # divergence test ran its whole budget and said unresolved
    eq = EquationSpec(SeriesMap((
        Series(3, 4, {(1, 0, 0): 1.0, (0, 0, 2): 1.0}, FLOAT),
        Series(3, 4, {(1, 0, 0): 0.01, (0, 2, 0): 0.01}, FLOAT))), "aggregate",
        COMPONENTWISE)
    cmp_eq = majorant(eq)
    got = membership(cmp_eq, X_at(9.81426))
    assert got == Membership(OUTSIDE, None, 5180, witness=LatticeVec(
        (13.331077315516765, 1.8753188189821894)))
    polys = exact_polys(cmp_eq)
    assert expands(polys, (9.81426,), got.witness.entries)
    assert fixed_point_oracle(polys, (9.81426,))[2]


def test_an_unknown_that_stays_zero_is_no_witness():
    # Y1 = 16 X Y1 + Y0 Y1 stays 0, so the least fixed point (0.1127..., 0)
    # exists at X = 1 although dY1'/dY1 = 16 + Y0 > 1: a w on Y1, where
    # every iterate is 0, proves nothing, and the loop must settle without one
    cmp_eq = ComparisonEquation(SeriesMap((
        Series(3, 4, {(1, 0, 0): 0.1, (0, 2, 0): 1.0}, FLOAT),
        Series(3, 4, {(1, 0, 1): 16.0, (0, 1, 1): 1.0}, FLOAT))))
    assert membership(cmp_eq, X_at(1.0)).verdict == INSIDE
    assert impsolve.kantorovich._outside(cmp_eq, (1.0,), DEFAULT_BUDGET)[0] is None


@pytest.mark.parametrize("X", [2.0, 8.0])
def test_unknowns_that_no_term_feeds_are_held_at_zero(X):
    # no term of random_comparison(Random(10)) is free of Y, so its least
    # fixed point is 0 at every X; Newton over every unknown pushed Y off 0,
    # where dPsi/dY has rho > 1, and membership answered unresolved after 1 step
    cmp_eq = random_comparison(random.Random(10))
    assert membership(cmp_eq, X_at(X)) == Membership(INSIDE, LatticeVec((0.0, 0.0)), 0)


def test_a_singular_step_on_an_unfed_unknown_is_never_taken():
    # Y = 1.5 X Y^2 + 0.5 X Y has J(0) = 1 at X = 2: the first Newton step
    # met a singular I - J and the certificate failed, though Y* = 0
    cmp_eq = scalar_comparison({(1, 2): 1.5, (1, 1): 0.5})
    assert membership(cmp_eq, X_at(2.0)) == Membership(INSIDE, LatticeVec((0.0,)), 0)
    assert radius_along_ray(cmp_eq, X_at(1.0)).unbounded


# ---------------------------------------------------------------------------
# the Newton step: (I - J) [d, v] = [r, 1] by Gauss-Jordan elimination
# without pivoting, in place on the flat [I - J | r, 1] of the fed block

newton_step = impsolve.kantorovich._newton_step


def _seeded_jacobian(seed):
    """A flat n x n J >= 0 with row sums at most 0.9, n from 1 to 5, so that
    I - J is an M-matrix, and a residual r, drawn as in test_solver.py."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    J = [[rng.random() for _ in range(n)] for _ in range(n)]
    J = [[0.9 * rng.random() * e / sum(row) for e in row] for row in J]
    return J, [rng.uniform(-1.0, 1.0) for _ in range(n)]


def _step_and_solve(J, r):
    """The Newton step and solver._solve on the same I - J and [r, 1]; Y = 0,
    so value - Y is r exactly."""
    n = len(J)
    got = newton_step(tuple(e for row in J for e in row), n, tuple(range(n)), r, [0.0] * n)
    M = [[(i == j) - e for j, e in enumerate(row)] for i, row in enumerate(J)]
    return got, M


@pytest.mark.parametrize("seed", range(20))
def test_a_newton_step_on_an_m_matrix_is_near_the_exact_solve(seed):
    # ||(I - J)^-1|| <= 10 and ||I - J|| <= 1.9 in the max norm, and
    # elimination without pivoting is backward stable on an M-matrix, so the
    # error is of order n * 19 * 2^-53 of the largest entry; the test allows 1e-12
    J, r = _seeded_jacobian(seed)
    got, M = _step_and_solve(J, r)
    inverse = _exact_inverse([[Fraction(e) for e in row] for row in M])
    exact = [[sum(a * Fraction(b) for a, b in zip(row, rhs)) for row in inverse]
             for rhs in (r, [1.0] * len(r))]
    scale = max(abs(e) for column in exact for e in column)
    assert all(abs(Fraction(g) - e) <= Fraction(1e-12) * scale
               for got_column, column in zip(got, exact) for g, e in zip(got_column, column))


@pytest.mark.parametrize("seed", range(20))
def test_a_newton_step_is_the_pivoting_solve_where_it_would_not_swap(seed):
    # with J transposed, I - J is diagonally dominant by columns, which
    # elimination keeps, so partial pivoting takes every diagonal pivot
    J, r = _seeded_jacobian(seed)
    got, M = _step_and_solve([list(column) for column in zip(*J)], r)
    assert list(map(list, got)) == list(map(list, zip(*impsolve.solver._solve(
        M, [[e, 1.0] for e in r], FLOAT))))


@pytest.mark.parametrize("J", [
    (1.0,),
    (math.nan,),
    (1.0, 0.0, 0.0, 0.5),
    (0.0, -1.0, 1e-13, 1.0),  # the second pivot is 0.0 - (-1e-13) * 1.0
    (0.0, -1.0, math.nan, 0.5),
], ids=["1x1 at 0", "1x1 nan", "2x2 at 0", "2x2 at 1e-13", "2x2 nan"])
def test_a_newton_step_refuses_a_pivot_of_at_most_1e_13(J):
    q = math.isqrt(len(J))
    assert newton_step(J, q, tuple(range(q)), (1.0,) * q, [0.0] * q) is None


def test_a_newton_step_takes_a_pivot_just_above_1e_13_and_a_negative_one():
    above = math.nextafter(1e-13, 1.0)
    d, v = newton_step((0.0, -1.0, above, 1.0), 2, (0, 1), (1.0, 1.0), [0.0, 0.0])
    assert v[1] == (1.0 + above) * (1.0 / above)
    # off the M-matrix region the step is taken; the certificate check judges it
    assert newton_step((3.0,), 1, (0,), (1.0,), [0.0]) == ((-0.5,), (-0.5,))


def test_a_one_unknown_newton_step_multiplies_by_the_reciprocal():
    # the values of test_solver.py's r / m pin; 1 - J is m exactly, here on
    # the second of two unknowns, where every other entry must go unread
    m, r = 0.13522987986828883, 0.8474337369372327
    d, v = newton_step((9.0, 9.0, 9.0, 1 - m), 2, (1,), (9.0, r + 0.5), [9.0, 0.5])
    assert (d, v) == ((r * (1.0 / m),), (1.0 / m,))
    assert d[0] == 6.266616059724494 != r / m


def test_a_step_where_partial_pivoting_would_swap_rows_keeps_its_certificate():
    # Y0 = 1e10 X, Y1 = 1e-9 Y0^2 at X = 1: from the second step on I - J
    # has -20 below a unit pivot, where the pivoting solve swapped rows;
    # recorded with that solve
    cmp_eq = ComparisonEquation(SeriesMap((Series(3, 8, {(1, 0, 0): 1e10}, FLOAT),
                                           Series(3, 8, {(0, 2, 0): 1e-9}, FLOAT))))
    assert membership(cmp_eq, X_at(1.0)) == Membership(
        INSIDE, LatticeVec((10000000000.001, 100000000000.021)), 3)


# ---------------------------------------------------------------------------
# the float rho decision: J u > u rowwise, in float with a rounding margin,
# in Fraction only where the margin cannot separate the float sum from e

# 4 products summed up to 0.946379242759552, one float above e, although
# the exact sum is at most e
NEAR_TIE = ((0.5124999345029883, 0.12924942760674862, 0.7773971822959025,
             0.2054852577007612),
            (0.9497192655214912, 0.4811018174142402, 0.36473604716360064,
             0.5544011905777411), 0.9463792427595519)
# three products of 0.6 units of 2^-1074 round to 1 unit each: 3 units
# above e = 2 units, where the exact sum is 1.8 units
SUBNORMAL_TIE = ((5e-324,) * 3, (0.6,) * 3, 1e-323)
# two products rounded up sum to inf, where the exact sum is at most the
# largest float
OVERFLOW_TIE = ((1.5101944707739424e+308, 1.4283148294381005e+308),
                (0.6624230373253103, 0.558214134690467), sys.float_info.max)
# seeded draws in [0, 1): their products and sums round, where the simple
# floats and integers a strategy favours are often exact
FRACTIONS = st.integers(0, 2 ** 32).map(lambda seed: random.Random(seed).random())
ENTRIES = st.one_of(FRACTIONS, FRACTIONS.map(lambda f: 4 * f), st.sampled_from(
    [0.0, 5e-324, 3 * 5e-324, sys.float_info.min / 3, sys.float_info.min, 2.0 ** -20]),
    st.floats(1e307, sys.float_info.max))


@st.composite
def rho_rows(draw):
    """``(row, u, e)``: n <= 4 non-negative floats each, and ``e`` the
    least float at or above their exact sum of products, the tie the float
    sum can overshoot, for generic floats; for subnormal ones, small ones
    and ones near the top of the range also up to two floats from it.
    Now and then ``e`` is a subnormal, the least normal or 1 instead."""
    n, generic = draw(st.integers(1, 4)), draw(st.booleans())
    row = tuple(draw(FRACTIONS if generic else ENTRIES) for _ in range(n))
    u = tuple(draw(FRACTIONS if generic else st.sampled_from([5e-324, 0.6, 1.0]))
              for _ in range(n))
    exact = sum(Fraction(a) * Fraction(b) for a, b in zip(row, u))
    e = float(min(exact, Fraction(sys.float_info.max)))
    k = (0 if generic else draw(st.integers(-2, 2))) + (Fraction(e) < exact)
    for _ in range(abs(k)):
        e = math.nextafter(e, math.inf if k > 0 else 0.0)
    if draw(st.integers(0, 3)) == 0:
        e = draw(st.sampled_from([5e-324, sys.float_info.min, 1.0]))
    return row, u, e


@settings(max_examples=1000)
@given(rho_rows())
@example(NEAR_TIE)
@example(SUBNORMAL_TIE)
@example(OVERFLOW_TIE)
def test_the_float_rho_decision_is_the_fraction_decision(case):
    # _outside took a witness only where the float sum and then the
    # Fraction sum exceed e; the float one now decides alone where its
    # margin does, so it must never accept where Fraction rejects
    row, u, e = case
    exact = sum(Fraction(a) * Fraction(b) for a, b in zip(row, u))
    want = sum(a * b for a, b in zip(row, u)) > e and exact > e
    assert impsolve.kantorovich._exceeds(row, u, e) is want


def test_the_rho_margin_is_needed(monkeypatch):
    row, u, e = NEAR_TIE
    assert sum(a * b for a, b in zip(row, u)) > e
    assert sum(Fraction(a) * Fraction(b) for a, b in zip(row, u)) <= e
    assert not impsolve.kantorovich._exceeds(row, u, e)
    monkeypatch.setattr(impsolve.kantorovich, "RHO_ULP", 0.0)
    assert impsolve.kantorovich._exceeds(row, u, e)


def test_a_clear_rho_decision_runs_no_fraction(monkeypatch):
    # the outside verdict at 1.04 X* checked its witness in Fraction
    def refused(*args):
        raise AssertionError("no Fraction sum expected")

    monkeypatch.setattr(impsolve.kantorovich, "Fraction", refused)
    got = membership(quadratic_comparison(), X_at(0.26))
    assert got == Membership(OUTSIDE, None, 14, witness=LatticeVec((0.5231682896744576,)))
