"""Monotone iteration on the comparison equation, paired primal runs,
membership verdicts, and convergence certificates.

Frozen iterate values were computed by hand from Y <- X + Y^2; principal
limits come from the closed-form roots in helpers.py.
"""

import io
import math
import random
from fractions import Fraction

import pytest

from impsolve import (
    DEFAULT_BUDGET,
    EXACT,
    ComparisonEquation,
    DomainError,
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
    principal_quadratic,
    quadratic_comparison,
    quadratic_equation,
    random_comparison,
    random_equation,
    scalar_comparison,
    signed_quadratic,
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
    assert trace.residual_norm < 1e-10


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


# ---------------------------------------------------------------------------
# error bounds

def test_error_bounds_shrink_to_zero():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.2))
    bounds = [b.entries[0] for b in trace.error_bounds]
    assert len(bounds) == len(trace.iterates_Y)
    assert all(b >= 0 for b in bounds)
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] == 0.0


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
    got = membership(quadratic_comparison(), X_at(0.3))
    assert got.verdict == OUTSIDE
    assert got.principal_Y is None
    assert got.iterations_used <= 50
    assert got.witness.entries[0] > 1e9


def test_membership_unresolved_on_boundary():
    got = membership(quadratic_comparison(), X_at(0.25))
    assert got.verdict == UNRESOLVED
    assert got.iterations_used == DEFAULT_BUDGET



@pytest.mark.xfail(strict=True, reason="a step of at most tol is taken as "
                   "convergence; an inside certificate that checks "
                   "Psi(X, Y) <= Y is ROADMAP item 1")
def test_large_tol_does_not_certify_a_point_outside():
    # no fixed point exists for X > 1/4, and at tol 0.01 the verdict is
    # outside; at tol 1 the first step, from 0 to 0.3, counts as settled
    assert membership(quadratic_comparison(), X_at(0.3), tol=1).verdict != INSIDE

@pytest.mark.parametrize("tol", [float("nan"), -1e-12, float("-inf"),
                                 float("inf")])
def test_bad_tol_rejected(tol):
    # with a NaN tol no step ever settled: X = 0.2, inside, spent the whole
    # budget and came back unresolved; an infinite tol took the first step
    # as settled in float and raised OverflowError from Fraction(inf) in exact
    for mode, x in ((FLOAT, 0.2), (EXACT, Fraction(1, 5))):
        cmp_eq = quadratic_comparison(mode)
        with pytest.raises(ValueError, match="tol"):
            membership(cmp_eq, X_at(x), tol=tol)
        with pytest.raises(ValueError, match="tol"):
            iterate_comparison(cmp_eq, X_at(x), tol=tol)
        eq = quadratic_equation(mode, sign=-1)
        with pytest.raises(ValueError, match="tol"):
            iterate_primal(eq, (x,), majorant(eq), tol=tol)


def test_zero_tol_is_legal():
    got = membership(quadratic_comparison(), X_at(0.2), budget=20, tol=0.0)
    assert got.iterations_used == 20


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


# ---------------------------------------------------------------------------
# certificates and minimality

def test_certificate_frozen_examples():
    cmp_eq = quadratic_comparison()
    assert certificate_check(cmp_eq, (0.25,), (0.5,))
    assert not certificate_check(cmp_eq, (0.3,), (0.5,))
    assert certificate_check(cmp_eq, (0.1,), (0.2,))


def test_certificate_rejects_negative_witness():
    cmp_eq = quadratic_comparison()
    with pytest.raises(ValueError, match="non-negative"):
        certificate_check(cmp_eq, (0.1,), (-0.2,))


def test_certificate_checks_both_shapes_on_a_system():
    # Y0 = X + Y0 Y1, Y1 = 2X + Y0^2 at (0.1; 0.2, 0.2): Y1 fails, and the
    # mis-shaped call read the same point but compared Y0 alone, so it
    # returned True
    cmp_eq = ComparisonEquation(1, 2, SeriesMap((
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
# Recorded from the loop that built a LatticeVec per step, before membership
# ran on plain tuples.  Equality is exact: the step count, the final iterate
# and the witness pin every comparison and every float operation.

def big_linear_comparison():
    """Y = 1e10 X + Y^2, the comparison of y = 1e10 x + y^2."""
    return scalar_comparison({(1, 0): 1e10, (0, 2): 1.0})


def seeded_ray_system(seed):
    """Y0 = a X + b Y0 Y1 + c Y1^2, Y1 = d X + e Y0^2 + f X Y1, seeded."""
    rng = random.Random(seed)
    co = lambda: rng.randint(500, 2000) / 1000
    Y0 = Series(3, 3, {(1, 0, 0): co(), (0, 1, 1): co(), (0, 0, 2): co()}, FLOAT)
    Y1 = Series(3, 3, {(1, 0, 0): co(), (0, 2, 0): co(), (1, 0, 1): co()}, FLOAT)
    return ComparisonEquation(1, 2, SeriesMap((Y0, Y1)))


def test_overflow_is_unresolved_when_the_budget_is_spent():
    # 1e10 * 1e300 overflows in the first step; only a second step reads it
    got = membership(big_linear_comparison(), X_at(1e300), 1)
    assert got == Membership(UNRESOLVED, None, 1)


def test_overflow_raises_on_the_next_step():
    with pytest.raises(ValueError, match="^float coefficients must be finite, got inf$"):
        membership(big_linear_comparison(), X_at(1e300), 2)
    with pytest.raises(ValueError, match="^float coefficients must be finite, got inf$"):
        iterate_comparison(big_linear_comparison(), X_at(1e300), 2)


def test_nan_point_raises():
    with pytest.raises(ValueError, match="^float coefficients must be finite, got nan$"):
        membership(big_linear_comparison(), X_at(float("nan")))


@pytest.mark.parametrize("c, fraction, want", [
    (1.0, 0.5, Membership(INSIDE, LatticeVec((0.14644660940660406,)), 22)),
    (1.0, 0.999996, Membership(INSIDE, LatticeVec((0.4989999995016816,)), 7587)),
    (1.0, 1.000004, Membership(OUTSIDE, None, 3144,
                               witness=LatticeVec((1712218149.6939335,)))),
    (2.5, 0.5, Membership(INSIDE, LatticeVec((0.05857864376252364,)), 21)),
    (2.5, 0.999996, Membership(INSIDE, LatticeVec((0.19959999950137325,)), 7129)),
    (2.5, 1.000004, Membership(OUTSIDE, None, 3145,
                               witness=LatticeVec((1.172676346292223e+18,)))),
])
def test_membership_quadratic_family_frozen(c, fraction, want):
    cmp_eq = scalar_comparison({(1, 0): 1.0, (0, 2): c})
    got = membership(cmp_eq, X_at(fraction * (1 / (4 * c))))
    assert (got.verdict, got.iterations_used) == (want.verdict, want.iterations_used)
    assert got.principal_Y == want.principal_Y
    assert got.witness == want.witness


@pytest.mark.parametrize("X, want", [
    (0.05, Membership(INSIDE, LatticeVec((0.09236005439025459, 0.058107659791733095)), 16)),
    (0.1455, Membership(INSIDE, LatticeVec((0.4854813746967078, 0.30856348878555645)), 799)),
    (0.14559, Membership(INSIDE, LatticeVec((0.4974253850690997, 0.31595931631439694)), 7531)),
    (0.1456, Membership(OUTSIDE, None, 785,
                        witness=LatticeVec((5802416043716176.0, 3514114177706103.5)))),
    (0.4, Membership(OUTSIDE, None, 8,
                     witness=LatticeVec((95990003930.87567, 75713749524.37463)))),
])
def test_membership_seeded_system_frozen(X, want):
    got = membership(seeded_ray_system(6), X_at(X))
    assert got == want


def test_radius_bracket_seeded_system_frozen():
    got = radius_along_ray(seeded_ray_system(6), X_at(1.0), tol=1e-6)
    assert (got.t_inside, got.t_outside, got.unbounded) == (
        0.14558959007263184, 0.14559121973115907, False)


def test_membership_exact_catalan_frozen():
    got = membership(quadratic_comparison(EXACT), X_at(Fraction(1, 5)), 14)
    assert got == Membership(UNRESOLVED, None, 14)
