"""Turning-point location, graph tracing, and the three radius estimates.

The cubic turning point is cross-checked by an in-test bisection on the
polynomial condition derived by eliminating X from the two equations; all
other frozen values come from hand algebra on quadratics.
"""

import io
import random
from fractions import Fraction

import pytest

import impsolve.hille
from impsolve import (
    EXACT,
    FAILED,
    FLOAT,
    FOUND,
    ITERATIVE,
    LatticeVec,
    Series,
    SeriesMap,
    SolutionSeries,
    UNBOUNDED,
    empirical_radius,
    hille_point,
    membership,
    radius_along_ray,
    region_to_csv,
    solve_formal,
    trace_graph,
)

from helpers import (
    quadratic_comparison,
    quadratic_equation,
    random_comparison,
    scalar_comparison,
)


# ---------------------------------------------------------------------------
# turning points

def test_quadratic_turning_point():
    got = hille_point(quadratic_comparison())
    assert got.status == FOUND
    assert got.X_star == pytest.approx(0.25, abs=1e-12)
    assert got.Y_star == pytest.approx(0.5, abs=1e-12)
    assert abs(got.residual_fixed) <= 1e-12
    assert abs(got.residual_derivative) <= 1e-12


def test_scaled_quadratic_turning_point():
    # Y = 2X + Y^2: the turn is at 2Y = 1 hence X* = (Y* - Y*^2)/2 = 1/8
    got = hille_point(scalar_comparison({(1, 0): 2.0, (0, 2): 1.0}))
    assert got.status == FOUND
    assert got.X_star == pytest.approx(0.125, abs=1e-12)
    assert got.Y_star == pytest.approx(0.5, abs=1e-12)


def test_cubic_turning_point_against_bisection_oracle():
    # Y = X + XY + Y^3.  Eliminating X: on the graph X = (Y - Y^3)/(1 + Y)
    # and the tangency condition X + 3Y^2 = 1 reduce to 2Y^3 + 3Y^2 = 1.
    def condition(y):
        return 2 * y ** 3 + 3 * y ** 2 - 1

    lo, hi = 0.2, 0.8
    assert condition(lo) < 0 < condition(hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        if condition(mid) < 0:
            lo = mid
        else:
            hi = mid
    y_star = (lo + hi) / 2
    x_star = (y_star - y_star ** 3) / (1 + y_star)

    got = hille_point(scalar_comparison(
        {(1, 0): 1.0, (1, 1): 1.0, (0, 3): 1.0}))
    assert got.status == FOUND
    assert got.Y_star == pytest.approx(y_star, abs=1e-9)
    assert got.X_star == pytest.approx(x_star, abs=1e-9)


def test_turning_point_when_a_probe_lands_past_the_graph():
    # Y = X + cY^4 with c = 1.503: the turn 4cY^3 = 1 sits at
    # Y* = (4c)^(-1/3) with X* = 3Y*/4, but the graph X = Y - cY^4 ends at
    # Y = c^(-1/3) ~ 0.873, so the probe Y = 1023/1024 finds no X.
    c = 1.503
    assert 1023 / 1024 - c * (1023 / 1024) ** 4 < 0
    got = hille_point(scalar_comparison({(1, 0): 1.0, (0, 4): c}))
    assert got.status == FOUND
    y_star = (4 * c) ** (-1 / 3)
    assert got.Y_star == pytest.approx(y_star, abs=1e-12)
    assert got.X_star == pytest.approx(0.75 * y_star, abs=1e-12)
    # frozen: a change to the bracket search must not move these bits
    assert (got.X_star, got.Y_star) == (0.4124661118188208, 0.5499548157584174)


def test_linear_comparison_is_unbounded():
    got = hille_point(scalar_comparison({(1, 0): 2.0}))
    assert got.status == UNBOUNDED
    assert got.X_star is None


def test_geometric_comparison_is_unbounded():
    # Y = X + XY has graph X = Y/(1+Y): X is bounded by one but the
    # derivative X stays below one for every finite Y, so no turn exists.
    got = hille_point(scalar_comparison({(1, 0): 1.0, (1, 1): 1.0}))
    assert got.status == UNBOUNDED


def test_requires_x_dependence():
    with pytest.raises(ValueError, match="depend on X"):
        hille_point(scalar_comparison({(0, 2): 1.0}))


def test_requires_scalar_dimensions():
    rng = random.Random(1)
    cmp_eq = random_comparison(rng)
    while cmp_eq.dim_x == 1 and cmp_eq.dim_y == 1:
        cmp_eq = random_comparison(rng)
    with pytest.raises(ValueError, match="scalar"):
        hille_point(cmp_eq)


# ---------------------------------------------------------------------------
# graph tracing

def test_trace_quadratic_graph():
    sample = trace_graph(quadratic_comparison(), 0.9, 900)
    assert len(sample.points) == 901
    assert not sample.omitted
    for pt in sample.points[::90]:
        assert pt.X == pytest.approx(pt.Y - pt.Y ** 2, abs=1e-9)
        assert pt.dPsi_dY == pytest.approx(2 * pt.Y, abs=1e-9)
    turn = sample.points[sample.turning_index]
    assert turn.Y == pytest.approx(0.5, abs=1e-3)
    assert turn.X == pytest.approx(0.25, abs=1e-6)


def test_trace_is_unimodal():
    sample = trace_graph(quadratic_comparison(), 0.9, 900)
    xs = [pt.X for pt in sample.points]
    k = sample.turning_index
    eps = 1e-12
    assert all(a <= b + eps for a, b in zip(xs[:k], xs[1:k + 1]))
    assert all(a >= b - eps for a, b in zip(xs[k:], xs[k + 1:]))


def test_trace_reports_omitted_grid_points():
    # above Y = 1 the quadratic graph has no solution: Psi(0, Y) > Y
    sample = trace_graph(quadratic_comparison(), 1.2, 120)
    assert sample.omitted
    assert min(sample.omitted) > 1.0
    assert max(pt.Y for pt in sample.points) <= 1.0 + 1e-12


def test_trace_without_interior_turn():
    sample = trace_graph(quadratic_comparison(), 0.4, 100)
    assert sample.turning_index is None


@pytest.mark.parametrize("Y_max, steps", [
    (float("inf"), 10),
    (1e308, 3),   # Y_max * j overflows on the grid
])
def test_trace_refuses_a_grid_that_overflows(Y_max, steps):
    # the first grid point was inf * 0 = nan, refused as a non-finite
    # coefficient instead of as a bad Y_max
    with pytest.raises(ValueError, match="Y_max"):
        trace_graph(quadratic_comparison(), Y_max, steps)

def test_region_csv():
    sample = trace_graph(quadratic_comparison(), 0.9, 90)
    buf = io.StringIO()
    region_to_csv(sample, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "Y,X,dPsi_dY,is_turning"
    assert len(lines) == 1 + len(sample.points)
    flags = [row.split(",")[3] for row in lines[1:]]
    assert flags.count("1") == 1


# ---------------------------------------------------------------------------
# radius along a ray

def test_radius_brackets_quadratic():
    got = radius_along_ray(quadratic_comparison(), LatticeVec((1.0,)),
                           tol=1e-6)
    assert not got.unbounded
    assert got.t_inside <= 0.25 <= got.t_outside
    # the bracket width is set by the iteration budget near the sublinear
    # boundary, not by the bisection tolerance alone
    assert got.t_outside - got.t_inside <= 1e-5
    assert got.midpoint == pytest.approx(0.25, abs=1e-6)


def test_bisection_grid_frozen():
    # exact values pin the bisection grids: the ray bracket is a pair of
    # grid points, and the turning point is Newton-polished from one
    ray = radius_along_ray(quadratic_comparison(), LatticeVec((1.0,)),
                           tol=1e-6)
    assert (ray.t_inside, ray.t_outside) == (
        0.24999868869781494, 0.25000011921179066)
    turn = hille_point(scalar_comparison(
        {(1, 0): 1.0, (1, 1): 1.0, (0, 3): 1.0}))
    assert (turn.X_star, turn.Y_star, turn.status) == (
        0.2500000000002274, 0.5000000000001515, FOUND)


def test_radius_stops_at_float_spacing(monkeypatch):
    # along direction 1e-5 the crossing sits at t = 25000, where floats are
    # 3.6e-12 apart, so tol = 1e-12 cannot be met; the bisection must stop
    # when the midpoint repeats an end instead of re-probing it
    probes = []

    def counted(*args, **kwargs):
        probes.append(args[1])
        return membership(*args, **kwargs)

    monkeypatch.setattr(impsolve.hille, "membership", counted)
    got = radius_along_ray(quadratic_comparison(), LatticeVec((1e-5,)),
                           tol=1e-12, budget=200)
    assert len(probes) < 200
    assert got.t_inside <= 25000 <= got.t_outside
    inside = membership(quadratic_comparison(),
                        LatticeVec((got.t_inside * 1e-5,)), 200)
    assert inside.verdict == "inside"


def test_radius_respects_direction_scaling():
    got = radius_along_ray(quadratic_comparison(), LatticeVec((0.5,)),
                           tol=1e-6)
    assert got.t_inside <= 0.5 <= got.t_outside


def test_radius_unbounded_for_linear_comparison():
    got = radius_along_ray(scalar_comparison({(1, 0): 2.0}),
                           LatticeVec((1.0,)))
    assert got.unbounded
    assert got.t_outside is None


def test_radius_bracket_certifies_membership():
    got = radius_along_ray(quadratic_comparison(), LatticeVec((1.0,)),
                           tol=1e-4)
    inside = membership(quadratic_comparison(),
                        LatticeVec((got.t_inside,)))
    assert inside.verdict == "inside"


def test_radius_on_seeded_system():
    rng = random.Random(77)
    cmp_eq = random_comparison(rng)
    direction = LatticeVec((1.0,) * cmp_eq.dim_x)
    got = radius_along_ray(cmp_eq, direction, tol=1e-4, budget=3000)
    if not got.unbounded:
        assert 0 < got.t_inside <= got.t_outside


def test_radius_takes_any_number_type_as_direction():
    # the direction is read as floats whatever the comparison's mode, so an
    # exact Catalan comparison accepts a Fraction, int or float direction
    cmp_eq = quadratic_comparison(mode=EXACT)
    got = [radius_along_ray(cmp_eq, LatticeVec((d,)), tol=1e-3)
           for d in (Fraction(1), 1, 1.0)]
    assert got[0] == got[1] == got[2]
    assert got[0].t_inside <= 0.25 <= got[0].t_outside


def test_radius_rejects_bad_direction():
    with pytest.raises(ValueError):
        radius_along_ray(quadratic_comparison(), LatticeVec((0.0,)))
    with pytest.raises(ValueError):
        radius_along_ray(quadratic_comparison(), LatticeVec((-1.0,)))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("-inf"),
                                 float("inf")])
def test_bad_tol_rejected(tol):
    # a NaN tol left the bracket unrefined at [0.125, 1.0]; a negative one
    # made hille_point report its exact turning point as failed, and an
    # infinite one report a point only bisection-accurate as found
    with pytest.raises(ValueError, match="tol"):
        radius_along_ray(quadratic_comparison(), LatticeVec((1.0,)), tol=tol)
    with pytest.raises(ValueError, match="tol"):
        hille_point(quadratic_comparison(), tol=tol)


def test_zero_tol_is_legal():
    turn = hille_point(quadratic_comparison(), tol=0.0)
    assert turn.X_star == pytest.approx(0.25, abs=1e-12)
    ray = radius_along_ray(quadratic_comparison(), LatticeVec((1.0,)),
                           tol=0.0, budget=50)
    assert ray.t_inside <= ray.t_outside


# ---------------------------------------------------------------------------
# the ratio estimate

def test_empirical_radius_catalan():
    sol = solve_formal(quadratic_equation(), 50)
    got = empirical_radius(sol)
    assert got.degree == 50
    # ratio of consecutive Catalan numbers: c_49/c_50 = 50/194
    assert got.estimate == pytest.approx(50.0 / 194.0, rel=1e-12)
    assert abs(got.estimate - 0.25) / 0.25 < 0.05


def test_empirical_radius_geometric():
    # y = x + x y solves to the geometric series, unit ratio throughout
    eq = quadratic_equation()
    from impsolve import EquationSpec, Series, SeriesMap, FLOAT
    geo = EquationSpec(1, 1, SeriesMap((
        Series(2, 24, {(1, 0): 1.0, (1, 1): 1.0}, FLOAT),)),
        eq.profile_x, eq.profile_y)
    got = empirical_radius(solve_formal(geo, 16))
    assert got.estimate == pytest.approx(1.0, rel=1e-12)


def test_empirical_radius_needs_a_long_run():
    sol = solve_formal(quadratic_equation(), 8)
    with pytest.raises(ValueError, match="at least 10"):
        empirical_radius(sol)


def _solution(*components, cap=12):
    return SolutionSeries(SeriesMap(components), cap, ITERATIVE)


@pytest.mark.parametrize("call, message", [
    (lambda: trace_graph(quadratic_comparison(), 1.0, 0),
     "steps must be positive"),
    (lambda: radius_along_ray(quadratic_comparison(), (-1.0,)),
     "direction must be non-negative and nonzero"),
    (lambda: radius_along_ray(quadratic_comparison(), LatticeVec((1.0, 1.0))),
     "direction has dimension 2, expected 1"),
    (lambda: empirical_radius(_solution(Series(1, 12, {(1,): 1.0}, FLOAT),
                                        Series(1, 12, {(1,): 1.0}, FLOAT))),
     "needs a scalar single-variable solution"),
    (lambda: empirical_radius(_solution(
        Series(1, 12, {(2,): 1.0, (4,): 1.0, (6,): 2.0}, FLOAT))),
     "no consecutive nonzero coefficients found"),
], ids=["no steps", "tuple direction", "direction too long",
        "two components", "even powers only"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# the three estimates agree

def test_radius_consistency_triangle():
    cmp_eq = quadratic_comparison()
    turn = hille_point(cmp_eq)
    ray = radius_along_ray(cmp_eq, LatticeVec((1.0,)), tol=1e-6)
    ratio = empirical_radius(solve_formal(quadratic_equation(), 50))
    assert turn.status == FOUND
    assert ray.t_inside - 1e-6 <= turn.X_star <= ray.t_outside + 1e-6
    assert abs(ratio.estimate - turn.X_star) / turn.X_star < 0.05
