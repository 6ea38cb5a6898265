"""Turning-point location, graph tracing, and the three radius estimates.

The cubic turning point is cross-checked by an in-test bisection on the
polynomial condition derived by eliminating X from the two equations; all
other frozen values come from hand algebra on quadratics.
"""

import io
import random
import sys
from fractions import Fraction
from math import isfinite

import pytest
from hypothesis import given, settings, strategies as st

import impsolve.hille
import impsolve.kantorovich
import impsolve.series
from impsolve import (
    ComparisonEquation,
    DomainError,
    EXACT,
    FAILED,
    FLOAT,
    FOUND,
    HillePoint,
    INSIDE,
    ITERATIVE,
    LatticeVec,
    OUTSIDE,
    RayRadius,
    Series,
    SeriesMap,
    SolutionSeries,
    UNBOUNDED,
    certificate_check,
    empirical_radius,
    hille_point,
    iterate_comparison,
    membership,
    radius_along_ray,
    region_to_csv,
    solve_formal,
    trace_graph,
)

from helpers import (
    exact_polys,
    fixed_point_oracle,
    is_pre_fixed,
    oracle_on_the_fed_unknowns,
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


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 4.0])
def test_turning_point_is_never_above_the_radius(c):
    # Y = X + cY^2 turns at Y* = 1/(2c), X* = 1/(4c), exact in binary
    got = hille_point(scalar_comparison({(1, 0): 1.0, (0, 2): c}))
    assert got.status == FOUND
    assert got.X_star <= 1 / (4 * c)
    assert got.X_star == pytest.approx(1 / (4 * c), rel=1e-15, abs=0)
    assert got.Y_star == pytest.approx(1 / (2 * c), rel=1e-15, abs=0)


@pytest.mark.parametrize("a, c", [(1.0, 1e-5), (1e6, 1.0), (1e-305, 1.0)])
def test_turning_point_far_from_one(a, c):
    # Y = aX + cY^2 turns at X* = 1/(4ac): a Y* of 5e4, whose float spacing
    # exceeds DEFAULT_TOL, a tiny X*, and an X* of 2.5e304 near the float range
    got = hille_point(scalar_comparison({(1, 0): a, (0, 2): c}))
    assert got.status == FOUND
    assert got.X_star == pytest.approx(1 / (4 * a * c), rel=1e-15, abs=0)


def test_turning_point_beyond_the_float_range_fails():
    # Y = 1e-310 X + Y^2 turns at X* = 2.5e309, which no float reaches
    got = hille_point(scalar_comparison({(1, 0): 1e-310, (0, 2): 1.0}))
    assert got.status == FAILED
    fields = (got.X_star, got.Y_star, got.residual_fixed, got.residual_derivative)
    assert all(isfinite(v) for v in fields)


def test_a_graph_that_turns_past_the_float_range_fails():
    # Y = X + 1e-310 Y^2 turns at Y* = 5e309: the doubling of Y reaches inf
    got = hille_point(scalar_comparison({(1, 0): 1.0, (0, 2): 1e-310}))
    assert got == HillePoint(None, None, None, None, FAILED)


def test_a_turn_near_the_top_of_the_float_range_is_found():
    # Y = 2^-1000 X + 2^-23 Y^2 turns at X* = 2^1021, Y* = 2^22.  Both
    # doublings stopped at 1e307 to keep 0.5 * (lo + hi) finite, so the turn
    # failed with X_star 5.6e306, while the ray radius bracketed the crossing
    cmp_eq = scalar_comparison({(1, 0): 2.0 ** -1000, (0, 2): 2.0 ** -23})
    assert hille_point(cmp_eq) == HillePoint(
        2.247116418577895e+307, 4194303.9999999995, 0.0, 1.1102230246251565e-16, FOUND)
    assert 2.247116418577895e+307 == pytest.approx(2.0 ** 1021, rel=1e-15, abs=0)
    # the graph reaches X = 1.5 * 2^1020 on either side of the turn, which the
    # X doubling skipped as past 1e307
    sample = trace_graph(cmp_eq, 2.0 ** 23, 4)
    assert not sample.omitted
    assert [pt.X for pt in sample.points] == pytest.approx(
        [0.0, 1.5 * 2.0 ** 1020, 2.0 ** 1021, 1.5 * 2.0 ** 1020, 0.0], rel=1e-15, abs=0)
    assert sample.turning_index == 2


def _past_the_top_doubling():
    # Y = (2^-1022 / 3) X + Y^2 / 4 turns at X* = 3 * 2^1022 = 1.348e308,
    # Y* = 2: past 2^1023, the last power of two in the float range
    return scalar_comparison({(1, 0): 2.0 ** -1022 / 3, (0, 2): 0.25})


def test_a_turn_past_the_last_doubling_is_found():
    # the X doubling of the graph solve stepped from 2^1023 to inf and gave
    # up, so every Y past 4/3 read as past the end of the graph and the
    # turn failed at X = 8.99e307; it now steps to the top of the range
    got = hille_point(_past_the_top_doubling())
    assert got.status == FOUND
    assert got.X_star == pytest.approx(3 * 2.0 ** 1022, rel=1e-7, abs=0)
    assert got.Y_star == pytest.approx(2.0, rel=1e-7, abs=0)
    sample = trace_graph(_past_the_top_doubling(), 2.0, 2)
    assert not sample.omitted
    assert [pt.X for pt in sample.points] == pytest.approx(
        [0.0, 2.25 * 2.0 ** 1022, 3 * 2.0 ** 1022], rel=1e-14, abs=0)


def test_a_crossing_past_the_last_doubling_is_bracketed():
    # membership is inside at 1.3e308 and outside at 1.7e308, but the scale
    # doubling stopped at 2^1022 and raised "no outside verdict"
    cmp_eq = _past_the_top_doubling()
    assert membership(cmp_eq, LatticeVec((1.3e308,))).verdict == INSIDE
    assert membership(cmp_eq, LatticeVec((1.7e308,))).verdict == OUTSIDE
    got = radius_along_ray(cmp_eq, LatticeVec((1.0,)), tol=1e302)
    assert got.t_inside <= 3 * 2.0 ** 1022 <= got.t_outside
    assert got.t_outside - got.t_inside <= 1e-5 * 3 * 2.0 ** 1022
    assert not got.unbounded
    # 0.5 * (t_inside + t_outside) overflowed to inf
    assert got.t_inside <= got.midpoint <= got.t_outside


def test_a_ray_with_a_large_entry_stops_at_its_last_finite_probe():
    # along e = 28333.38..., (float max / e) * e rounds to inf, so a doubling
    # capped at float max / e would probe an inf X; the last probe is one
    # below it, and with no crossing in the float range the search ends there
    e = 28333.385349893353
    assert sys.float_info.max / e * e == float("inf")
    cmp_eq = ComparisonEquation(SeriesMap((
        Series(2, 4, {(1, 0): Fraction(1, 10 ** 400), (0, 2): 1}, EXACT),)))
    with pytest.raises(DomainError, match="^no outside verdict along"):
        radius_along_ray(cmp_eq, LatticeVec((e,)), tol=1e-3)


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
    assert (got.X_star, got.Y_star) == (0.4124661118188052, 0.549954815758407)


def test_linear_comparison_is_unbounded():
    got = hille_point(scalar_comparison({(1, 0): 2.0}))
    assert got.status == UNBOUNDED
    assert got.X_star is None


def test_geometric_comparison_is_unbounded():
    # Y = X + XY has graph X = Y/(1+Y): X is bounded by one but the
    # derivative X stays below one for every finite Y, so no turn exists.
    got = hille_point(scalar_comparison({(1, 0): 1.0, (1, 1): 1.0}))
    assert got.status == UNBOUNDED


def test_turn_above_the_y_cap_is_not_unbounded():
    # Y = X + 1e-7 Y^2 turns at X* = 2.5e6, Y* = 5e6: a search capped at
    # Y = 1e6 called it unbounded
    got = hille_point(scalar_comparison({(1, 0): 1.0, (0, 2): 1e-7}))
    assert got.status == FOUND


@pytest.mark.parametrize("terms, x_star", [
    # X* = 1/(4c); X^2 + cY^2 = Y turns at Y* = 1/(2c), X* = (2c)^(-1/2);
    # X + cY^3 turns at Y* = (3c)^(-1/2), X* = (2/3) Y*
    ({(1, 0): 1.0, (0, 2): 1e-7}, 2.5e6),
    ({(2, 0): 1.0, (0, 2): 1e-20}, 5e9),
    ({(1, 0): 1.0, (0, 3): 1e-30}, (2 / 3) * (3e-30) ** -0.5),
], ids=["X + 1e-7 Y^2", "X^2 + 1e-20 Y^2", "X + 1e-30 Y^3"])
def test_far_turns_are_found(terms, x_star):
    # all three came back unbounded from a search capped at Y = 1e6
    got = hille_point(scalar_comparison(terms))
    assert got.status == FOUND
    assert got.X_star == pytest.approx(x_star, rel=1e-12, abs=0)


@pytest.mark.parametrize("terms", [
    {(1, 0): 2.0}, {(1, 0): 1.0, (1, 1): 1.0},
    {(1, 1): 4.0}, {(1, 1): 1.0, (0, 2): 1.0},
], ids=["2X", "X + XY", "4XY", "XY + Y^2"])
def test_a_branch_that_cannot_turn_is_unbounded(terms):
    # with Y-degree at most 1 the graph never turns; with no term free of Y
    # the principal branch is Y = 0, where 4XY and XY + Y^2 were found turning
    # at X = 1/4 and X = 1
    got = hille_point(scalar_comparison(terms))
    assert got == HillePoint(None, None, None, None, UNBOUNDED)


def test_requires_x_dependence():
    with pytest.raises(ValueError, match="depend on X"):
        hille_point(scalar_comparison({(0, 2): 1.0}))


@pytest.mark.parametrize("call", [
    # y = x - y^2 was answered unbounded, and the ray radius raised
    # AttributeError
    lambda: hille_point(quadratic_equation(sign=-1)),
    lambda: trace_graph(quadratic_equation(sign=-1), 1.0, 4),
    lambda: radius_along_ray(quadratic_equation(sign=-1), LatticeVec((1.0,))),
], ids=["hille_point", "trace_graph", "radius_along_ray"])
def test_a_non_comparison_is_refused(call):
    with pytest.raises(TypeError, match="a ComparisonEquation is required, "
                                        "got EquationSpec"):
        call()


def test_requires_scalar_dimensions():
    rng = random.Random(1)
    cmp_eq = random_comparison(rng)
    while cmp_eq.dim_x == 1 and cmp_eq.dim_y == 1:
        cmp_eq = random_comparison(rng)
    with pytest.raises(ValueError, match="scalar"):
        hille_point(cmp_eq)


def _count_compilations(monkeypatch):
    """The arguments of every kernel compilation, counted in every module
    that holds ``_compile``, as ``lattice`` did through its own import."""
    built, original = [], impsolve.series._compile

    def counting(*args):
        built.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("impsolve") and hasattr(module, "_compile"):
            monkeypatch.setattr(module, "_compile", counting)
    return built


def test_the_searches_share_the_comparison_kernels(monkeypatch):
    # Newton, the turn and the graph all read the comparison's two cached
    # float kernels, Psi and dPsi/dY, so nothing is compiled after them
    cmp_eq = quadratic_comparison()
    built = _count_compilations(monkeypatch)
    assert membership(cmp_eq, LatticeVec((0.2,))).verdict == INSIDE
    turn = hille_point(cmp_eq)
    assert turn.status == FOUND
    trace_graph(cmp_eq, 0.9, 9)
    assert hille_point(cmp_eq) == turn
    assert len(built) == 2


def seeded_pair():
    """Y0 = a X + b Y0 Y1 + c Y1^2, Y1 = d X + e Y0^2 + f X Y1, seeded."""
    rng = random.Random(6)
    co = lambda: rng.randint(500, 2000) / 1000
    return ComparisonEquation(SeriesMap((
        Series(3, 3, {(1, 0, 0): co(), (0, 1, 1): co(), (0, 0, 2): co()}, FLOAT),
        Series(3, 3, {(1, 0, 0): co(), (0, 2, 0): co(), (1, 0, 1): co()}, FLOAT))))


def _answer_everything(cmp_eq, inside, outside):
    """Membership inside and outside, the check, the trace, the turn of a
    scalar comparison and a ray radius, each from X = (inside,)."""
    got = membership(cmp_eq, LatticeVec((inside,)))
    assert got.verdict == INSIDE
    assert certificate_check(cmp_eq, LatticeVec((inside,)), got.principal_Y)
    assert membership(cmp_eq, LatticeVec((outside,))).verdict == OUTSIDE
    assert iterate_comparison(cmp_eq, LatticeVec((inside,))).verdict == INSIDE
    if cmp_eq.dim_y == 1:
        assert hille_point(cmp_eq).status == FOUND
    radius_along_ray(cmp_eq, LatticeVec((1.0,)), tol=1e-3)


def test_an_exact_comparison_compiles_its_nearest_kernels_once(monkeypatch):
    # membership read kernels from one float copy of an exact comparison,
    # and the ray radius compiled them again on another; then the checks
    # compiled Psi rounded up and down and dPsi/dY rounded down, 5 kernels in
    # all.  Now Psi's and dPsi/dY's nearest kernels decide every answer
    built = _count_compilations(monkeypatch)
    _answer_everything(quadratic_comparison(EXACT), Fraction(1, 5), Fraction(26, 100))
    assert len(built) == 2


def test_a_system_compiles_one_kernel_per_map(monkeypatch):
    # one kernel for Psi and one for dPsi/dY; a kernel per component of
    # each made that dim_y + dim_y^2 = 6 here, and the rounded kernels 14
    cmp_eq = seeded_pair()
    built = _count_compilations(monkeypatch)
    _answer_everything(cmp_eq, 0.05, 0.4)
    assert len(built) == 2


@pytest.mark.parametrize("q", [1, 2, 3, 5])
def test_building_the_kernels_compiles_two_functions(monkeypatch, q):
    # Y_i = X + Y_{i+1 mod q}^2 + X Y_i: however many unknowns, Psi and
    # dPsi/dY (its q^2 entries row-major) are one kernel each
    n = 1 + q
    cmp_eq = ComparisonEquation(SeriesMap(tuple(Series(n, 3, {
        tuple(int(k == 0) for k in range(n)): 1.0,
        tuple(2 * (k == 1 + (i + 1) % q) for k in range(n)): 1.0,
        tuple(int(k in (0, 1 + i)) for k in range(n)): 1.0}, FLOAT) for i in range(q))))
    built = _count_compilations(monkeypatch)
    (psi, leaves), (jac, jac_leaves) = cmp_eq._float_kernels
    assert len(built) == 2
    assert [terms for terms, _ in built] == [
        [c.terms for c in cmp_eq.psi.components],
        [p.terms for p in cmp_eq._bracket[3].components]]
    z = (0.5,) + tuple(0.25 * (k + 1) for k in range(q))
    assert psi(z, leaves, 0.0, 1.0) == tuple(
        0.5 + z[1 + (i + 1) % q] ** 2 + 0.5 * z[1 + i] for i in range(q))
    assert jac(z, jac_leaves, 0.0, 1.0) == tuple(
        (0.5 if i == j else 0.0) + (2 * z[1 + j] if j == (i + 1) % q else 0.0)
        for i in range(q) for j in range(q))
    membership(cmp_eq, LatticeVec((0.05,)))
    assert len(built) == 2


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


def test_trace_never_marks_the_origin_as_the_turn():
    # Y = 0 and Y = 1 both have X = 0 on Y = X + Y^2, and the first of the
    # tied maxima, the origin, where dPsi/dY = 0, was marked as the turn
    sample = trace_graph(quadratic_comparison(), 1.0, 1)
    assert [(pt.X, pt.Y) for pt in sample.points] == [(0.0, 0.0), (0.0, 1.0)]
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


@pytest.mark.parametrize("Y_max, steps", [(1.0, 10 ** 400), (10 ** 400, 10)],
                         ids=["huge steps", "huge Y_max"])
def test_trace_refuses_a_grid_too_large_for_a_float(Y_max, steps):
    # the finiteness test converted an int beyond the float range to float
    # and raised OverflowError instead of refusing the grid
    with pytest.raises(ValueError, match="^Y_max must be positive"):
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
# the graph solve against bisection

def _bisected_graph_x(psi, Y):
    """The graph solve as bisection did it: doubling X from 1, then
    bisection from 0 to float resolution."""
    gap = psi(0.0, Y) - Y
    if gap > 0.0:
        return None
    if gap == 0.0:
        return 0.0
    hi = 1.0
    while psi(hi, Y) - Y < 0.0:
        if hi == sys.float_info.max:
            return None
        hi = min(2.0 * hi, sys.float_info.max)
    lo, hi = impsolve.hille._bisect(lambda X: psi(X, Y) - Y < 0.0, 0.0, hi, 0.0)
    return 0.5 * lo + 0.5 * hi


def _counted(psi):
    """*psi*, and the list of X it has been called at."""
    calls = []

    def call(X, Y):
        calls.append(X)
        return psi(X, Y)
    return call, calls


def _graph_cases(count, seed):
    """Psi kernels of scalar comparisons with coefficients from 1e-30 to
    1e30 and X-degree up to 3, each with a Y in [0, 2], near 10^-300 or
    10^300, or 0."""
    rng = random.Random(seed)
    for _ in range(count):
        deg_x = rng.randint(1, 3)
        terms = {(rng.randint(1, deg_x), 0): 10.0 ** rng.uniform(-30, 30)}
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(0, deg_x)
            terms[(a, rng.randint(0 if a else 2, 4))] = 10.0 ** rng.uniform(-30, 30)
        psi, _ = impsolve.hille._scalar_kernels(scalar_comparison(terms))
        Y = rng.choice([rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0), 0.0,
                        10.0 ** rng.uniform(-300, -290), 10.0 ** rng.uniform(290, 300)])
        yield psi, Y


def test_the_graph_solve_returns_the_bits_bisection_did():
    # Psi - Y is nondecreasing on the floats, so the secant ends at the
    # adjacent pair bisection ended at and returns its midpoint, bit for bit
    kinds = set()
    for psi, Y in _graph_cases(1500, seed=33):
        want = _bisected_graph_x(psi, Y)
        assert repr(impsolve.hille._graph_x(psi, Y)) == repr(want), Y
        kinds.add(want if not want else "positive")
    assert kinds == {None, 0.0, "positive"}


def test_the_graph_solve_takes_a_few_calls_a_point():
    # bisection took 57.4 calls of Psi a point on the cubic's grid of 901
    # points, the secant about 6; on no search may it take more than about
    # twice as many as bisection
    cubic, _ = impsolve.hille._scalar_kernels(scalar_comparison(
        {(1, 0): 1.0, (1, 1): 1.0, (0, 3): 1.0}))
    grid = [(cubic, j / 900) for j in range(901)]
    counts = []
    for psi, Y in grid + list(_graph_cases(300, seed=34)):
        secant, secant_calls = _counted(psi)
        bisection, bisection_calls = _counted(psi)
        impsolve.hille._graph_x(secant, Y)
        _bisected_graph_x(bisection, Y)
        assert len(secant_calls) <= 2 * len(bisection_calls) + 4, Y
        counts.append(len(secant_calls))
    assert sum(counts[:901]) / 901 <= 8


def test_the_graph_solve_steps_geometrically_to_a_root_far_below_its_bracket():
    # the root, 5.7e-164, lies 540 binades below the first bracket [0, 1] and
    # Psi is convex there: each chord from the low end fell short and each
    # midpoint only halved the width, 1,101 calls of Psi where bisection
    # takes 597; a geometric mean halves the gap in exponent instead
    psi, _ = impsolve.hille._scalar_kernels(scalar_comparison(
        {(2, 0): 3.3e26, (1, 1): 1.8e16, (0, 2): 7.3e12}))
    Y = 1.09e-300
    counted, calls = _counted(psi)
    got = impsolve.hille._graph_x(counted, Y)
    assert repr(got) == repr(_bisected_graph_x(psi, Y))
    assert len(calls) <= 20


def test_the_graph_solve_never_takes_many_more_calls_than_bisection():
    for psi, Y in _graph_cases(3000, seed=35):
        secant, secant_calls = _counted(psi)
        bisection, bisection_calls = _counted(psi)
        impsolve.hille._graph_x(secant, Y)
        _bisected_graph_x(bisection, Y)
        assert len(secant_calls) <= len(bisection_calls) + 4, Y


# ---------------------------------------------------------------------------
# radius along a ray

def test_radius_brackets_quadratic():
    got = radius_along_ray(quadratic_comparison(), LatticeVec((1.0,)),
                           tol=1e-6)
    assert not got.unbounded
    assert got.t_inside <= 0.25 <= got.t_outside
    assert got.t_outside - got.t_inside <= 1e-6
    assert got.midpoint == pytest.approx(0.25, abs=1e-6)


def test_bisection_grid_frozen():
    # exact values pin the bisection grids: the ray bracket is a pair of
    # grid points, and the turning point is the inside end of another; the
    # ray bracket holds the closed-form crossing X* = 1/4 and meets its tol
    ray = radius_along_ray(quadratic_comparison(), LatticeVec((1.0,)),
                           tol=1e-6)
    assert (ray.t_inside, ray.t_outside) == (
        0.2499995231628418, 0.25000023841903385)
    assert ray.t_inside < 0.25 < ray.t_outside
    assert ray.t_outside - ray.t_inside <= 1e-6
    turn = hille_point(scalar_comparison(
        {(1, 0): 1.0, (1, 1): 1.0, (0, 3): 1.0}))
    assert (turn.X_star, turn.Y_star, turn.status) == (
        0.25, 0.49999999999999994, FOUND)


def test_radius_stops_at_float_spacing(monkeypatch):
    # along direction 1e-5 the crossing sits at t = 25000, where floats are
    # 3.6e-12 apart, so tol = 1e-12 cannot be met; neither bisection may
    # re-probe an end once the midpoint repeats it.  The inside end asks the
    # certificate alone, the outside end asks membership: count both
    probes = []

    def counted(call):
        def probe(*args, **kwargs):
            probes.append(args[1])
            return call(*args, **kwargs)
        return probe

    monkeypatch.setattr(impsolve.hille, "membership", counted(membership))
    monkeypatch.setattr(impsolve.hille, "_newton_certificate",
                        counted(impsolve.kantorovich._newton_certificate))
    got = radius_along_ray(quadratic_comparison(), LatticeVec((1e-5,)), tol=1e-12)
    assert len(probes) < 200
    assert got.t_inside <= 25000 <= got.t_outside
    inside = membership(quadratic_comparison(), LatticeVec((got.t_inside * 1e-5,)))
    assert inside.verdict == "inside"


def test_radius_runs_no_kleene_loop_for_an_inside_question(monkeypatch):
    # the halving search and the inside-end bisection only ask whether a
    # scale is certified inside, which the Newton certificate alone decides;
    # the halving lands on the crossing t = 1/4 itself, where a Kleene loop
    # runs its whole budget for an unresolved answer no search reads
    runs = []
    outside = impsolve.kantorovich._outside

    def recorded(cmp, x, *args, **kwargs):
        result = outside(cmp, x, *args, **kwargs)
        runs.append((x, result[1]))
        return result

    monkeypatch.setattr(impsolve.kantorovich, "_outside", recorded)
    got = radius_along_ray(quadratic_comparison(), LatticeVec((1.0,)), tol=1e-6)
    assert got.t_inside < 0.25 < got.t_outside
    assert runs and all(x != (0.25,) for x, _ in runs)
    assert sum(steps for _, steps in runs) < 20000


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
    got = radius_along_ray(cmp_eq, direction, tol=1e-4)
    if not got.unbounded:
        assert 0 < got.t_inside <= got.t_outside


def test_crossing_beyond_the_probe_cap_is_not_unbounded():
    # along the direction 1e-13 the quadratic's boundary is at t* = 2.5e12,
    # above the scale 1e12 where a capped doubling search gave up
    got = radius_along_ray(quadratic_comparison(), LatticeVec((1e-13,)), tol=1e-4)
    assert not got.unbounded


def test_crossing_beyond_the_probe_cap_is_bracketed():
    got = radius_along_ray(quadratic_comparison(), LatticeVec((1e-13,)), tol=1e-4)
    assert got.t_inside <= 2.5e12 <= got.t_outside


def test_an_unbounded_ray_reports_the_halving_scale():
    # Y = 2X feeds no cycle: the ray is unbounded at once, and t_inside is
    # the first scale the halving search certified, not a doubling's last
    got = radius_along_ray(scalar_comparison({(1, 0): 2.0}), LatticeVec((1.0,)))
    assert got == RayRadius(t_inside=1.0, t_outside=None, unbounded=True)
    assert got.midpoint == 1.0


def test_a_crossing_beyond_the_float_range_is_a_domain_error():
    # Y = X + 1e-300 Y^2 along 1e-300 crosses at t* = 2.5e599
    with pytest.raises(DomainError, match="float range"):
        radius_along_ray(scalar_comparison({(1, 0): 1.0, (0, 2): 1e-300}),
                         LatticeVec((1e-300,)))


def test_a_ray_with_a_tiny_crossing_has_a_positive_inside_end():
    # Y = X + 1e20 Y^2 crosses at t* = 2.5e-21 along 1; no push of at least
    # 1e-14 certified a scale there, and the halving search ran to 0.0
    cmp_eq = scalar_comparison({(1, 0): 1.0, (0, 2): 1e20})
    got = radius_along_ray(cmp_eq, LatticeVec((1.0,)))
    assert 0 < got.t_inside <= 2.5e-21 <= got.t_outside
    assert fixed_point_oracle(exact_polys(cmp_eq), (got.t_inside,))[1] is not None


def test_a_probe_whose_first_iterate_overflows_is_outside():
    # y = x^2 + y^2 crosses at x = 1/2, so at t* = 5e-201 along 1e200; the
    # doubling search's first probe, t = 1, overflows in its first Kleene
    # step, and raised "float coefficients must be finite, got inf"
    got = radius_along_ray(scalar_comparison({(2, 0): 1.0, (0, 2): 1.0}),
                           LatticeVec((1e200,)))
    assert 0 < got.t_inside <= 5e-201 <= got.t_outside
    assert not got.unbounded


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
    # float() raised OverflowError, which callers do not take for a bad value
    with pytest.raises(ValueError, match="too large for a float"):
        radius_along_ray(quadratic_comparison(), LatticeVec((Fraction(10 ** 400),)))
    # the refusal called a direction entry a coefficient
    for entry in (Fraction(10 ** 400), Fraction(1, 10 ** 400)):
        with pytest.raises(ValueError, match="^direction entry .* for a float$"):
            radius_along_ray(quadratic_comparison(), LatticeVec((entry,)))
    # a non-finite entry passed the sign check and was refused while probing,
    # as a coefficient
    for entry in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^direction must be finite"):
            radius_along_ray(quadratic_comparison(), LatticeVec((entry,)))
    with pytest.raises(ValueError, match="^direction must be non-negative and nonzero$"):
        radius_along_ray(quadratic_comparison(), LatticeVec((float("-inf"),)))


def test_coefficient_below_the_float_range_is_refused_not_dropped():
    # Answered now, and still not dropped.  A float copy rounded 10^-400 to
    # 0.0 and dropped the term: hille_point refused Y = 10^-400 X + Y^2 as
    # not depending on X, and the ray radius came back unbounded, as for
    # Y = Y^2; a copy that refused the term raised.  The turn is at
    # X = 2.5e399, beyond the float range, so the search fails
    cmp_eq = ComparisonEquation(SeriesMap((
        Series(2, 4, {(1, 0): Fraction(1, 10 ** 400), (0, 2): 1}, EXACT),)))
    assert hille_point(cmp_eq).status == FAILED
    assert trace_graph(cmp_eq, 1.0, 10).turning_index is None


@pytest.mark.parametrize("terms", [
    {(1, 0): Fraction(1, 10 ** 400), (0, 2): 1},
    {(1, 0): 1, (0, 2): Fraction(1, 10 ** 400)},
], ids=["tiny-x", "tiny-y2"])
def test_a_ray_reads_its_cycles_from_the_terms_not_their_rounding(terms):
    # both cross at X = 2.5e399, beyond the float range.  Read off kernels
    # with leaves rounded to nearest, where 10^-400 is 0.0, Y = 10^-400 X +
    # Y^2 is Y = Y^2 and Y = X + 10^-400 Y^2 has no cycle: both looked
    # unbounded.  A float copy that refused the term raised ValueError
    cmp_eq = ComparisonEquation(SeriesMap((Series(2, 4, terms, EXACT),)))
    with pytest.raises(DomainError, match=r"^no outside verdict along \(1.0\) "
                                          r"in the float range$"):
        radius_along_ray(cmp_eq, LatticeVec((1.0,)), tol=1e-3)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("-inf"),
                                 float("inf")])
def test_bad_tol_rejected(tol):
    # a NaN tol left the bracket unrefined at [0.125, 1.0]
    with pytest.raises(ValueError, match="tol"):
        radius_along_ray(quadratic_comparison(), LatticeVec((1.0,)), tol=tol)


def test_zero_tol_is_legal():
    ray = radius_along_ray(quadratic_comparison(), LatticeVec((1.0,)), tol=0.0)
    assert ray.t_inside <= ray.t_outside


# ---------------------------------------------------------------------------
# both unbounded rules against the exact oracle

dyadics = st.builds(lambda k, j: Fraction(k, 2 ** j), st.integers(1, 8),
                    st.integers(0, 3))


@st.composite
def positive_systems(draw, p=None, q=None):
    """A float comparison equation of total degree at most 3 whose dyadic
    coefficients the exact oracle reads unrounded."""
    p, q = p or draw(st.integers(1, 2)), q or draw(st.integers(1, 2))
    gammas = st.tuples(*[st.integers(0, 3)] * (p + q)).filter(
        lambda g: sum(g) <= 3 and (any(g[:p]) or sum(g) >= 2))
    return ComparisonEquation(SeriesMap(tuple(
        Series(p + q, 3, {g: float(c) for g, c in draw(
            st.dictionaries(gammas, dyadics, min_size=1, max_size=4)).items()},
            FLOAT)
        for _ in range(q))))


@settings(max_examples=100)
@given(positive_systems(), st.data())
def test_the_ray_rule_against_the_oracle(cmp_eq, data):
    # a ray called unbounded has a pre-fixed point far out along it; a
    # bracket has a verified inside end and an outside end the oracle
    # cannot verify
    direction = tuple(data.draw(st.lists(
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]),
        min_size=cmp_eq.dim_x, max_size=cmp_eq.dim_x).filter(any)))
    polys = exact_polys(cmp_eq)
    got = radius_along_ray(cmp_eq, LatticeVec(tuple(map(float, direction))),
                           tol=1e-3)
    if got.unbounded:
        for t in (1, 2 ** 16, 2 ** 32):
            lower, _ = oracle_on_the_fed_unknowns(polys, direction, t)
            assert is_pre_fixed(polys, tuple(t * d for d in direction), lower)
        return
    t_in, t_out = Fraction(got.t_inside), Fraction(got.t_outside)
    _, upper = oracle_on_the_fed_unknowns(polys, direction, t_in)
    assert upper is not None
    assert is_pre_fixed(polys, tuple(t_in * d for d in direction), upper)
    assert oracle_on_the_fed_unknowns(polys, direction, t_out)[1] is None


@given(positive_systems(p=1, q=1).filter(
    lambda c: any(g[0] for g in c.psi.components[0].terms)))
def test_the_turn_rule_against_the_oracle(cmp_eq):
    # unbounded exactly when no term is free of Y or none has Y-degree 2 or
    # more; a found turn lies on the oracle's boundary
    degrees = {g[1] for g in cmp_eq.psi.components[0].terms}
    got = hille_point(cmp_eq)
    assert (got.status == UNBOUNDED) == (0 not in degrees or max(degrees) < 2)
    if got.status == FOUND:
        polys = exact_polys(cmp_eq)
        X = Fraction(got.X_star)
        assert fixed_point_oracle(polys, (X * (1 - Fraction(1, 2 ** 20)),))[1]
        assert fixed_point_oracle(polys, (X * (1 + Fraction(1, 2 ** 20)),))[2]


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
    geo = EquationSpec(SeriesMap((
        Series(2, 24, {(1, 0): 1.0, (1, 1): 1.0}, FLOAT),)),
        eq.profile_x, eq.profile_y)
    got = empirical_radius(solve_formal(geo, 16))
    assert got.estimate == pytest.approx(1.0, rel=1e-12)


def test_empirical_radius_needs_a_long_run():
    sol = solve_formal(quadratic_equation(), 8)
    with pytest.raises(ValueError, match="at least 10"):
        empirical_radius(sol)


def _solution(*components):
    return SolutionSeries(SeriesMap(components), ITERATIVE)


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
