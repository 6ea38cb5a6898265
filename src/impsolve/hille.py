"""Convergence-region geometry of a scalar comparison equation.

On the graph of ``Y = Psi(X, Y)`` the principal branch rises from the
origin until the partial derivative of ``Psi`` in ``Y`` reaches one; at
that turning point the graph has a vertical tangent and the X coordinate
is the radius of convergence of the principal solution branch.  This
module locates that point and traces the graph on the comparison's two
cached map kernels, of Psi and of ``dPsi/dY``, the ones Newton reads,
building no series: a graph point by a bracketing secant on Psi's values,
the turn's Y by bisection on a yes or no.  It probes the
convergence region along rays through the origin, and offers an
empirical coefficient-ratio estimate of the radius for comparison.  A ray
probe that only asks whether a scale is inside runs the Newton
certificate alone; a probe that needs an ``outside`` verdict runs
``membership``, whose Kleene loop follows a failed certificate.  Whether
a turn or a crossing exists at all is read off Psi's terms.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isfinite, nextafter, sqrt, ulp
from sys import float_info
from typing import IO, Callable

from .errors import DomainError
from .kantorovich import (DEFAULT_TOL, INSIDE, OUTSIDE, _newton_certificate, check_tol,
                          membership)
from .lattice import ComparisonEquation, LatticeVec, check_comparison
from .series import EXACT, FLOAT, _float, coerce_value, zero_value
from .solver import SolutionSeries

FOUND = "found"
UNBOUNDED = "unbounded"
FAILED = "failed"


class HillePoint(namedtuple("HillePoint",
                            "X_star Y_star residual_fixed residual_derivative status")):
    """The turning point of the comparison graph, if found: floats or None, and a status."""

    __slots__ = ()


class GraphPoint(namedtuple("GraphPoint", "X Y dPsi_dY")):
    """A point on the graph and ``dPsi/dY`` there, as floats."""

    __slots__ = ()


class RegionSample(namedtuple("RegionSample", "points turning_index omitted")):
    """A tuple of ``GraphPoint``s, the turn's index or None, and the float Ys left out."""

    __slots__ = ()


class RayRadius(namedtuple("RayRadius", "t_inside t_outside unbounded")):
    """Certified bracket around the boundary crossing along a ray, as float scales."""

    __slots__ = ()

    @property
    def midpoint(self) -> float:
        if self.t_outside is None:
            return self.t_inside
        return 0.5 * self.t_inside + 0.5 * self.t_outside


def _scalar_kernels(cmp: ComparisonEquation) -> tuple[Callable, Callable]:
    """``Psi(X, Y)`` and ``dPsi/dY(X, Y)`` of a scalar comparison, on floats."""
    check_comparison(cmp)
    if cmp.dim_x != 1 or cmp.dim_y != 1:
        raise ValueError(
            f"a scalar comparison equation is required, got dimensions "
            f"({cmp.dim_x}, {cmp.dim_y})")
    (run, leaves), (run_y, leaves_y) = cmp._float_kernels
    if not any(gamma[0] > 0 for gamma in cmp.psi.components[0].terms):
        raise ValueError(
            "the comparison equation does not depend on X; the graph "
            "solve is ill-posed")
    return (lambda X, Y: run((X, Y), leaves, 0.0)[0],
            lambda X, Y: run_y((X, Y), leaves_y, 0.0)[0])


def _bisect(below: Callable[[float], bool], lo: float, hi: float,
            tol: float) -> tuple[float, float]:
    """Narrow ``lo < hi`` by bisection, keeping ``below(lo)`` true and
    ``below(hi)`` false.

    Stops once ``hi - lo <= tol``, or once no float lies strictly between
    the ends, so the midpoint would repeat one of them.
    """
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) wherever that is finite and normal
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _graph_x(psi: Callable, Y: float) -> float | None:
    """Smallest X >= 0 with Psi(X, Y) = Y, or None when there is none.

    Psi's float kernel is Horner on non-negative leaves, and rounding is
    monotone, so ``g = Psi(X, Y) - Y`` is nondecreasing on floats X >= 0
    and changes sign between one pair of adjacent floats.  Doubling X from
    1 brackets the pair and a secant narrows the bracket to it, so the
    answer, ``0.5 * lo + 0.5 * hi``, is bisection's.  A probe is the zero of
    the chord between the ends, where a zero ``g(hi)`` reads as a unit in
    the last place of Y, so that the chord aims below the flat stretch on
    which Psi rounds to Y.  A probe that keeps more than half the bracket,
    or an infinite ``g(hi)``, calls for a halving: the geometric mean of the
    ends while ``0 < 2 lo < hi``, which halves their gap in exponent and lies
    strictly between them, else the midpoint.  The search takes about 6
    calls a point on the graph of ``Y = X + XY + Y^3``.
    """
    lo, g_lo = 0.0, psi(0.0, Y) - Y
    if g_lo > 0.0:
        return None
    if g_lo == 0.0:
        return 0.0
    hi = 1.0
    while (g_hi := psi(hi, Y) - Y) < 0.0:
        if hi == float_info.max:
            return None
        lo, g_lo, hi = hi, g_hi, min(2.0 * hi, float_info.max)
    halve = False
    while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
        width, X = hi - lo, mid
        if not halve and isfinite(g_hi):
            X = lo + width * (g_lo / (g_lo - (g_hi or ulp(Y))))
            X = min(max(X, nextafter(lo, hi)), nextafter(hi, lo))
        elif 0.0 < 2.0 * lo < hi:
            X = sqrt(lo) * sqrt(hi)
        if (g := psi(X, Y) - Y) < 0.0:
            lo, g_lo = X, g
        else:
            hi, g_hi = X, g
        halve = hi - lo > 0.5 * width
    return mid


def hille_point(cmp: ComparisonEquation) -> HillePoint:
    """Locate the vertical-tangent point of the comparison graph.

    Unbounded exactly when Psi has no term free of Y, so the branch is
    ``Y = 0``, or none of Y-degree 2 or more, so ``Psi = A(X) + B(X) Y`` and
    the graph rises to ``B(X) = 1`` without turning.  With both, ``Y* >=
    A(X)`` grows with X while ``Y* >= c X^a Y*^b`` keeps it bounded, so the
    branch ends at a finite X, where ``dPsi/dY`` reaches one.  Brackets the
    turn by doubling Y from 1 up to the largest float, as the graph solve
    and the ray searches do, bisects it to float resolution and reports the
    graph point at the inside end: 324 calls of Psi on ``Y = X + XY + Y^3``
    and 278 on ``Y = X + Y^2``.  A probe past the end of the graph reads as
    past the turn: below it the graph rises, so it can only end beyond.  The
    point is found when ``|Y - Psi| <= DEFAULT_TOL * max(1, Y)`` (a float
    spacing of a large Y exceeds ``DEFAULT_TOL``) and ``|1 - dPsi/dY| <=
    DEFAULT_TOL``, else it failed, as when the largest float is still below
    the turn.
    """
    psi, psi_y = _scalar_kernels(cmp)
    degrees = {gamma[1] for gamma in cmp.psi.components[0].terms}
    if 0 not in degrees or max(degrees) < 2:
        return HillePoint(None, None, None, None, UNBOUNDED)

    def below_turn(Y: float) -> bool:
        X = _graph_x(psi, Y)
        return X is not None and psi_y(X, Y) < 1.0

    lo, hi = 0.0, 1.0
    while below_turn(hi):
        if hi == float_info.max:
            return HillePoint(None, None, None, None, FAILED)
        lo, hi = hi, min(2.0 * hi, float_info.max)

    Y, _ = _bisect(below_turn, lo, hi, 0.0)
    X = _graph_x(psi, Y)
    fixed = abs(Y - psi(X, Y))
    derivative = abs(1.0 - psi_y(X, Y))
    found = fixed <= DEFAULT_TOL * max(1.0, Y) and derivative <= DEFAULT_TOL
    return HillePoint(X, Y, fixed, derivative, FOUND if found else FAILED)


def trace_graph(cmp: ComparisonEquation, Y_max: float, steps: int) -> RegionSample:
    """Sample the graph X(Y) on an even Y grid.

    Grid points without a solution are left out and reported in the
    ``omitted`` list.  ``turning_index`` marks the maximal X among the
    kept points, or None when the maximum sits at either end of them (no
    turning inside the range).
    """
    psi, psi_y = _scalar_kernels(cmp)
    if steps < 1:
        raise ValueError("steps must be positive")
    try:
        finite = isfinite(Y_max * steps)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not (Y_max > 0 and finite):
        raise ValueError(
            f"Y_max must be positive, with Y_max * steps finite, got {Y_max!r}")
    points: list[GraphPoint] = []
    omitted: list[float] = []
    for j in range(steps + 1):
        # the kernels take floats: a Y_max giving no float grid is refused here
        Y = coerce_value(Y_max * j / steps, FLOAT)
        X = _graph_x(psi, Y)
        if X is None:
            omitted.append(Y)
            continue
        points.append(GraphPoint(X, Y, psi_y(X, Y)))
    # Y = 0 always gives X = 0, as psi has no constant term, so points is not
    # empty and starts at the origin, where dPsi/dY = 0: never the turn
    turning = max(range(len(points)), key=lambda k: points[k].X)
    if turning in (0, len(points) - 1):
        turning = None
    return RegionSample(points=tuple(points), turning_index=turning,
                        omitted=tuple(omitted))


def region_to_csv(sample: RegionSample, stream: IO[str]) -> None:
    import csv  # here, so that only the verbs that write CSV load it
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["Y", "X", "dPsi_dY", "is_turning"])
    for k, pt in enumerate(sample.points):
        writer.writerow([repr(pt.Y), repr(pt.X), repr(pt.dPsi_dY),
                         "1" if k == sample.turning_index else "0"])


def radius_along_ray(cmp: ComparisonEquation, direction: LatticeVec,
                     tol: float = DEFAULT_TOL) -> RayRadius:
    """Bracket the boundary of the convergence region along a ray.

    Returns scales ``t_inside <= t_outside`` with membership certified
    inside at the former and outside at the latter; the true boundary
    crossing lies in between.  Each end is refined by bisection until the
    bracket is at most ``tol`` wide or no float lies between the ends.
    The bracket can stay wider than ``tol``: unresolved scales cannot be
    claimed for either side, so they stay inside it, and a ``tol`` below
    the float spacing at the crossing cannot be met.  The scales are floats;
    a probe is the tuple of the finite images of ``t * d``, exact on an exact
    comparison, so every ``inside`` and ``outside`` is checked against the exact Psi.

    The ray is unbounded, with ``t_inside`` from the halving search, exactly
    when the unknowns it feeds have no dependency cycle
    (``ComparisonEquation._support`` at the direction's support): then the
    least fixed point is a polynomial in ``t``.  Along a cycle each entry
    of ``dPsi/dY`` holds ``x`` or a fed unknown, as no term is linear in Y
    alone, so the cycle's product, a lower bound on ``rho(dPsi/dY)``,
    passes 1 as ``t`` grows, where a least fixed point has ``rho <= 1`` on
    its support (Etessami and Yannakakis, JACM 2009).  The doubling search
    then runs to an ``outside`` verdict, raising ``DomainError`` past the
    largest finite probe.
    """
    check_comparison(cmp)
    check_tol(tol)
    if not isinstance(direction, LatticeVec):
        direction = LatticeVec(tuple(direction))
    if direction.dimension != cmp.dim_x:
        raise ValueError(
            f"direction has dimension {direction.dimension}, expected {cmp.dim_x}")
    dir_entries = tuple(_float(e, "direction entry") for e in direction.entries)
    for e, f in zip(direction.entries, dir_entries):
        if e and not f:  # a ray along a dropped entry would be another ray
            raise ValueError(f"direction entry {e} is too small for a float")
    if any(e < 0 for e in dir_entries) or all(e == 0 for e in dir_entries):
        raise ValueError("direction must be non-negative and nonzero")
    if not all(map(isfinite, dir_entries)):
        raise ValueError(f"direction must be finite, got {direction}")
    _, cyclic = cmp._support(tuple(map(bool, dir_entries)))

    image = Fraction if cmp.mode == EXACT else float

    def probe(t: float) -> tuple:
        return tuple(image(t * e) for e in dir_entries)

    def inside(t: float) -> bool:
        return _newton_certificate(cmp, probe(t)) is not None

    def verdict(t: float) -> str:
        return membership(cmp, LatticeVec(probe(t))).verdict

    t_in = 1.0
    while t_in > 0 and not inside(t_in):
        t_in *= 0.5
    if not cyclic:
        return RayRadius(t_inside=t_in, t_outside=None, unbounded=True)

    top = nextafter(float_info.max / max(1.0, *dir_entries), 0.0)  # keeps every t * e finite
    t_out = min(max(1.0, 2.0 * t_in), top)
    while (v := verdict(t_out)) != OUTSIDE:
        if v == INSIDE:
            t_in = t_out
        if t_out == top:
            raise DomainError(f"no outside verdict along {direction} in the float range")
        t_out = min(2.0 * t_out, top)

    t_in, _ = _bisect(inside, t_in, t_out, tol)
    _, t_out = _bisect(lambda t: verdict(t) != OUTSIDE, t_in, t_out, tol)
    return RayRadius(t_inside=t_in, t_outside=t_out, unbounded=False)


class RadiusEstimate(namedtuple("RadiusEstimate", "estimate degree")):
    """The ratio estimate, in the series' mode, and the degree it was read at."""

    __slots__ = ()


def empirical_radius(sol: SolutionSeries) -> RadiusEstimate:
    """Coefficient-ratio estimate of the convergence radius.

    Uses the ratio of the last two nonzero coefficients of a scalar
    single-variable solution series; the run of consecutive nonzero
    coefficients ending there must be at least ten long for the estimate
    to mean anything.
    """
    if sol.phi.output_dim != 1 or sol.phi.num_vars != 1:
        raise ValueError("the ratio estimate needs a scalar single-variable solution")
    comp = sol.phi.components[0]
    coeffs = [comp.coefficient((n,)) for n in range(sol.degree_cap + 1)]
    zero = zero_value(comp.mode)
    top = None
    for n in range(sol.degree_cap, 0, -1):
        if coeffs[n] != zero and coeffs[n - 1] != zero:
            top = n
            break
    if top is None:
        raise ValueError("no consecutive nonzero coefficients found")
    run = 0
    for n in range(top, -1, -1):
        if coeffs[n] == zero:
            break
        run += 1
    if run < 10:
        raise ValueError(
            f"need at least 10 consecutive nonzero coefficients, found {run}")
    return RadiusEstimate(estimate=abs(coeffs[top - 1] / coeffs[top]), degree=top)
