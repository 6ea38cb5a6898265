"""Compare the three radius estimates across the family Y = X + c Y^2.

For each curvature c the turning point has the closed form X* = 1/(4c),
which makes the family a clean benchmark for the turning-point solve, the
ray bisection, and the coefficient-ratio estimate.  Prints one row per c
with all four numbers, and the lower bound Cauchy's majorant gives, with
the closed form's ratio to it: how much stronger Hille's form is.  A last
row does the same for the cubic Y = X + XY + Y^3, whose turn, where
2Y^3 + 3Y^2 = 1, is at Y* = 1/2 and X* = 1/4.

Usage: python3 scripts/radius_sweep.py [--curvatures 0.5,1,2,4] [--degree 40]
"""

import argparse
import math
from fractions import Fraction

from impsolve import (
    FLOAT,
    ComparisonEquation,
    LatticeVec,
    Series,
    SeriesMap,
    empirical_radius,
    hille_point,
    radius_along_ray,
    solve_formal,
)
from impsolve.series import _down, _up

# empirical_radius needs this many consecutive nonzero coefficients
MIN_DEGREE = 10
# the polydisc radii a and b of the Cauchy bound: quarter octaves, 2^-40 to 2^40
CAUCHY_GRID = [2.0 ** (k / 4) for k in range(-160, 161)]


def family_member(c, cap):
    psi = SeriesMap((Series(2, cap, {(1, 0): 1.0, (0, 2): c}, FLOAT),))
    return ComparisonEquation(psi)


def cubic(cap):
    psi = SeriesMap((Series(2, cap, {(1, 0): 1.0, (1, 1): 1.0, (0, 3): 1.0}, FLOAT),))
    return ComparisonEquation(psi)


def cauchy_radius(eq):
    """The best of Cauchy's lower bounds on X* over ``CAUCHY_GRID``, rounded down.

    On the polydisc of radii (a, b), M = Psi(a, b), Psi lies below the
    majorant M / ((1 - X/a)(1 - Y/b)) - M - M Y/b, whose solution converges
    for X below a b^2 / (b^2 + 4 M (b + M)); so X* is at least that.  The
    grid is searched in float; at its best point M is rounded up and the
    bound down, exactly.
    """
    (terms,) = (comp.terms for comp in eq.psi.components)

    def psi(a, b, num=float):
        return sum(num(v) * num(a) ** g[0] * num(b) ** g[1] for g, v in terms.items())

    def rho(a, b, M):
        return a * b * b / (b * b + 4 * M * (b + M))

    a, b = max(((a, b) for a in CAUCHY_GRID for b in CAUCHY_GRID),
               key=lambda ab: rho(*ab, psi(*ab)))
    return _down(rho(Fraction(a), Fraction(b), Fraction(_up(psi(a, b, Fraction)))))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--curvatures", default="0.5,1,2,4",
                        help="comma-separated values of c")
    parser.add_argument("--degree", type=int, default=40,
                        help="series degree for the ratio estimate")
    parser.add_argument("--tol", type=float, default=1e-6)
    args = parser.parse_args()
    if args.degree < MIN_DEGREE:
        parser.error(f"--degree must be at least {MIN_DEGREE}: the ratio "
                     f"estimate needs {MIN_DEGREE} consecutive nonzero "
                     f"coefficients")
    if not 0 <= args.tol < math.inf:
        parser.error(f"--tol must be a finite non-negative number, got {args.tol}")
    try:
        cs = [float(s) for s in args.curvatures.split(",")]
    except ValueError:
        cs = [math.nan]
    if not all(0 < c < math.inf for c in cs):
        parser.error(f"--curvatures must be positive finite numbers, got "
                     f"{args.curvatures!r}")

    print(f"{'c':>6} {'closed form':>12} {'turning point':>14} "
          f"{'ray midpoint':>13} {'ratio(n=%d)' % args.degree:>13} "
          f"{'cauchy':>13} {'X*/cauchy':>10}")
    rows = [(f"{c:g}", family_member(c, args.degree), 1.0 / (4.0 * c)) for c in cs]
    for label, eq, exact in rows + [("cubic", cubic(args.degree), 0.25)]:
        turn = hille_point(eq)
        ray = radius_along_ray(eq, LatticeVec((1.0,)), tol=args.tol)
        est = empirical_radius(solve_formal(eq, args.degree))
        cauchy = cauchy_radius(eq)
        print(f"{label:>6} {exact:>12.8f} {turn.X_star:>14.8f} "
              f"{ray.midpoint:>13.8f} {est.estimate:>13.8f} "
              f"{cauchy:>13.8f} {exact / cauchy:>10.5f}")
    print()
    print("the cauchy column is a certified lower bound on X*; on the quadratics "
          "it tends to X*/4 as the polydisc grows")
    print("the ratio column converges to the closed form like O(1/n); "
          "the other two agree to their tolerances")


if __name__ == "__main__":
    main()
