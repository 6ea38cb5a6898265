"""Compare the three radius estimates across the family Y = X + c Y^2.

For each curvature c the turning point has the closed form X* = 1/(4c),
which makes the family a clean benchmark for the turning-point solve, the
ray bisection, and the coefficient-ratio estimate.  Prints one row per c
with all four numbers.

Usage: python3 scripts/radius_sweep.py [--curvatures 0.5,1,2,4] [--degree 40]
"""

import argparse
import math

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

# empirical_radius needs this many consecutive nonzero coefficients
MIN_DEGREE = 10


def family_member(c, cap):
    psi = SeriesMap((Series(2, cap, {(1, 0): 1.0, (0, 2): c}, FLOAT),))
    return ComparisonEquation(1, 1, psi)


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
          f"{'ray midpoint':>13} {'ratio(n=%d)' % args.degree:>13}")
    for c in cs:
        eq = family_member(c, args.degree)
        exact = 1.0 / (4.0 * c)
        turn = hille_point(eq)
        ray = radius_along_ray(eq, LatticeVec((1.0,)), tol=args.tol)
        est = empirical_radius(solve_formal(eq, args.degree))
        print(f"{c:>6.2f} {exact:>12.8f} {turn.X_star:>14.8f} "
              f"{ray.midpoint:>13.8f} {est.estimate:>13.8f}")
    print()
    print("the ratio column converges to the closed form like O(1/n); "
          "the other two agree to their tolerances")


if __name__ == "__main__":
    main()
