"""Walk through the full pipeline on the signed quadratic y = x - y^2.

Solves the series, builds the comparison equation, runs the paired
iteration at a sample point with certified error bounds, and closes with
the turning point and the three radius estimates side by side.

Usage: python3 scripts/quadratic_demo.py [--x 0.2] [--degree 12]
"""

import argparse
import math

from impsolve import (
    COMPONENTWISE,
    FLOAT,
    DomainError,
    EquationSpec,
    LatticeVec,
    Series,
    SeriesMap,
    empirical_radius,
    error_bound,
    hille_point,
    iterate_primal,
    majorant,
    radius_along_ray,
    solve_formal,
)


def build_equation(cap):
    psi = SeriesMap((Series(2, cap, {(1, 0): 1.0, (0, 2): -1.0}, FLOAT),))
    return EquationSpec(psi, COMPONENTWISE, COMPONENTWISE)


def closed_form(x):
    return (-1.0 + math.sqrt(1.0 + 4.0 * x)) / 2.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--x", type=float, default=0.2)
    parser.add_argument("--degree", type=int, default=12)
    args = parser.parse_args()
    if args.degree < 1:
        parser.error(f"--degree must be a positive integer, got {args.degree}")

    eq = build_equation(max(args.degree, 50))
    cmp_eq = majorant(eq)
    x = args.x
    try:
        trace = iterate_primal(eq, (x,), cmp_eq)
    except (DomainError, ValueError) as exc:
        parser.error(f"--x {x} lies outside the certified region: {exc}")

    sol = solve_formal(eq, args.degree)
    print(f"series solution to degree {args.degree}:")
    print(f"  y(x) = {sol.phi.components[0]}")
    print()

    print("comparison equation (coefficient moduli):")
    print(f"  Y = {cmp_eq.psi.components[0]}")
    print()

    y_true = closed_form(x)
    print(f"paired iteration at x = {x} (closed form y = {y_true:.12f}):")
    print(f"  {'p':>3} {'y(p)':>16} {'true error':>12} {'bound':>12}")
    shown = list(range(min(8, len(trace.iterates_y))))
    if len(trace.iterates_y) - 1 not in shown:
        shown.append(len(trace.iterates_y) - 1)
    for p in shown:
        y_p = trace.iterates_y[p][0]
        err = abs(y_true - y_p)
        bound = error_bound(trace, p).entries[0]
        print(f"  {p:>3} {y_p:>16.12f} {err:>12.3e} {bound:>12.3e}")
    print(f"  converged in {trace.steps} steps; every true error sits "
          f"under its bound")
    print()

    turn = hille_point(cmp_eq)
    print(f"turning point of the comparison graph: "
          f"X* = {turn.X_star:.12f}, Y* = {turn.Y_star:.12f} "
          f"[{turn.status}]")

    ray = radius_along_ray(cmp_eq, LatticeVec((1.0,)), tol=1e-6)
    est = empirical_radius(solve_formal(eq, 50))
    print(f"ray bisection bracket:    [{ray.t_inside:.8f}, "
          f"{ray.t_outside:.8f}]")
    print(f"coefficient ratio at n = {est.degree}: {est.estimate:.8f}")
    print(f"all three target the radius 0.25")


if __name__ == "__main__":
    main()
