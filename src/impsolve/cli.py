"""Command-line front end.

Verbs map one-to-one onto the library operations; every verb reads an
equation file (see ``equation_to_dict`` for the format), writes a JSON or
CSV document to stdout or ``--out``, and exits 0 on success, 1 on domain
errors, and 2 on usage or file-format errors.  Output is deterministic:
identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from fractions import Fraction

from .errors import DomainError, SpecFormatError
from .hille import hille_point, radius_along_ray, region_to_csv, trace_graph
from .kantorovich import (DEFAULT_BUDGET, DEFAULT_TOL, iterate_comparison,
                          iterate_primal, membership, trace_to_csv)
from .lattice import (ComparisonEquation, EquationSpec, LatticeVec,
                      check_majorant_samples, comparison_from_spec,
                      comparison_to_dict, equation_from_dict, majorant)
from .series import EXACT, format_value, parse_value
from .solver import (ITERATIVE, PARTITION_ORACLE, solve_formal,
                     solve_partition_oracle)

DEFAULT_DEGREE = 10


def parse_spec(path: str) -> EquationSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return equation_from_dict(data)


def _comparison(eq: EquationSpec) -> ComparisonEquation:
    try:
        return comparison_from_spec(eq)
    except SpecFormatError as exc:
        raise SpecFormatError(
            f"{exc}; run the majorant verb first to build a comparison "
            f"equation") from None


def _parse_vector(text: str, mode: str, what: str) -> LatticeVec:
    parts = [p.strip() for p in text.split(",")]
    try:
        return LatticeVec(tuple(parse_value(p, mode) for p in parts))
    except ValueError as exc:
        raise SpecFormatError(f"bad {what} {text!r}: {exc}") from None


def _num(value):
    if isinstance(value, Fraction):
        return format_value(value, EXACT)
    return value


def _vec_doc(vec):
    if vec is None:
        return None
    return [_num(e) for e in vec.entries]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _cmd_solve(args) -> int:
    eq = parse_spec(args.spec)
    if args.method == ITERATIVE:
        sol = solve_formal(eq, args.degree)
    else:
        sol = solve_partition_oracle(eq, args.degree)
    doc = {
        "source": sol.source,
        "degree_cap": sol.degree_cap,
        "num_vars": sol.phi.num_vars,
        "mode": sol.phi.mode,
        "components": [comp.to_records() for comp in sol.phi.components],
    }
    _emit(_json_doc(doc), args.out)
    return 0


def _cmd_majorant(args) -> int:
    eq = parse_spec(args.spec)
    cmp = majorant(eq)
    _emit(_json_doc(comparison_to_dict(cmp)), args.out)
    return 0


def _cmd_hille(args) -> int:
    cmp = _comparison(parse_spec(args.spec))
    point = hille_point(cmp, tol=args.tol)
    doc = {
        "X_star": point.X_star,
        "Y_star": point.Y_star,
        "residual_fixed": point.residual_fixed,
        "residual_derivative": point.residual_derivative,
        "status": point.status,
    }
    _emit(_json_doc(doc), args.out)
    return 0


def _cmd_iterate(args) -> int:
    eq = parse_spec(args.spec)
    if args.x is not None:
        x = _parse_vector(args.x, eq.mode, "--x")
        cmp = majorant(eq)
        trace = iterate_primal(eq, x.entries, cmp, args.max_iter, args.tol)
    else:
        cmp = _comparison(eq)
        X = _parse_vector(args.X, eq.mode, "--X")
        trace = iterate_comparison(cmp, X, args.max_iter, args.tol)
    buffer = io.StringIO()
    trace_to_csv(trace, buffer)
    _emit(buffer.getvalue(), args.out)
    return 0


def _cmd_membership(args) -> int:
    eq = parse_spec(args.spec)
    cmp = _comparison(eq)
    X = _parse_vector(args.X, eq.mode, "--X")
    result = membership(cmp, X, args.budget, args.tol)
    doc = {
        "verdict": result.verdict,
        "principal_Y": _vec_doc(result.principal_Y),
        "iterations_used": result.iterations_used,
        "witness": _vec_doc(result.witness),
    }
    _emit(_json_doc(doc), args.out)
    return 0


def _cmd_region(args) -> int:
    cmp = _comparison(parse_spec(args.spec))
    sample = trace_graph(cmp, args.ymax, args.steps)
    buffer = io.StringIO()
    region_to_csv(sample, buffer)
    _emit(buffer.getvalue(), args.out)
    return 0


def _cmd_check(args) -> int:
    eq = parse_spec(args.spec)
    cmp = majorant(eq)
    half = args.box
    dim = eq.dim_x + eq.dim_y
    if eq.mode == EXACT:
        h = Fraction(half).limit_denominator(10**6)
        lo = LatticeVec((-h,) * dim)
        hi = LatticeVec((h,) * dim)
    else:
        lo = LatticeVec((-half,) * dim)
        hi = LatticeVec((half,) * dim)
    report = check_majorant_samples(
        eq, cmp, args.samples, (lo, hi), check_increments=True,
        rng=random.Random(args.seed))
    doc = {
        "points_checked": report.points_checked,
        "increments_checked": report.increments_checked,
        "violations": [
            {
                "kind": v.kind,
                "component": v.component,
                "point": [_num(e) for e in v.point],
                "increment": None if v.increment is None
                             else [_num(e) for e in v.increment],
                "lhs": _num(v.lhs),
                "rhs": _num(v.rhs),
            }
            for v in report.violations
        ],
    }
    _emit(_json_doc(doc), args.out)
    return 0


def _cmd_radius(args) -> int:
    cmp = _comparison(parse_spec(args.spec))
    direction = _parse_vector(args.direction, "float", "--direction")
    result = radius_along_ray(cmp, direction, tol=args.tol, budget=args.budget)
    doc = {
        "t_inside": result.t_inside,
        "t_outside": result.t_outside,
        "unbounded": result.unbounded,
    }
    _emit(_json_doc(doc), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impsolve",
        description="Series solutions of implicit equations with certified "
                    "convergence regions.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="equation file (JSON)")
        p.add_argument("--out", help="write the output document here instead of stdout")

    p = sub.add_parser("solve", help="formal solution series")
    common(p)
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    p.add_argument("--method", choices=[ITERATIVE, PARTITION_ORACLE],
                   default=ITERATIVE)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("majorant", help="dominating comparison equation")
    common(p)
    p.set_defaults(func=_cmd_majorant)

    p = sub.add_parser("hille", help="turning point of the comparison graph")
    common(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_hille)

    p = sub.add_parser("iterate", help="fixed-point iteration trace (CSV)")
    common(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--X", help="comparison point, comma-separated")
    grp.add_argument("--x", help="primal point, comma-separated (paired run)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("membership", help="classify a point against the region")
    common(p)
    p.add_argument("--X", required=True, help="comparison point, comma-separated")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("region", help="trace the comparison graph (CSV)")
    common(p)
    p.add_argument("--ymax", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("check", help="sampled majorant domination check")
    common(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=float, default=0.1,
                   help="half-width of the sampling box")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("radius", help="convergence radius along a ray")
    common(p)
    p.add_argument("--direction", required=True,
                   help="ray direction, comma-separated, non-negative")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_radius)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
