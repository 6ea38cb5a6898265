"""Command-line front end.

Verbs map one-to-one onto the library operations.  Every verb takes
``--spec`` and ``--out`` from one parent parser; ``main`` reads the equation
file (see ``equation_to_dict`` for the format) and hands the equation to the
verb, which returns CSV text or a JSON document, which ``main`` writes once,
to stdout or ``--out``, after the verb succeeds.  A negative point needs no
``=``: ``main`` joins a value such as ``-1/10`` to its ``--X``, ``--x`` or
``--direction``.  ``hille``, ``membership``, ``radius`` and ``check`` print
every field of their result record, a ``collections.namedtuple``, in
declaration order (see ``_doc``).  Nothing the CLI imports loads
``dataclasses`` or ``inspect``, whose import cost a verb more than its own
work on small inputs, and ``csv`` loads only in a verb that writes CSV.
Exit codes are 0 on success, 1 on domain errors, a float solve that
overflows among them, and 2 on usage or file-format errors, an ``--out``
that cannot be written among them, refused before the verb runs.
Output is deterministic: identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import re
import sys
from fractions import Fraction

from .errors import DomainError, SpecFormatError
from .hille import hille_point, radius_along_ray, region_to_csv, trace_graph
from .kantorovich import (DEFAULT_BUDGET, DEFAULT_TOL, iterate_comparison,
                          iterate_primal, membership, trace_to_csv)
from .lattice import (ComparisonEquation, EquationSpec, LatticeVec,
                      check_majorant_samples, equation_from_dict,
                      equation_to_dict, majorant)
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
        return ComparisonEquation(eq.psi)
    except ValueError as exc:
        raise SpecFormatError(
            f"{exc}; run the majorant verb first to build a comparison "
            f"equation") from None


def _parse_vector(text: str, mode: str, what: str) -> LatticeVec:
    parts = [p.strip() for p in text.split(",")]
    try:
        return LatticeVec(tuple(parse_value(p, mode) for p in parts))
    except ValueError as exc:
        raise SpecFormatError(f"bad {what} {text!r}: {exc}") from None


def _doc(value):
    """The JSON value of a verb's result.

    A record, a ``collections.namedtuple``, becomes an object of its
    ``_fields`` in declaration order, a vector or any other tuple a list,
    and an exact number its rational string; a document already built as a
    dict passes through unchanged.
    """
    if isinstance(value, LatticeVec):
        return [_doc(e) for e in value.entries]
    if hasattr(value, "_fields"):
        return {name: _doc(getattr(value, name)) for name in value._fields}
    if isinstance(value, tuple):
        return [_doc(e) for e in value]
    if isinstance(value, Fraction):
        return format_value(value, EXACT)
    return value


def _cmd_solve(eq, args):
    if args.method == ITERATIVE:
        sol = solve_formal(eq, args.degree)
    else:
        sol = solve_partition_oracle(eq, args.degree)
    return {
        "source": sol.source,
        "degree_cap": sol.degree_cap,
        "num_vars": sol.phi.num_vars,
        "mode": sol.phi.mode,
        "components": [comp.to_records() for comp in sol.phi.components],
    }


def _cmd_majorant(eq, args):
    return equation_to_dict(majorant(eq))


def _cmd_hille(eq, args):
    return hille_point(_comparison(eq))


def _cmd_iterate(eq, args):
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
    return buffer.getvalue()


def _cmd_membership(eq, args):
    cmp = _comparison(eq)
    X = _parse_vector(args.X, eq.mode, "--X")
    return membership(cmp, X, args.budget)


def _cmd_region(eq, args):
    cmp = _comparison(eq)
    sample = trace_graph(cmp, args.ymax, args.steps)
    buffer = io.StringIO()
    region_to_csv(sample, buffer)
    return buffer.getvalue()


def _cmd_check(eq, args):
    cmp = majorant(eq)
    half = args.box
    if not math.isfinite(half):
        raise SpecFormatError(f"--box must be finite, got {half!r}")
    dim = eq.dim_x + eq.dim_y
    h = Fraction(repr(half)) if eq.mode == EXACT else half
    return check_majorant_samples(
        eq, cmp, args.samples, (LatticeVec((-h,) * dim), LatticeVec((h,) * dim)),
        check_increments=True, rng=random.Random(args.seed))


def _cmd_radius(eq, args):
    cmp = _comparison(eq)
    direction = _parse_vector(args.direction, "float", "--direction")
    return radius_along_ray(cmp, direction, tol=args.tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impsolve",
        description="Series solutions of implicit equations with certified "
                    "convergence regions.")
    sub = parser.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True, help="equation file (JSON)")
    common.add_argument("--out", help="write the output document here instead of stdout")

    p = sub.add_parser("solve", parents=[common], help="formal solution series")
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE)
    p.add_argument("--method", choices=[ITERATIVE, PARTITION_ORACLE],
                   default=ITERATIVE)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("majorant", parents=[common], help="dominating comparison equation")
    p.set_defaults(func=_cmd_majorant)

    p = sub.add_parser("hille", parents=[common], help="turning point of the comparison graph")
    p.set_defaults(func=_cmd_hille)

    p = sub.add_parser("iterate", parents=[common], help="fixed-point iteration trace (CSV)")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--X", help="comparison point, comma-separated")
    grp.add_argument("--x", help="primal point, comma-separated (paired run)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("membership", parents=[common], help="classify a point against the region")
    p.add_argument("--X", required=True, help="comparison point, comma-separated")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("region", parents=[common], help="trace the comparison graph (CSV)")
    p.add_argument("--ymax", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1000)
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("check", parents=[common], help="sampled majorant domination check")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--box", type=float, default=0.1,
                   help="half-width of the sampling box")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("radius", parents=[common], help="convergence radius along a ray")
    p.add_argument("--direction", required=True,
                   help="ray direction, comma-separated, non-negative")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_radius)

    return parser


def _join_negative_points(argv: list[str]) -> list[str]:
    """*argv* with each point that starts with a minus sign and a digit or a
    point joined to its option, as ``--x=-1/10``: argparse takes a value such
    as ``-1/10``, ``-1e-1`` or ``-0.1,0.2`` for an option of its own."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--X", "--x", "--direction") and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_points(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.out and (os.path.isdir(args.out) or not os.access(
                os.path.dirname(os.path.abspath(args.out)), os.W_OK)):
            raise SpecFormatError(f"cannot write {args.out}")
        result = args.func(parse_spec(args.spec), args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = result if isinstance(result, str) \
        else json.dumps(_doc(result), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
