"""Membership certificates and monotone fixed-point iteration on the
comparison equation.

By Hille's theorem X lies in the convergence region when ``Y = Psi(X, Y)``
has a least fixed point there.  ``_newton_certificate`` looks for a
witness ``Y~`` by float Newton from zero, on the comparison's cached float
kernels that ``hille`` reads too, and it counts only once
``certificate_check`` finds ``Y~ >= Psi(X, Y~)`` in exact arithmetic.
Proof sketch: Psi has non-negative coefficients and ``X >= 0``, so it is
nondecreasing in Y, and ``0 <= Y(p) <= Y~`` gives ``Y(p+1) = Psi(X, Y(p))
<= Psi(X, Y~) <= Y~``.  So every Kleene iterate from zero lies below
``Y~``; they increase, so they converge, to the least fixed point ``Y*``,
which is at most ``Y~``.  A checked ``Y~`` proves ``INSIDE`` and bounds
every tail: ``Y* - Y(p) <= Y~ - Y(p)``.  The Kleene iterates still run for
the trace and for the ``OUTSIDE`` verdict, on a divergence test; a step
that settles without a certificate proves nothing and is ``UNRESOLVED``.
Only a ``ComparisonEquation`` is taken; ``_point`` checks each point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite, nextafter
from operator import add, mul
from sys import float_info
from typing import IO, Sequence

from .errors import DomainError
from .lattice import (ComparisonEquation, EquationSpec, LatticeVec, check_comparison,
                      check_majorant_shape, norm)
from .series import EXACT, FLOAT, Number, _float, coerce_value, format_value, zero_value
from .solver import _invert

DEFAULT_TOL = 1e-12
DEFAULT_BUDGET = 10000
DIVERGENCE_THRESHOLD = 1e9
NEWTON_STEPS = 100  # float Newton steps tried before a certificate is checked
INFLATIONS = (1e-14, 1e-12, 1e-10)  # pushes along v, relative to max(1, max Y)

INSIDE = "inside"
OUTSIDE = "outside"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class IterationTrace:
    iterates_Y: tuple[LatticeVec, ...]
    iterates_y: tuple[tuple[Number, ...], ...] | None
    verdict: str
    error_bounds: tuple[LatticeVec, ...] | None

    @property
    def steps(self) -> int:
        return len(self.iterates_Y) - 1


@dataclass(frozen=True)
class Membership:
    verdict: str
    principal_Y: LatticeVec | None
    iterations_used: int
    witness: LatticeVec | None = None


def _point(cmp: ComparisonEquation, v, dim: int, name: str) -> tuple:
    """The entries of ``v``, a ``LatticeVec`` or a sequence, in the mode of
    the comparison ``cmp``, once it has ``dim`` entries, each non-negative
    and finite."""
    check_comparison(cmp)
    v = v if isinstance(v, LatticeVec) else LatticeVec(tuple(v))
    if v.dimension != dim:
        raise ValueError(f"{name} has dimension {v.dimension}, expected {dim}")
    if not all(0 <= e < inf for e in v.entries):
        raise ValueError(f"{name} must be entrywise non-negative and finite, got {v}")
    # in float mode an int beyond the float range is refused as what it is
    return tuple(coerce_value(_float(e, f"{name} entry") if cmp.mode == FLOAT
                              and type(e) is int else e, cmp.mode) for e in v.entries)


def check_tol(tol: float) -> None:
    """Refuse a NaN, negative or infinite tolerance: none gives an honest verdict."""
    if not 0 <= tol < inf:
        raise ValueError(f"tol must be a finite non-negative number, got {tol!r}")


def _start(cmp: ComparisonEquation, X, max_iter: int) -> tuple:
    """The checked point ``X``, once the budget is legal."""
    x = _point(cmp, X, cmp.dim_x, "X")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    return x


def _newton_certificate(cmp: ComparisonEquation, x: tuple) -> tuple | None:
    """``(Y~, steps)`` with ``Y~ >= Psi(x, Y~)`` checked exactly at the
    checked point ``x``, or None.

    Float Newton from 0 (Etessami and Yannakakis, JACM 2009): each step
    solves ``(I - J) d = Psi(x, Y) - Y``, ``J`` the Jacobian in Y, until no
    entry rises.  Below the least fixed point ``I - J`` is a nonsingular
    M-matrix, so ``v = (I - J)^-1 * 1 >= 1``, and to first order
    ``Psi(x, Y + e v) = Y + e v + (Psi(x, Y) - Y) - e``: pushed along ``v``
    by ``e = eps * max(1, max Y)``, for an ``eps`` of ``INFLATIONS``, a
    float fixed point becomes a pre-fixed point.  Only the exact check
    decides, so a singular or non-finite step just gives None.
    """
    try:
        values, jacobian = cmp._float_kernels
        xf = tuple(map(float, x))
    except (ValueError, OverflowError):  # beyond the float range
        return None
    Y = (0.0,) * cmp.dim_y
    for steps in range(1, NEWTON_STEPS + 1):
        z = xf + Y
        r = [run(z, leaves, 0.0) - y for (run, leaves), y in zip(values, Y)]
        try:
            inverse = _invert([[(i == j) - run(z, leaves, 0.0)
                                for j, (run, leaves) in enumerate(row)]
                               for i, row in enumerate(jacobian)], FLOAT)
        except DomainError:
            return None
        d = [sum(map(mul, row, r)) for row in inverse]
        Y_next = tuple(map(add, Y, d))
        if not max(d) > 0 or Y_next == Y:
            break
        Y = Y_next
    # never push down: Y = 4XY stops at its fixed point 0, where J = 4X may exceed 1
    v = [max(sum(row), 0.0) for row in inverse]
    scale = max(1.0, *Y)
    for eps in INFLATIONS:
        Y_tilde = tuple(y + eps * scale * w for y, w in zip(Y, v))
        if not all(0 <= e < inf for e in Y_tilde):
            return None
        if cmp.mode == EXACT:
            Y_tilde = tuple(map(Fraction, Y_tilde))
        if certificate_check(cmp, x, Y_tilde):
            return Y_tilde, steps
    return None


def _kleene(cmp: ComparisonEquation, x: tuple, max_iter: int, tol: float,
            keep: bool) -> tuple[list, int, str]:
    """Kleene iteration from 0 at the checked point ``x`` on plain tuples:
    ``(iterates, steps, verdict)``, with ``iterates`` every ``Y(p)`` if
    ``keep``, else the last whose entries are all finite.  A step that
    settles stops it but proves nothing, so the verdict is ``OUTSIDE`` or
    ``UNRESOLVED``.  Each step calls the kernels of ``Psi`` on ``x + Y``; a
    non-finite float iterate raises when the next step reads it, as
    evaluating there would."""
    exact = cmp.mode == EXACT
    tol_v = Fraction(tol) if exact else float(tol)
    zero = zero_value(cmp.mode)
    kernels = [comp._plan for comp in cmp.psi.components]
    Y = (zero,) * cmp.dim_y
    iterates = [Y]
    verdict = UNRESOLVED
    prev_step = bad = None
    for steps in range(1, max_iter + 1):
        if bad is not None:
            raise ValueError(f"float coefficients must be finite, got {bad!r}")
        point = x + Y
        Y_next = tuple([run(point, leaves, zero) for run, leaves in kernels])
        step, settled = None, True
        for a, b in zip(Y, Y_next):
            if not (exact or bad is not None or isfinite(b)):
                bad = b
            d = b - a
            if step is None or d > step:
                step = d
            settled = settled and abs(d) <= tol_v
        last, Y = Y, Y_next
        if keep:
            iterates.append(Y)
        if settled:
            break
        if (prev_step is not None and step >= prev_step
                and any(e > DIVERGENCE_THRESHOLD for e in Y)):
            verdict = OUTSIDE
            break
        prev_step = step
    return (iterates if keep else [Y if bad is None else last]), steps, verdict


def iterate_comparison(cmp: ComparisonEquation, X: LatticeVec,
                       max_iter: int = DEFAULT_BUDGET,
                       tol: float = DEFAULT_TOL) -> IterationTrace:
    """Run the comparison iteration at the point ``X``.

    The trace keeps every Kleene iterate from zero, up to ``max_iter`` of
    them or until no entry moves by more than ``tol``.  It is ``INSIDE``
    when a pre-fixed point ``Y~ >= Psi(X, Y~)`` is checked exactly: that
    ``Y~`` bounds every Kleene iterate, so the least fixed point ``Y*``
    exists and is at most ``Y~``, and the error bounds ``Y~ - Y(p)`` cover
    the whole tail ``Y* - Y(p)``, however early the trace stops.  Else it
    is ``OUTSIDE`` once an entry passes the threshold while the steps stop
    shrinking, which a converging monotone sequence never does for long,
    and ``UNRESOLVED`` otherwise.
    """
    x = _start(cmp, X, max_iter)
    check_tol(tol)
    certified = _newton_certificate(cmp, x)
    found, _, verdict = _kleene(cmp, x, max_iter, tol, keep=True)
    error_bounds = None
    if certified is not None:
        verdict, (Y_tilde, _) = INSIDE, certified
        error_bounds = tuple(
            LatticeVec(tuple(t - e for t, e in zip(Y_tilde, Y))) for Y in found)
    return IterationTrace(
        iterates_Y=tuple(map(LatticeVec, found)), iterates_y=None,
        verdict=verdict, error_bounds=error_bounds)


def iterate_primal(eq: EquationSpec, x: Sequence[Number], cmp: ComparisonEquation,
                   max_iter: int = DEFAULT_BUDGET,
                   tol: float = DEFAULT_TOL) -> IterationTrace:
    """Primal iteration paired with its comparison run.

    The comparison is run at ``X = norm(x)``; its certificate ``Y~`` is the
    certificate here, so a diverged or uncertified comparison run raises.
    The primal iterates are then produced in lockstep and the trace carries
    the comparison's bounds ``Y~ - Y(p)``, which dominate ``|y* - y(p)|``
    for the exact primal iterates.
    """
    check_majorant_shape(eq, cmp)
    x = tuple(x.entries) if isinstance(x, LatticeVec) else tuple(x)
    if len(x) != eq.dim_x:
        raise ValueError(f"x has {len(x)} entries, expected {eq.dim_x}")
    if not all(abs(e) < inf for e in x):
        raise ValueError(f"x must be finite, got {x}")
    comp = iterate_comparison(cmp, norm(eq.profile_x, x), max_iter, tol)
    if comp.verdict != INSIDE:
        why = ("diverged at this point" if comp.verdict == OUTSIDE
               else "found no certificate")
        raise DomainError(f"the comparison iteration {why}; "
                          "no convergence certificate is available")
    zero = zero_value(eq.mode)
    y: tuple[Number, ...] = (zero,) * eq.dim_y
    ys = [y]
    for _ in range(comp.steps):
        y = eq.psi.evaluate(x + y)
        ys.append(y)
    return IterationTrace(
        iterates_Y=comp.iterates_Y, iterates_y=tuple(ys), verdict=INSIDE,
        error_bounds=comp.error_bounds)


def _float_below(e: Number) -> float:
    """The largest float at most ``e >= 0``."""
    f = float(min(e, float_info.max))
    return f if f <= e else nextafter(f, 0.0)


def membership(cmp: ComparisonEquation, X: LatticeVec,
               budget: int = DEFAULT_BUDGET) -> Membership:
    """Classify ``X`` against the convergence region of the comparison equation.

    ``INSIDE`` means a pre-fixed point ``Y~ >= Psi(X, Y~)`` was checked
    exactly: it bounds every Kleene iterate, so the least fixed point
    exists and is at most ``Y~``.  ``principal_Y`` is that ``Y~`` and
    ``iterations_used`` counts the Newton steps.  Without a certificate
    the iteration of :func:`iterate_comparison` runs ``budget`` steps at
    ``DEFAULT_TOL`` on the float twin, at ``X`` rounded down to floats: Psi
    is nondecreasing in X, so no fixed point there means none at ``X``.
    ``OUTSIDE`` keeps its last iterate whose entries are all finite as the
    witness, in exact mode as the exact images of those entries.
    """
    x = _start(cmp, X, budget)
    certified = _newton_certificate(cmp, x)
    if certified is not None:
        return Membership(INSIDE, LatticeVec(certified[0]), certified[1])
    below = tuple(map(_float_below, x))
    (Y,), used, verdict = _kleene(cmp.as_float(), below, budget, DEFAULT_TOL, keep=False)
    if cmp.mode == EXACT:
        Y = tuple(map(Fraction, Y))
    return Membership(verdict, None, used,
                      witness=LatticeVec(Y) if verdict == OUTSIDE else None)


def certificate_check(cmp: ComparisonEquation, X: LatticeVec,
                      Y_tilde: LatticeVec) -> bool:
    """Does ``Y_tilde`` witness convergence, i.e. ``Y_tilde >= Psi(X, Y_tilde)``?
    Decided exactly in both modes: the kernels of ``Psi`` run on ``Fraction``
    images of the point and the coefficients, which hold any float exactly."""
    x = _point(cmp, X, cmp.dim_x, "X")
    y = tuple(map(Fraction, _point(cmp, Y_tilde, cmp.dim_y, "Y_tilde")))
    point = tuple(map(Fraction, x)) + y
    return all(run(point, tuple(map(Fraction, leaves)), Fraction(0)) <= e
               for (run, leaves), e in zip((c._plan for c in cmp.psi.components), y))


def error_bound(trace: IterationTrace, p: int) -> LatticeVec:
    """The certified gap ``Y~ - Y(p)``, an upper bound on the primal error."""
    if trace.verdict != INSIDE:
        raise DomainError("error bounds exist only for converged traces")
    if not 0 <= p < len(trace.error_bounds):
        raise ValueError(
            f"iterate index {p} out of range [0, {len(trace.error_bounds) - 1}]")
    return trace.error_bounds[p]


def _fmt(value: Number) -> str:
    return format_value(value, EXACT if isinstance(value, Fraction) else FLOAT)


def trace_to_csv(trace: IterationTrace, stream: IO[str]) -> None:
    """Write the iterates, bounds, and step gaps as CSV rows."""
    dim = trace.iterates_Y[0].dimension
    header = ["p"] + [f"Y{i}" for i in range(dim)]
    primal = trace.iterates_y
    if primal is not None:
        header += [f"y{i}" for i in range(len(primal[0]))]
    header += [f"bound{i}" for i in range(dim)]
    header += [f"delta{i}" for i in range(dim)]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for p, Y in enumerate(trace.iterates_Y):
        row = [str(p)] + [_fmt(e) for e in Y.entries]
        if primal is not None:
            row += [_fmt(e) for e in primal[p]]
        if trace.error_bounds is not None:
            row += [_fmt(e) for e in trace.error_bounds[p].entries]
        else:
            row += [""] * dim
        prev = trace.iterates_Y[max(p - 1, 0)]
        row += [_fmt(a - b) for a, b in zip(Y.entries, prev.entries)]
        writer.writerow(row)
