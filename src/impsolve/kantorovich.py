"""Monotone fixed-point iteration on the comparison equation.

The comparison iterates ``Y(p+1) = Psi(X, Y(p))`` started from zero form
a nondecreasing sequence.  When it settles, its limit is the smallest
fixed point at the given X, and the step gaps translate into a-posteriori
error bounds for the primal iteration run alongside it.  ``membership``
runs the same iteration but keeps only its last iterate.  The loop alone
decides the verdict, ``INSIDE``, ``OUTSIDE`` or ``UNRESOLVED``, and every
caller reads it; ``_point`` checks each comparison point on its way in.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import inf, isfinite
from typing import IO, Sequence

from .errors import DomainError, MonotonicityError
from .lattice import ComparisonEquation, EquationSpec, LatticeVec, norm
from .series import EXACT, FLOAT, Number, coerce_value, format_value, zero_value

DEFAULT_TOL = 1e-12
DEFAULT_BUDGET = 10000
DIVERGENCE_THRESHOLD = 1e9

INSIDE = "inside"
OUTSIDE = "outside"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class IterationTrace:
    iterates_Y: tuple[LatticeVec, ...]
    iterates_y: tuple[tuple[Number, ...], ...] | None
    verdict: str
    residual_norm: Number | None
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
    ``cmp``, once it has ``dim`` entries and none of them is negative."""
    v = v if isinstance(v, LatticeVec) else LatticeVec(tuple(v))
    if v.dimension != dim:
        raise ValueError(f"{name} has dimension {v.dimension}, expected {dim}")
    if any(e < 0 for e in v.entries):
        raise ValueError(f"{name} must be entrywise non-negative, got {v}")
    return tuple(coerce_value(e, cmp.mode) for e in v.entries)


def check_tol(tol: float) -> None:
    """Refuse a NaN, negative or infinite tolerance: none gives an honest verdict."""
    if not 0 <= tol < inf:
        raise ValueError(f"tol must be a finite non-negative number, got {tol!r}")


def _kleene(cmp: ComparisonEquation, X, max_iter: int, tol: float,
            keep: bool) -> tuple[tuple, list, int, str]:
    """Kleene iteration from 0 on plain tuples: ``(x, iterates, steps,
    verdict)``, with ``x`` the checked point, ``iterates`` every ``Y(p)`` if
    ``keep``, else the last, and the verdict set where the loop stops.  Each
    step calls the kernels of ``Psi`` on ``x + Y``; a non-finite float
    iterate raises when the next step reads it, as evaluating there would."""
    x = _point(cmp, X, cmp.dim_x, "X")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    check_tol(tol)
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
            if b < (a if exact else a - (1e-12 + 1e-15 * abs(a))):
                raise MonotonicityError(
                    f"comparison iterate decreased from {a} to {b}")
            if not (exact or bad is not None or isfinite(b)):
                bad = b
            d = b - a
            if step is None or d > step:
                step = d
            settled = settled and abs(d) <= tol_v
        Y = Y_next
        if keep:
            iterates.append(Y)
        if settled:
            verdict = INSIDE
            break
        if (prev_step is not None and step >= prev_step
                and any(e > DIVERGENCE_THRESHOLD for e in Y)):
            verdict = OUTSIDE
            break
        prev_step = step
    return x, (iterates if keep else [Y]), steps, verdict


def iterate_comparison(cmp: ComparisonEquation, X: LatticeVec,
                       max_iter: int = DEFAULT_BUDGET,
                       tol: float = DEFAULT_TOL) -> IterationTrace:
    """Run the comparison iteration at the point ``X``.

    The trace's verdict is ``INSIDE`` once every entry moves by at most
    ``tol`` in one step, ``OUTSIDE`` on divergence, and ``UNRESOLVED`` when
    the budget runs out.  Divergence needs two signs at once: an entry
    beyond the threshold and a step that stopped shrinking.  A monotone sequence either converges or its steps stop
    shrinking eventually, so the pair is a sound proxy; the size test alone
    would misread a large fixed point reached in a few steps.  Monotonicity
    is asserted along the way; a violation beyond float rounding slack
    raises, since it can only mean the input was not of positive type.
    The trace keeps every iterate, with error bounds when inside.
    """
    x, found, _, verdict = _kleene(cmp, X, max_iter, tol, keep=True)
    error_bounds = residual_norm = None
    if verdict == INSIDE:
        final = found[-1]
        zero = zero_value(cmp.mode)
        error_bounds = tuple(
            LatticeVec(tuple(max(zero, f - e) for f, e in zip(final, Y)))
            for Y in found)
        res = cmp.psi.evaluate(x + final)
        residual_norm = max(abs(r - f) for r, f in zip(res, final))
    return IterationTrace(
        iterates_Y=tuple(map(LatticeVec, found)), iterates_y=None,
        verdict=verdict, residual_norm=residual_norm, error_bounds=error_bounds)


def iterate_primal(eq: EquationSpec, x: Sequence[Number], cmp: ComparisonEquation,
                   max_iter: int = DEFAULT_BUDGET,
                   tol: float = DEFAULT_TOL) -> IterationTrace:
    """Primal iteration paired with its comparison run.

    The comparison is run at ``X = norm(x)``; its convergence is the
    certificate, so a diverged or unfinished comparison run raises.  The
    primal iterates are then produced in lockstep and the trace carries
    the comparison gaps as error bounds valid for the primal sequence.
    """
    x = tuple(x.entries) if isinstance(x, LatticeVec) else tuple(x)
    if len(x) != eq.dim_x:
        raise ValueError(f"x has {len(x)} entries, expected {eq.dim_x}")
    comp = iterate_comparison(cmp, norm(eq.profile_x, x), max_iter, tol)
    if comp.verdict != INSIDE:
        why = ("diverged at this point" if comp.verdict == OUTSIDE
               else "exhausted its budget")
        raise DomainError(f"the comparison iteration {why}; "
                          "no convergence certificate is available")
    zero = zero_value(eq.mode)
    y: tuple[Number, ...] = (zero,) * eq.dim_y
    ys = [y]
    for _ in range(comp.steps):
        y = eq.psi.evaluate(x + y)
        ys.append(y)
    res = eq.psi.evaluate(x + y)
    residual_norm = max(abs(r - f) for r, f in zip(res, y))
    return IterationTrace(
        iterates_Y=comp.iterates_Y, iterates_y=tuple(ys), verdict=INSIDE,
        residual_norm=residual_norm, error_bounds=comp.error_bounds)


def membership(cmp: ComparisonEquation, X: LatticeVec,
               budget: int = DEFAULT_BUDGET, tol: float = DEFAULT_TOL) -> Membership:
    """Classify ``X`` against the convergence region of the comparison equation.

    The iteration of :func:`iterate_comparison`, keeping only its last iterate.
    """
    _, (Y,), used, verdict = _kleene(cmp, X, budget, tol, keep=False)
    return Membership(verdict, LatticeVec(Y) if verdict == INSIDE else None, used,
                      witness=LatticeVec(Y) if verdict == OUTSIDE else None)


def certificate_check(cmp: ComparisonEquation, X: LatticeVec,
                      Y_tilde: LatticeVec) -> bool:
    """Does ``Y_tilde`` witness convergence, i.e. ``Y_tilde >= Psi(X, Y_tilde)``?"""
    x = _point(cmp, X, cmp.dim_x, "X")
    y = _point(cmp, Y_tilde, cmp.dim_y, "Y_tilde")
    return all(v <= e for v, e in zip(cmp.psi.evaluate(x + y), y))


def error_bound(trace: IterationTrace, p: int) -> LatticeVec:
    """The certified gap ``Y_final - Y(p)``, an upper bound on the primal error."""
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
    zero_row = trace.iterates_Y[0]
    for p, Y in enumerate(trace.iterates_Y):
        row = [str(p)] + [_fmt(e) for e in Y.entries]
        if primal is not None:
            row += [_fmt(e) for e in primal[p]]
        if trace.error_bounds is not None:
            row += [_fmt(e) for e in trace.error_bounds[p].entries]
        else:
            row += [""] * dim
        if p == 0:
            row += [_fmt(e) for e in zero_row.entries]
        else:
            prev = trace.iterates_Y[p - 1]
            row += [_fmt(a - b) for a, b in zip(Y.entries, prev.entries)]
        writer.writerow(row)
