"""Monotone fixed-point iteration on the comparison equation.

The comparison iterates ``Y(p+1) = Psi(X, Y(p))`` started from zero form
a nondecreasing sequence.  When it settles, its limit is the smallest
fixed point at the given X, and the step gaps translate into a-posteriori
error bounds for the primal iteration run alongside it.  ``membership``
runs the same iteration but keeps only its last iterate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
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
    converged: bool
    diverged: bool
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


def _require_nonneg(v: LatticeVec, name: str) -> None:
    if any(e < 0 for e in v.entries):
        raise ValueError(f"{name} must be entrywise non-negative, got {v}")


def check_tol(tol: float) -> None:
    """Refuse a NaN or negative tolerance, which no loop can meet honestly."""
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")


def _kleene(cmp: ComparisonEquation, X, max_iter: int, tol: float,
            keep: bool) -> tuple[tuple, list, int, bool, bool]:
    """Kleene iteration from 0 on plain tuples: ``(x, iterates, steps,
    converged, diverged)``, with ``x`` the checked point and ``iterates``
    every ``Y(p)`` if ``keep``, else the last.  Each step calls the kernels of
    ``Psi`` on ``x + Y``; a non-finite float iterate raises when the next
    step reads it, as evaluating there would."""
    if not isinstance(X, LatticeVec):
        X = LatticeVec(tuple(X))
    if X.dimension != cmp.dim_x:
        raise ValueError(f"X has dimension {X.dimension}, expected {cmp.dim_x}")
    _require_nonneg(X, "X")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    check_tol(tol)
    exact = cmp.mode == EXACT
    x = tuple(coerce_value(e, cmp.mode) for e in X.entries)
    tol_v = Fraction(tol) if exact else float(tol)
    zero = zero_value(cmp.mode)
    kernels = [comp._plan for comp in cmp.psi.components]
    Y = (zero,) * cmp.dim_y
    iterates = [Y]
    converged = diverged = False
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
            converged = True
            break
        if (prev_step is not None and step >= prev_step
                and any(e > DIVERGENCE_THRESHOLD for e in Y)):
            diverged = True
            break
        prev_step = step
    return x, (iterates if keep else [Y]), steps, converged, diverged


def iterate_comparison(cmp: ComparisonEquation, X: LatticeVec,
                       max_iter: int = DEFAULT_BUDGET,
                       tol: float = DEFAULT_TOL) -> IterationTrace:
    """Run the comparison iteration at the point ``X``.

    Stops on entrywise step size at most ``tol`` (converged), on divergence,
    or when the budget runs out (neither flag set).  Divergence needs two
    signs at once: an entry beyond the threshold and a step that stopped
    shrinking.  A monotone sequence either converges or its steps stop
    shrinking eventually, so the pair is a sound proxy; the size test alone
    would misread a large fixed point reached in a few steps.  Monotonicity
    is asserted along the way; a violation beyond float rounding slack
    raises, since it can only mean the input was not of positive type.
    The trace keeps every iterate, with error bounds once converged.
    """
    x, found, _, converged, diverged = _kleene(cmp, X, max_iter, tol, keep=True)
    error_bounds = residual_norm = None
    if converged:
        final = found[-1]
        zero = zero_value(cmp.mode)
        error_bounds = tuple(
            LatticeVec(tuple(max(zero, f - e) for f, e in zip(final, Y)))
            for Y in found)
        res = cmp.psi.evaluate(x + final)
        residual_norm = max(abs(r - f) for r, f in zip(res, final))
    return IterationTrace(
        iterates_Y=tuple(map(LatticeVec, found)), iterates_y=None,
        converged=converged, diverged=diverged,
        residual_norm=residual_norm, error_bounds=error_bounds)


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
    X = norm(eq.profile_x, x)
    if X.dimension != cmp.dim_x:
        raise ValueError(
            "the equation's x norm profile does not match the comparison equation")
    comp = iterate_comparison(cmp, X, max_iter, tol)
    if comp.diverged:
        raise DomainError(
            "the comparison iteration diverged at this point; "
            "no convergence certificate is available")
    if not comp.converged:
        raise DomainError(
            "the comparison iteration exhausted its budget; "
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
        iterates_Y=comp.iterates_Y, iterates_y=tuple(ys),
        converged=True, diverged=False,
        residual_norm=residual_norm, error_bounds=comp.error_bounds)


def membership(cmp: ComparisonEquation, X: LatticeVec,
               budget: int = DEFAULT_BUDGET, tol: float = DEFAULT_TOL) -> Membership:
    """Classify ``X`` against the convergence region of the comparison equation.

    The iteration of :func:`iterate_comparison`, keeping only its last iterate.
    """
    _, last, used, converged, diverged = _kleene(cmp, X, budget, tol, keep=False)
    if converged:
        return Membership(INSIDE, LatticeVec(last[-1]), used)
    if diverged:
        return Membership(OUTSIDE, None, used, witness=LatticeVec(last[-1]))
    return Membership(UNRESOLVED, None, used)


def certificate_check(cmp: ComparisonEquation, X: LatticeVec,
                      Y_tilde: LatticeVec) -> bool:
    """Does ``Y_tilde`` witness convergence, i.e. ``Y_tilde >= Psi(X, Y_tilde)``?"""
    if not isinstance(X, LatticeVec):
        X = LatticeVec(tuple(X))
    if not isinstance(Y_tilde, LatticeVec):
        Y_tilde = LatticeVec(tuple(Y_tilde))
    _require_nonneg(X, "X")
    _require_nonneg(Y_tilde, "Y_tilde")
    value = cmp.psi.evaluate(X.entries + Y_tilde.entries)
    return all(v <= y for v, y in zip(value, Y_tilde.entries))


def error_bound(trace: IterationTrace, p: int) -> LatticeVec:
    """The certified gap ``Y_final - Y(p)``, an upper bound on the primal error."""
    if not trace.converged or trace.error_bounds is None:
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
