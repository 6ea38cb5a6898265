"""Monotone fixed-point iteration on the comparison equation.

The comparison iterates ``Y(p+1) = Psi(X, Y(p))`` started from zero form
a nondecreasing sequence.  When it settles, its limit is the smallest
fixed point at the given X, and the step gaps translate into a-posteriori
error bounds for the primal iteration run alongside it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Sequence

from .errors import DomainError, MonotonicityError
from .lattice import ComparisonEquation, EquationSpec, LatticeVec, norm
from .series import EXACT, FLOAT, Number, format_value, zero_value

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


def _eval_comparison(cmp: ComparisonEquation, X: LatticeVec, Y: LatticeVec) -> LatticeVec:
    return LatticeVec(cmp.Psi.evaluate(X.entries + Y.entries))


def _require_nonneg(v: LatticeVec, name: str) -> None:
    if any(e < 0 for e in v.entries):
        raise ValueError(f"{name} must be entrywise non-negative, got {v}")


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
    """
    if not isinstance(X, LatticeVec):
        X = LatticeVec(tuple(X))
    if X.dimension != cmp.dim_X:
        raise ValueError(f"X has dimension {X.dimension}, expected {cmp.dim_X}")
    _require_nonneg(X, "X")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    exact = cmp.mode == EXACT
    tol_v = Fraction(tol) if exact else float(tol)
    zero = zero_value(cmp.mode)
    Y = LatticeVec((zero,) * cmp.dim_Y)
    iterates = [Y]
    converged = diverged = False
    prev_step = None
    for _ in range(max_iter):
        Y_next = _eval_comparison(cmp, X, Y)
        for a, b in zip(Y.entries, Y_next.entries):
            slack = zero if exact else 1e-12 + 1e-15 * abs(a)
            if b < a - slack:
                raise MonotonicityError(
                    f"comparison iterate decreased from {a} to {b}")
        iterates.append(Y_next)
        step = max(b - a for a, b in zip(Y.entries, Y_next.entries))
        if all(abs(b - a) <= tol_v for a, b in zip(Y.entries, Y_next.entries)):
            converged = True
            Y = Y_next
            break
        if (any(e > DIVERGENCE_THRESHOLD for e in Y_next.entries)
                and prev_step is not None and step >= prev_step):
            diverged = True
            break
        prev_step = step
        Y = Y_next
    error_bounds = None
    residual_norm = None
    if converged:
        final = iterates[-1]
        error_bounds = tuple(
            LatticeVec(tuple(max(zero, f - e)
                             for f, e in zip(final.entries, it.entries)))
            for it in iterates)
        res = _eval_comparison(cmp, X, final)
        residual_norm = max(abs(r - f) for r, f in zip(res.entries, final.entries))
    return IterationTrace(
        iterates_Y=tuple(iterates), iterates_y=None,
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
    if X.dimension != cmp.dim_X:
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
    """Classify ``X`` against the convergence region of the comparison equation."""
    trace = iterate_comparison(cmp, X, budget, tol)
    used = trace.steps
    if trace.converged:
        return Membership(INSIDE, trace.iterates_Y[-1], used)
    if trace.diverged:
        return Membership(OUTSIDE, None, used, witness=trace.iterates_Y[-1])
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
    value = _eval_comparison(cmp, X, Y_tilde)
    return all(v <= y for v, y in zip(value.entries, Y_tilde.entries))


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
