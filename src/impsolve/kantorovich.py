"""Membership certificates and monotone fixed-point iteration on the
comparison equation.

By Hille's theorem X lies in the convergence region when ``Y = Psi(X, Y)``
has a least fixed point there.  ``_newton_certificate`` looks for a witness
``Y~`` by float Newton from zero, on the comparison's two cached map
kernels, of Psi and of ``dPsi/dY``, which ``hille`` reads too, one call of
each a step; it counts only once ``certificate_check`` proves ``Y~ >=
Psi(X, Y~)``, on the bounds from the same kernels that ``_bounds`` gives.
Proof sketch: Psi has non-negative coefficients and ``X >= 0``, so it is
nondecreasing in Y, and ``0 <= Y(p) <= Y~`` gives ``Y(p+1) = Psi(X, Y(p))
<= Psi(X, Y~) <= Y~``.  So every Kleene iterate from zero lies below
``Y~``; they increase, so they converge, to the least fixed point ``Y*``,
which is at most ``Y~``.  A checked ``Y~`` proves ``INSIDE`` and bounds
every tail: ``Y* - Y(p) <= Y~ - Y(p)``.  ``OUTSIDE`` is proved by
``_outside``: a Kleene iterate below every fixed point where ``dPsi/dY`` has
spectral radius above 1, which no least fixed point allows, decided by
``_exceeds`` in float with a stated rounding margin.  All else is
``UNRESOLVED``.  Exact input never iterates in ``Fraction``, which only
referees a tie of the check or of the margin, or stands in for a bound.
Only a ``ComparisonEquation`` is taken; ``_point`` checks each point.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import copysign, inf, isfinite
from operator import gt, le, mul, sub
from sys import float_info
from typing import IO, Callable, Sequence

from .errors import DomainError
from .lattice import (ComparisonEquation, EquationSpec, LatticeVec, check_comparison,
                      check_majorant_shape, norm)
from .series import (EXACT, FLOAT, Number, SeriesMap, _down, _float, _nearest_plan, _up,
                     coerce_value, format_value)
from .solver import FLOAT_PIVOT_MIN

DEFAULT_TOL = 1e-12
DEFAULT_BUDGET = 10000
NEWTON_STEPS = 100  # float Newton steps tried before a certificate is checked
PUSH = 1e-14  # push along v, relative to max Y, floored at the least normal float
RHO_ULP = 2.0 ** -52  # the float rho test's margin per product, as a share of the sum

INSIDE = "inside"
OUTSIDE = "outside"
UNRESOLVED = "unresolved"


class IterationTrace(namedtuple("IterationTrace", "iterates_Y iterates_y verdict error_bounds")):
    """The ``LatticeVec`` iterates, the primal ones or None, the verdict, the bounds or None."""

    __slots__ = ()

    @property
    def steps(self) -> int:
        return len(self.iterates_Y) - 1


class Membership(namedtuple("Membership", "verdict principal_Y iterations_used witness",
                            defaults=(None,))):
    """A verdict, the certified Y~ or None, the steps, and the checked outside iterate or None."""

    __slots__ = ()


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
    """``(Y~, steps)`` with ``Y~ >= Psi(x, Y~)`` proved at the checked point
    ``x``, or None.

    Float Newton from 0 (Etessami and Yannakakis, JACM 2009) on the unknowns
    that x feeds (``ComparisonEquation._support``), the rest held at exact
    0, which the least fixed point is there; with none fed, Y~ = 0 after 0
    steps.  Each step solves ``(I - J) [d, v] = [Psi(x, Y) - Y, 1]``, ``J``
    the Jacobian in Y on the fed block, by ``_newton_step``, until no entry
    rises.  Below the least fixed point ``I - J`` is a nonsingular M-matrix,
    so ``v >= 1`` and elimination without pivoting is stable (Fiedler and
    Ptak 1962; Berman and Plemmons, ch. 6), and to first order
    ``Psi(x, Y + e v) = Y + e v + (Psi(x, Y) - Y) - e``: pushed along ``v``
    by ``e = PUSH * max(max Y, float_info.min)``, relative as rounding is, a
    float fixed point becomes a pre-fixed point.  Only ``_pre_fixed``
    decides: a pivot with ``not abs(pivot) > FLOAT_PIVOT_MIN`` (NaN too) or
    a non-finite Y~ gives None; a negative pivot is not refused.
    """
    try:
        (psi, leaves), (jac, jac_leaves) = cmp._float_kernels
        xf = tuple(map(float, x))
    except (ValueError, OverflowError):  # beyond the float range
        return None
    fed, _ = cmp._support(tuple(map(bool, x)))
    q = cmp.dim_y
    Y, steps, v = [0.0] * q, 0, ()
    for steps in range(1, NEWTON_STEPS + 1) if fed else ():
        z = xf + tuple(Y)
        if not (step := _newton_step(jac(z, jac_leaves, 0.0), q, fed, psi(z, leaves, 0.0), Y)):
            return None
        d, v = step
        Y_next = Y.copy()
        for i, e in zip(fed, d):
            Y_next[i] += e
        if not max(d) > 0 or Y_next == Y:
            break
        Y = Y_next
    # never push down; the floor keeps a push where every fed entry is 0 or subnormal
    push, Y_tilde = PUSH * max(float_info.min, *Y), Y
    for i, e in zip(fed, v):
        Y_tilde[i] += push * max(e, 0.0)
    if not all(0 <= e < inf for e in Y_tilde):
        return None
    Y_tilde = tuple(map(Fraction, Y_tilde) if cmp.mode == EXACT else Y_tilde)
    return (Y_tilde, steps) if _pre_fixed(cmp, x, Y_tilde) else None


def _newton_step(J: tuple, q: int, fed: tuple, value: tuple, Y: list) -> tuple | None:
    """``(d, v)`` with ``(I - J) [d, v] = [value - Y, 1]`` on ``fed``, or None:
    ``solver._solve`` unpivoted, in place on the flat row-major ``[I - J | value - Y, 1]``."""
    if len(fed) == 1 and abs(pivot := 1 - J[(i := fed[0]) * (q + 1)]) > FLOAT_PIVOT_MIN:
        return ((value[i] - Y[i]) * (inv := 1.0 / pivot),), (inv,)  # no list; else refused below
    n, w = len(fed), len(fed) + 2
    a = [e for i in fed for e in (*((i == j) - J[i * q + j] for j in fed), value[i] - Y[i], 1.0)]
    for c, p in enumerate(range(0, n * w, w)):  # columns up to c are read no more
        if not abs(pivot := a[p + c]) > FLOAT_PIVOT_MIN:
            return None
        inv = 1.0 / pivot
        a[p + c + 1:p + w] = row = [e * inv for e in a[p + c + 1:p + w]]
        for o in range(0, n * w, w):
            if o != p and (f := a[o + c]):
                a[o + c + 1:o + w] = [e - f * b for e, b in zip(a[o + c + 1:o + w], row)]
    return a[n::w], a[n + 1::w]


def _outside(cmp: ComparisonEquation, x: tuple, budget: int) -> tuple:
    """``(witness, steps)``: Kleene from 0 on ``_bounds``' lower bounds on Psi,
    so the iterates Y lie below every fixed point ``mu`` and never overflow,
    until a step moves no entry by more than ``DEFAULT_TOL`` times the
    largest, or the budget ends.  The witness (exact images for an exact
    ``cmp``) is the first Y, or None, where some ``u >= 0`` on Y's support
    has ``(J u)_i > u_i`` wherever ``u_i > 0`` in float and exactly
    (``_exceeds``), J the lower bound on ``dPsi/dY`` at Y.  Then ``rho(J) >
    1``, but ``J <= dPsi/dY(mu)``, whose ``rho`` on a least ``mu``'s support
    is at most 1, else ``mu - e v``, v a Perron vector there, is a smaller
    pre-fixed point (Etessami and Yannakakis, JACM 2009).  Checked where the
    two-step increment ``d = Y(p+1) - Y(p-1)`` grows, at u = d / max(d) with
    entries below ``2^-20`` dropped, to sit on one block: Psi is convex on
    the orthant, so ``Psi(b) - Psi(a) <= dPsi/dY(b) (b - a)`` for ``a <= b``,
    the increments follow J to first order, and a growing d is the vector
    that J maps above itself."""
    lower, q = _bounds(cmp, x)(_down), cmp.dim_y
    before2 = before = Y = (0.0,) * q
    # total, the sum of the steps, telescopes to at least max(Y_next) / 2
    # after rounding, so a step above slack * total has not settled and
    # skips max(Y_next), about a tenth of a step's cost
    total, slack, grown = 0.0, 2 * DEFAULT_TOL, 0.0
    for steps in range(1, budget + 1):
        Y_next = lower(Y)
        total += (step := max(map(sub, Y_next, Y)))
        if step <= slack * total and step <= DEFAULT_TOL * max(Y_next):
            break
        growth = max(map(sub, Y_next, before))
        before2, before, Y = before, Y, Y_next
        if growth > grown:
            J = lower(Y, True)
            u = [e if (e := (b - a) / growth) >= 2 ** -20 and b > 0 else 0.0
                 for a, b in zip(before2, Y)]
            rows = [J[k:k + q] for k in range(0, q * q, q)]
            if any(u) and all(_exceeds(row, u, e) for row, e in zip(rows, u) if e):
                return Y if cmp.mode == FLOAT else tuple(map(Fraction, Y)), steps
        grown = growth
    return None, steps


def _exceeds(row: Sequence[float], u: Sequence[float], e: float) -> bool:
    """Is ``sum(row * u) > e``, in float and exactly, for non-negative floats?
    Each of the n terms of the float sum s passes at most n roundings, of
    relative size ``2^-53`` (Higham, *Accuracy and Stability*, Lemma 3.1),
    and ``2^-1075`` more where a product underflows, so for a normal ``e``
    and a finite s, ``s * (1 - (n + 1) RHO_ULP) > e``, rounded, proves the
    exact sum above ``e``; between that and ``s <= e``, ``Fraction`` decides."""
    s = sum(map(mul, row, u))
    if not s > e:
        return False
    if s < inf and e >= float_info.min and s * (1 - (len(row) + 1) * RHO_ULP) > e:
        return True
    return sum(map(mul, map(Fraction, row), map(Fraction, u))) > e


def _kleene(cmp: ComparisonEquation, x: tuple, max_iter: int, tol: float) -> list:
    """The trace: Kleene from 0 on Psi's nearest kernels at ``x`` rounded down, else on
    ``_down`` of Psi in ``Fraction`` at ``x``, as ``_outside`` steps, until no entry moves
    by more than ``tol``, for ``max_iter`` steps or to the last finite one; exact images."""
    try:
        ((psi, leaves), _), xf = cmp._float_kernels, tuple(map(_down, x))
    except ValueError:  # a coefficient beyond the float range
        psi = None
    Y = (0.0,) * cmp.dim_y
    iterates = [Y]
    for _ in range(max_iter):
        Y_next = psi(xf + Y, leaves, 0.0) if psi else tuple(map(_down, _exact_psi(cmp.psi, x + Y)))
        if not all(map(isfinite, Y_next)):
            break
        iterates.append(Y_next)
        if all(abs(b - a) <= tol for a, b in zip(Y, Y_next)):
            break
        Y = Y_next
    return iterates if cmp.mode == FLOAT else [tuple(map(Fraction, Y)) for Y in iterates]


def iterate_comparison(cmp: ComparisonEquation, X: LatticeVec,
                       max_iter: int = DEFAULT_BUDGET,
                       tol: float = DEFAULT_TOL) -> IterationTrace:
    """Run the comparison iteration at the point ``X``.

    The verdict and ``Y~`` are those of ``membership(cmp, X, max_iter)``,
    whatever ``tol`` is.  The trace is ``_kleene``'s: until no entry moves
    by more than ``tol``, or for ``max_iter`` steps, or for ``OUTSIDE`` the
    ``iterations_used``.  ``INSIDE`` carries a checked ``Y~ >= Psi(X, Y~)``,
    so the bounds ``Y~ - Y(p)`` cover the tail ``Y* - Y(p)`` wherever it
    stops, but not the iterates' rounding.
    """
    x = _start(cmp, X, max_iter)
    check_tol(tol)
    got = _classify(cmp, x, max_iter)
    found = _kleene(cmp, x, got.iterations_used if got.verdict == OUTSIDE
                    else max_iter, tol)
    Y_tilde = got.principal_Y
    return IterationTrace(
        iterates_Y=tuple(map(LatticeVec, found)), iterates_y=None, verdict=got.verdict,
        error_bounds=None if Y_tilde is None else tuple(
            LatticeVec(tuple(map(sub, Y_tilde.entries, Y))) for Y in found))


def iterate_primal(eq: EquationSpec, x: Sequence[Number], cmp: ComparisonEquation,
                   max_iter: int = DEFAULT_BUDGET,
                   tol: float = DEFAULT_TOL) -> IterationTrace:
    """Primal iteration paired with its comparison run.

    The comparison is run at ``X = norm(x)``; its certificate ``Y~`` is the
    certificate here, so a diverged or uncertified comparison run raises.
    The primal iterates then run in lockstep, on psi's kernels on its own
    coefficients rounded to nearest (``_nearest_plan``) at ``x`` rounded
    toward zero, so a positive system that is its own majorant repeats its
    comparison trace.  The trace carries the comparison's bounds
    ``Y~ - Y(p)``, which dominate ``|y* - y(p)|`` for the exact primal iterates.
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
    psi, leaves = _nearest_plan(eq.psi)
    x = tuple(copysign(_down(abs(e)), e) for e in x)
    ys = [(0.0,) * eq.dim_y]
    for _ in range(comp.steps):
        ys.append(psi(x + ys[-1], leaves, 0.0))
    if eq.mode == EXACT:
        ys = [tuple(map(Fraction, y)) for y in ys]
    return IterationTrace(
        iterates_Y=comp.iterates_Y, iterates_y=tuple(ys), verdict=INSIDE,
        error_bounds=comp.error_bounds)


def membership(cmp: ComparisonEquation, X: LatticeVec,
               budget: int = DEFAULT_BUDGET) -> Membership:
    """Classify ``X`` against the convergence region of the comparison equation.

    ``INSIDE`` means a pre-fixed point ``Y~ >= Psi(X, Y~)`` was checked
    exactly: it bounds every Kleene iterate, so the least fixed point
    exists and is at most ``Y~``.  ``principal_Y`` is that ``Y~`` and
    ``iterations_used`` counts the Newton steps.  Else ``_outside`` runs at
    most ``budget`` Kleene steps, which ``iterations_used`` counts, and
    ``OUTSIDE`` carries its checked iterate as the witness.
    """
    return _classify(cmp, _start(cmp, X, budget), budget)


def _classify(cmp: ComparisonEquation, x: tuple, budget: int) -> Membership:
    """``membership`` at the checked point ``x``."""
    certified = _newton_certificate(cmp, x)
    if certified is not None:
        return Membership(INSIDE, LatticeVec(certified[0]), certified[1])
    witness, used = _outside(cmp, x, budget)
    return Membership(UNRESOLVED if witness is None else OUTSIDE, None, used,
                      witness and LatticeVec(witness))


def certificate_check(cmp: ComparisonEquation, X: LatticeVec,
                      Y_tilde: LatticeVec) -> bool:
    """Does ``Y_tilde`` witness convergence, i.e. ``Y_tilde >= Psi(X, Y_tilde)``?
    Decided exactly in both modes, by ``_pre_fixed``."""
    return _pre_fixed(cmp, _point(cmp, X, cmp.dim_x, "X"),
                      _point(cmp, Y_tilde, cmp.dim_y, "Y_tilde"))


def _pre_fixed(cmp: ComparisonEquation, x: tuple, y: tuple) -> bool:
    """``certificate_check`` at the checked ``x`` and ``y``, on ``_bounds``."""
    bound = _bounds(cmp, x + y)
    return all(map(le, bound(_up)(), y)) or (
        not any(map(gt, bound(_down)(), y)) and all(map(le, bound(Fraction)(), y)))


def _bounds(cmp: ComparisonEquation, x: tuple) -> Callable:
    """``_bounds(cmp, x)(rounded)(y=(), d=False)`` is Psi, or with ``d`` the
    flat ``dPsi/dY``, at the checked ``x`` and floats ``y``: ``lo`` or ``hi``,
    for ``rounded=_down`` or ``_up``, times one nearest kernel call
    (``_bracket``; its ``scale``) where finite and gated, else, as always for
    ``Fraction``, ``rounded`` of the exact value, reused at the same y and d.
    Reading an image 0.0 as 0 only lowers a value: only ``_down``'s gate may."""
    lo, hi, floor, partials = cmp._bracket
    try:
        kernels, xf = cmp._float_kernels, tuple(map(float, x))
        low = min([1.0, *filter(None, xf)]) >= floor
    except (ValueError, OverflowError):  # beyond the float range
        low = False
    held = [None, None]

    def form(rounded: Callable) -> Callable:
        strict = rounded is _up and low and xf.count(0.0) == x.count(0)  # no x > 0 reads 0.0
        scale, gate = (lo, low) if rounded is _down else (hi, strict)
        def bound(y: tuple = (), d: bool = False) -> tuple:
            if gate and (not y or min(y) >= floor or min([1.0, *filter(None, y)]) >= floor):
                run, leaves = kernels[d]
                if sum(v := run(xf + y, leaves, 0.0, scale)) < inf:
                    return v
            if held[0] != (y, d):
                held[:] = (y, d), _exact_psi(partials if d else cmp.psi, x + y)
            return tuple(map(rounded, held[1]))
        return bound
    return form


def _exact_psi(m: SeriesMap, point: tuple) -> tuple:
    """The map ``m`` at ``point`` in ``Fraction``: its kernel on exact
    images of the point and coefficients, which hold any float."""
    run, leaves = m._plan
    return run(tuple(map(Fraction, point)), tuple(map(Fraction, leaves)), Fraction(0))


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
    import csv  # here, so that only the verbs that write CSV load it
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
