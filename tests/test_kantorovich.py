"""Monotone iteration on the comparison equation, paired primal runs,
membership verdicts, and convergence certificates.

Frozen iterate values were computed by hand from Y <- X + Y^2; principal
limits come from the closed-form roots in helpers.py.
"""

import io
import math
import random

import pytest

from impsolve import (
    DEFAULT_BUDGET,
    DomainError,
    FLOAT,
    INSIDE,
    LatticeVec,
    OUTSIDE,
    UNRESOLVED,
    certificate_check,
    error_bound,
    iterate_comparison,
    iterate_primal,
    majorant,
    membership,
    trace_to_csv,
)

from helpers import (
    principal_quadratic,
    quadratic_comparison,
    quadratic_equation,
    random_comparison,
    random_equation,
    signed_quadratic,
)


X_at = lambda t: LatticeVec((t,))


# ---------------------------------------------------------------------------
# the comparison iteration

def test_first_iterates_frozen():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.25), max_iter=3)
    got = [Y.entries[0] for Y in trace.iterates_Y]
    assert got == [0.0, 0.25, 0.3125, 0.34765625]


def test_convergence_inside():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.2))
    assert trace.converged and not trace.diverged
    limit = trace.iterates_Y[-1].entries[0]
    assert limit == pytest.approx(principal_quadratic(0.2), abs=1e-10)
    assert trace.residual_norm < 1e-10


def test_divergence_outside():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.3))
    assert trace.diverged and not trace.converged
    assert trace.error_bounds is None
    assert trace.steps < 50


def test_budget_exhaustion_on_boundary():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.25),
                               max_iter=500)
    assert not trace.converged and not trace.diverged
    assert trace.steps == 500


def test_iterates_are_monotone():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.2))
    values = [Y.entries[0] for Y in trace.iterates_Y]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_negative_X_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        iterate_comparison(quadratic_comparison(), X_at(-0.1))


def test_monotone_corpus():
    rng = random.Random(515)
    hits = 0
    for _ in range(8):
        cmp_eq = random_comparison(rng)
        for k in range(3, 9):
            X = LatticeVec((0.5 ** k,) * cmp_eq.dim_X)
            trace = iterate_comparison(cmp_eq, X, max_iter=2000)
            if not trace.converged:
                continue
            hits += 1
            for a, b in zip(trace.iterates_Y, trace.iterates_Y[1:]):
                assert all(x <= y + 1e-12 for x, y in
                           zip(a.entries, b.entries))
            break
    assert hits >= 6  # the corpus must actually exercise the property


# ---------------------------------------------------------------------------
# error bounds

def test_error_bounds_shrink_to_zero():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.2))
    bounds = [b.entries[0] for b in trace.error_bounds]
    assert len(bounds) == len(trace.iterates_Y)
    assert all(b >= 0 for b in bounds)
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] == 0.0


def test_error_bound_accessor():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.2))
    assert error_bound(trace, 0).entries[0] == pytest.approx(
        principal_quadratic(0.2), abs=1e-9)
    with pytest.raises(ValueError):
        error_bound(trace, len(trace.iterates_Y))


def test_error_bound_requires_convergence():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.3))
    with pytest.raises(DomainError):
        error_bound(trace, 0)


# ---------------------------------------------------------------------------
# paired primal runs

def test_primal_pairing_converges_to_closed_form():
    eq = quadratic_equation(sign=-1)
    trace = iterate_primal(eq, (0.2,), majorant(eq))
    assert trace.iterates_y is not None
    assert len(trace.iterates_y) == len(trace.iterates_Y)
    y_final = trace.iterates_y[-1][0]
    assert y_final == pytest.approx(signed_quadratic(0.2), abs=1e-10)


def test_primal_error_dominated_by_bound():
    eq = quadratic_equation(sign=-1)
    trace = iterate_primal(eq, (0.2,), majorant(eq), tol=1e-15)
    y_true = signed_quadratic(0.2)
    for p in range(min(50, len(trace.iterates_y))):
        err = abs(y_true - trace.iterates_y[p][0])
        assert err <= error_bound(trace, p).entries[0] + 1e-15


def test_primal_dominated_stepwise():
    rng = random.Random(616)
    exercised = 0
    for _ in range(6):
        eq, _ = random_equation(rng, mode=FLOAT)
        cmp_eq = majorant(eq)
        for k in range(4, 10):
            x = tuple(((-1) ** j) * 0.5 ** k for j in range(eq.dim_x))
            try:
                trace = iterate_primal(eq, x, cmp_eq, max_iter=3000)
            except DomainError:
                continue
            exercised += 1
            for yp, Yp in zip(trace.iterates_y, trace.iterates_Y):
                for a, b in zip(yp, Yp.entries):
                    assert abs(a) <= b + 1e-12
            for (ya, Ya), (yb, Yb) in zip(
                    zip(trace.iterates_y, trace.iterates_Y),
                    zip(trace.iterates_y[1:], trace.iterates_Y[1:])):
                for i in range(len(ya)):
                    step = abs(yb[i] - ya[i])
                    gap = Yb.entries[i] - Ya.entries[i]
                    assert step <= gap + 1e-12
            break
    assert exercised >= 4


def test_primal_requires_comparison_certificate():
    eq = quadratic_equation(sign=-1)
    with pytest.raises(DomainError, match="diverged"):
        iterate_primal(eq, (0.4,), majorant(eq))


# ---------------------------------------------------------------------------
# membership

def test_membership_inside():
    got = membership(quadratic_comparison(), X_at(0.2))
    assert got.verdict == INSIDE
    assert got.principal_Y.entries[0] == pytest.approx(
        principal_quadratic(0.2), abs=1e-10)
    assert got.witness is None


def test_membership_outside_with_witness():
    got = membership(quadratic_comparison(), X_at(0.3))
    assert got.verdict == OUTSIDE
    assert got.principal_Y is None
    assert got.iterations_used <= 50
    assert got.witness.entries[0] > 1e9


def test_membership_unresolved_on_boundary():
    got = membership(quadratic_comparison(), X_at(0.25))
    assert got.verdict == UNRESOLVED
    assert got.iterations_used == DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# certificates and minimality

def test_certificate_frozen_examples():
    cmp_eq = quadratic_comparison()
    assert certificate_check(cmp_eq, (0.25,), (0.5,))
    assert not certificate_check(cmp_eq, (0.3,), (0.5,))
    assert certificate_check(cmp_eq, (0.1,), (0.2,))


def test_certificate_rejects_negative_witness():
    cmp_eq = quadratic_comparison()
    with pytest.raises(ValueError, match="non-negative"):
        certificate_check(cmp_eq, (0.1,), (-0.2,))


def test_principal_solution_is_minimal():
    cmp_eq = quadratic_comparison()
    principal = membership(cmp_eq, X_at(0.2)).principal_Y.entries[0]
    grid = [k / 100 for k in range(1, 100)]
    certified = [y for y in grid if certificate_check(cmp_eq, (0.2,), (y,))]
    assert certified  # the upper root region must be sampled
    assert all(principal <= y + 1e-9 for y in certified)


def test_certificate_region_is_an_interval_between_roots():
    # for Y = 0.2 + Y^2 the certificate holds exactly between the roots
    lo = principal_quadratic(0.2)
    hi = (1.0 + math.sqrt(1.0 - 0.8)) / 2.0
    cmp_eq = quadratic_comparison()
    for y in [lo + 1e-6, 0.5, hi - 1e-6]:
        assert certificate_check(cmp_eq, (0.2,), (y,))
    for y in [lo - 1e-3, hi + 1e-3]:
        assert not certificate_check(cmp_eq, (0.2,), (y,))


# ---------------------------------------------------------------------------
# CSV export

def test_trace_csv_shape():
    eq = quadratic_equation(sign=-1)
    trace = iterate_primal(eq, (0.2,), majorant(eq))
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "p,Y0,y0,bound0,delta0"
    assert len(lines) == 1 + len(trace.iterates_Y)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0


def test_trace_csv_without_primal():
    trace = iterate_comparison(quadratic_comparison(), X_at(0.1))
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    header = buf.getvalue().splitlines()[0]
    assert header == "p,Y0,bound0,delta0"
