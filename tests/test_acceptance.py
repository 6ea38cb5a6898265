"""Acceptance criteria for the solver, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Every tolerance is pinned in the assertion itself; the
oracles are the closed forms and the naive recursion in helpers.py.
"""

import math
import random
import time

from impsolve import (
    DEFAULT_BUDGET,
    DomainError,
    EXACT,
    FLOAT,
    LatticeVec,
    certificate_check,
    check_majorant_samples,
    empirical_radius,
    error_bound,
    hille_point,
    iterate_comparison,
    iterate_primal,
    majorant,
    membership,
    solve_formal,
    solve_partition_oracle,
    trace_graph,
)

from helpers import (
    catalan,
    principal_quadratic,
    quadratic_comparison,
    quadratic_equation,
    random_comparison,
    random_equation,
    signed_quadratic,
)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def _corpus(seed, count, mode):
    rng = random.Random(seed)
    return [random_equation(rng, mode=mode) for _ in range(count)]


EXACT_CORPUS = _corpus(1234, 50, EXACT)
FLOAT_CORPUS = _corpus(5678, 20, FLOAT)


def test_01_catalan_regression():
    start = time.perf_counter()
    sol = solve_formal(quadratic_equation(mode=EXACT), 12)
    elapsed = time.perf_counter() - start
    got = dict(sol.phi.components[0].terms)
    want = {(n,): catalan(n - 1) for n in range(1, 13)}
    ok = got == want and elapsed < 1.0
    _report("catalan regression", ok,
            f"12 exact coefficients, {elapsed:.3f} s")


def test_02_hille_radius():
    start = time.perf_counter()
    got = hille_point(quadratic_comparison())
    elapsed = time.perf_counter() - start
    ok = (got.status == "found"
          and abs(got.X_star - 0.25) <= 1e-9
          and abs(got.Y_star - 0.5) <= 1e-9
          and abs(got.residual_fixed) <= 1e-12
          and abs(got.residual_derivative) <= 1e-12
          and elapsed < 0.1)
    _report("hille radius", ok,
            f"X*={got.X_star!r}, Y*={got.Y_star!r}, {elapsed:.4f} s")


def test_03_radius_cross_check():
    sol = solve_formal(quadratic_equation(mode=FLOAT), 50)
    got = empirical_radius(sol)
    rel = abs(got.estimate - 0.25) / 0.25
    ok = (got.degree == 50 and rel < 0.05
          and math.isclose(got.estimate, 50.0 / 194.0, rel_tol=1e-9))
    _report("radius cross-check", ok,
            f"ratio estimate {got.estimate:.6f}, off by {100 * rel:.2f}%")


def test_04_oracle_equivalence():
    mismatches = 0
    for eq, _ in EXACT_CORPUS:
        a = solve_formal(eq, 5).phi
        b = solve_partition_oracle(eq, 5).phi
        for x, y in zip(a.components, b.components):
            if dict(x.terms) != dict(y.terms):
                mismatches += 1
    _report("oracle equivalence", mismatches == 0,
            f"50 equations, {mismatches} mismatching components")


def test_05_majorization_suite():
    violations = 0
    for eq, _ in EXACT_CORPUS:
        b = solve_formal(eq, 5).phi
        B = solve_formal(majorant(eq), 5).phi
        for bc, Bc in zip(b.components, B.components):
            for gamma, value in bc.terms.items():
                if abs(value) > Bc.coefficient(gamma):
                    violations += 1
    plus = solve_formal(quadratic_equation(mode=EXACT, sign=1), 10)
    minus = solve_formal(quadratic_equation(mode=EXACT, sign=-1), 10)
    p_terms = dict(plus.phi.components[0].terms)
    m_terms = dict(minus.phi.components[0].terms)
    flip_exact = (set(p_terms) == set(m_terms) and all(
        abs(m_terms[g]) == v for g, v in p_terms.items()))
    _report("majorization suite", violations == 0 and flip_exact,
            f"50 equations, {violations} coefficient violations, "
            f"sign-flip equality {flip_exact}")


def test_06_majorant_sampling():
    bad = 0
    for k, (eq, _) in enumerate(FLOAT_CORPUS):
        dim = eq.dim_x + eq.dim_y
        box = (LatticeVec((-0.1,) * dim), LatticeVec((0.1,) * dim))
        report = check_majorant_samples(eq, majorant(eq), 1000, box,
                                        check_increments=True,
                                        rng=random.Random(k))
        bad += len(report.violations)
    _report("majorant sampling", bad == 0,
            f"20 equations x 1000 points and increments, {bad} violations")


def test_07_kantorovich_monotone_domination():
    traces = 0
    failures = 0
    for eq, _ in FLOAT_CORPUS:
        cmp_eq = majorant(eq)
        for k in range(4, 12):
            x = tuple(((-1) ** j) * 0.5 ** k for j in range(eq.dim_x))
            try:
                trace = iterate_primal(eq, x, cmp_eq, max_iter=3000)
            except DomainError:
                continue
            traces += 1
            for a, b in zip(trace.iterates_Y, trace.iterates_Y[1:]):
                if not all(u <= v + 1e-12 for u, v in
                           zip(a.entries, b.entries)):
                    failures += 1
            for yp, Yp in zip(trace.iterates_y, trace.iterates_Y):
                if not all(abs(u) <= v + 1e-12 for u, v in
                           zip(yp, Yp.entries)):
                    failures += 1
            pairs = list(zip(trace.iterates_y, trace.iterates_Y))
            for (ya, Ya), (yb, Yb) in zip(pairs, pairs[1:]):
                for i in range(len(ya)):
                    if abs(yb[i] - ya[i]) > Yb.entries[i] - Ya.entries[i] \
                            + 1e-12:
                        failures += 1
            break
    ok = failures == 0 and traces >= 10
    _report("kantorovich monotonicity and domination", ok,
            f"{traces} paired traces, {failures} step violations")


def test_08_minimality_principal_branch():
    cmp_eq = quadratic_comparison()
    worst_gap = 0.0
    ok = True
    for X in (0.05, 0.1, 0.2, 0.24):
        got = membership(cmp_eq, LatticeVec((X,)))
        if got.verdict != "inside":
            ok = False
            continue
        principal = got.principal_Y.entries[0]
        gap = abs(principal - principal_quadratic(X))
        worst_gap = max(worst_gap, gap)
        if gap > 1e-10:
            ok = False
        grid = [k / 100 for k in range(1, 100)]
        certified = [y for y in grid
                     if certificate_check(cmp_eq, (X,), (y,))]
        if not certified or any(principal > y + 1e-12 for y in certified):
            ok = False
    _report("minimality and principal branch", ok,
            f"four Inside verdicts, worst closed-form gap {worst_gap:.2e}")


def test_09_divergence_verdicts():
    cmp_eq = quadratic_comparison()
    out = membership(cmp_eq, LatticeVec((0.3,)))
    boundary = membership(cmp_eq, LatticeVec((0.25,)))
    ok = (out.verdict == "outside" and out.iterations_used <= 50
          and boundary.verdict == "unresolved"
          and boundary.iterations_used == DEFAULT_BUDGET)
    _report("divergence verdicts", ok,
            f"outside in {out.iterations_used} iterations, boundary "
            f"unresolved at budget {DEFAULT_BUDGET}")


def test_10_error_bound_validity():
    eq = quadratic_equation(mode=FLOAT, sign=-1)
    trace = iterate_primal(eq, (0.2,), majorant(eq), tol=1e-15)
    y_true = signed_quadratic(0.2)
    top = min(50, len(trace.iterates_y) - 1)
    ok = top == 50
    worst = -1.0
    for p in range(top + 1):
        err = abs(y_true - trace.iterates_y[p][0])
        bound = error_bound(trace, p).entries[0]
        worst = max(worst, err - bound)
        if err > bound:
            ok = False
    _report("error-bound validity", ok,
            f"p <= {top}, max(error - bound) = {worst:.2e}")


def test_11_isotonicity():
    rng = random.Random(97)
    checked = 0
    ok = True
    while checked < 5:
        cmp_eq = random_comparison(rng)
        direction = (1.0,) * cmp_eq.dim_x
        t_in = None
        for k in range(2, 14):
            t = 0.5 ** k
            X = LatticeVec(tuple(t * d for d in direction))
            if iterate_comparison(cmp_eq, X, max_iter=4000).verdict == "inside":
                t_in = t
                break
        if t_in is None:
            continue
        checked += 1
        previous = None
        for j in range(1, 21):
            X = LatticeVec(tuple(j / 20 * t_in * d for d in direction))
            got = membership(cmp_eq, X, budget=4000)
            if got.verdict != "inside":
                ok = False
                break
            current = got.principal_Y
            if previous is not None and not all(
                    a <= b + 1e-9 for a, b in
                    zip(previous.entries, current.entries)):
                ok = False
            previous = current
    _report("isotonicity", ok and checked == 5,
            f"{checked} comparison equations, 20-point grids")


def test_12_graph_shape():
    sample = trace_graph(quadratic_comparison(), 0.9, 900)
    xs = [pt.X for pt in sample.points]
    k = sample.turning_index
    unimodal = (all(a <= b + 1e-12 for a, b in zip(xs[:k], xs[1:k + 1]))
                and all(a >= b - 1e-12 for a, b in zip(xs[k:], xs[k + 1:])))
    turn = sample.points[k]
    ok = (unimodal
          and abs(turn.X - 0.25) <= 1e-9
          and abs(turn.Y - 0.5) <= 1e-9
          and abs(turn.dPsi_dY - 1.0) <= 1e-9)
    _report("graph shape", ok,
            f"unimodal {unimodal}, turn at (X={turn.X!r}, Y={turn.Y!r}), "
            f"dPsi/dY={turn.dPsi_dY!r}")
