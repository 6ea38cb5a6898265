"""Formal solution of implicit equations, the two independent routes, and
linear-part normalization.

Frozen solutions were derived degree by degree by hand, except the float
values of test_solve_float_frozen, which were recorded from the solver;
the random corpus is checked against the naive substitution oracle in
helpers.py.
"""

import random
from fractions import Fraction

import pytest

import impsolve.solver
from impsolve import (
    COMPONENTWISE,
    DomainError,
    EXACT,
    FLOAT,
    EquationSpec,
    ITERATIVE,
    PARTITION_ORACLE,
    PARTITION_ORACLE_MAX_DEGREE,
    Series,
    SeriesMap,
    SolutionSeries,
    formal_iterates,
    majorant,
    resolve_linear,
    residual,
    solve_formal,
    solve_partition_oracle,
)

from helpers import catalan, naive_solve, quadratic_equation, random_equation


def F(n, d=1):
    return Fraction(n, d)


def system_example(mode=EXACT, cap=4):
    """y1 = x + y2^2, y2 = 2x^2 + y1*y2 in variables (x, y1, y2)."""
    conv = (lambda v: F(v)) if mode == EXACT else float
    comp0 = Series(3, cap, {(1, 0, 0): conv(1), (0, 0, 2): conv(1)}, mode)
    comp1 = Series(3, cap, {(2, 0, 0): conv(2), (0, 1, 1): conv(1)}, mode)
    return EquationSpec(1, 2, SeriesMap((comp0, comp1)),
                        COMPONENTWISE, COMPONENTWISE)


def scalar_equation(terms, mode=EXACT, cap=9):
    """y = psi(x, y) from a dict over exponents (x, y)."""
    conv = (lambda v: F(v)) if mode == EXACT else float
    psi = Series(2, cap, {g: conv(v) for g, v in terms.items()}, mode)
    return EquationSpec(1, 1, SeriesMap((psi,)), COMPONENTWISE, COMPONENTWISE)


# ---------------------------------------------------------------------------
# the iterative route

def test_catalan_series():
    sol = solve_formal(quadratic_equation(mode=EXACT), 6)
    comp = sol.phi.components[0]
    assert dict(comp.terms) == {
        (n,): F(catalan(n - 1)) for n in range(1, 7)}
    assert sol.source == ITERATIVE
    assert sol.degree_cap == 6


def test_signed_quadratic_series():
    sol = solve_formal(quadratic_equation(mode=EXACT, sign=-1), 4)
    assert dict(sol.phi.components[0].terms) == {
        (1,): F(1), (2,): F(-1), (3,): F(2), (4,): F(-5)}


def test_system_example():
    sol = solve_formal(system_example(), 4)
    y1, y2 = sol.phi.components
    assert dict(y1.terms) == {(1,): F(1), (4,): F(4)}
    assert dict(y2.terms) == {(2,): F(2), (3,): F(2), (4,): F(2)}


def test_iterates_become_stationary_degree_by_degree():
    eq = quadratic_equation(mode=EXACT)
    iterates = list(formal_iterates(eq, 6))
    final = iterates[-1]
    for k, phi in enumerate(iterates, start=1):
        got = phi.components[0].with_cap(min(k, 6))
        want = final.components[0].with_cap(min(k, 6))
        assert dict(got.terms) == dict(want.terms)


def test_iterates_stop_early_when_stationary():
    # the equation y = x has the exact solution after one round
    eq = EquationSpec(1, 1,
                      SeriesMap((Series(2, 9, {(1, 0): F(1)}, EXACT),)),
                      COMPONENTWISE, COMPONENTWISE)
    iterates = list(formal_iterates(eq, 9))
    assert len(iterates) < 9
    assert dict(iterates[-1].components[0].terms) == {(1,): F(1)}


@pytest.mark.parametrize("terms, caps", [
    # y = x + y^2: round k runs at cap k
    ({(1, 0): 1, (0, 2): 1}, list(range(1, 13))),
    # y = x + y^3: a round settles two degrees
    ({(1, 0): 1, (0, 3): 1}, [2, 4, 6, 8, 10, 12]),
    # y = x^2 + y^2: no coefficient below degree 2, two degrees a round
    ({(2, 0): 1, (0, 2): 1}, [3, 5, 7, 9, 11, 12]),
], ids=["x+y^2", "x+y^3", "x^2+y^2"])
def test_each_round_runs_at_the_cap_it_settles(monkeypatch, terms, caps):
    seen = []
    compose = impsolve.solver.series_compose

    def recording(outer, inner):
        seen.append(outer.degree_cap)
        return compose(outer, inner)

    monkeypatch.setattr(impsolve.solver, "series_compose", recording)
    sol = solve_formal(scalar_equation(terms, cap=12), 12)
    # no round leaves every coefficient unchanged here, so none asks for
    # the confirmation at the full cap
    assert seen == caps
    assert sol.phi.degree_cap == 12
    raw = {(0, (a,), (b,)): F(v) for (a, b), v in terms.items()}
    assert dict(sol.phi.components[0].terms) == naive_solve(raw, 1, 1, 12, F(1))[0]


def test_polynomial_solution_is_confirmed_at_the_full_cap():
    # y = x + x^3 is its own solution; it gains x^3 only at cap 3
    sol = solve_formal(scalar_equation({(1, 0): 1, (3, 0): 1}), 9)
    assert dict(sol.phi.components[0].terms) == {(1,): F(1), (3,): F(1)}
    # y = x + x^3 + (y - x - x^3) y has the same solution, and its second
    # round changes nothing at cap 2: stopping there would return x
    eq = scalar_equation({(1, 0): 1, (3, 0): 1, (0, 2): 1, (1, 1): -1,
                          (3, 1): -1})
    iterates = list(formal_iterates(eq, 9))
    assert len(iterates) < 9
    assert iterates[-1].degree_cap == 9
    assert dict(iterates[-1].components[0].terms) == {(1,): F(1), (3,): F(1)}
    assert dict(solve_formal(eq, 9).phi.components[0].terms) == \
        dict(iterates[-1].components[0].terms)


def test_fuss_catalan_series():
    # y = x + y^3: the odd coefficients are the Fuss-Catalan numbers
    sol = solve_formal(scalar_equation({(1, 0): 1, (0, 3): 1}), 9)
    assert dict(sol.phi.components[0].terms) == {
        (1,): F(1), (3,): F(1), (5,): F(3), (7,): F(12), (9,): F(55)}


def test_random_corpus_matches_naive_oracle():
    rng = random.Random(101)
    for _ in range(10):
        eq, raw = random_equation(rng, mode=EXACT)
        sol = solve_formal(eq, 5)
        oracle = naive_solve(raw, eq.dim_x, eq.dim_y, 5, F(1))
        for i, comp in enumerate(sol.phi.components):
            assert dict(comp.terms) == oracle[i]


# Values recorded from the solver while every round still ran at the full
# cap.  Equality is exact: the float coefficients of y = x + 2y^2 are
# rounded from degree 32 on, so the
# values pin the order of the float operations of a solve, as
# test_evaluate_float_frozen does for evaluation.
FROZEN_QUAD_C2 = [
    1.0, 2.0, 8.0, 40.0, 224.0, 1344.0, 8448.0, 54912.0, 366080.0, 2489344.0,
    17199104.0, 120393728.0, 852017152.0, 6085836800.0, 43818024960.0,
    317680680960.0, 2317200261120.0, 16992801914880.0, 125210119372800.0,
    926554883358720.0, 6882979133521920.0, 5.130948081352704e+16,
    3.8370568260550656e+17, 2.877792619541299e+18, 2.164100049895057e+19,
    1.6313984991516584e+20, 1.2326121993590308e+21, 9.332635223718376e+21,
    7.0799301697173885e+22, 5.380746928985215e+23, 4.0963105652919703e+24,
    3.123436806035127e+25, 2.3851699246086425e+26, 1.8239534717595503e+27,
    1.3966272298044555e+28, 1.0707475428500827e+29, 8.218710869443878e+29,
    6.315430457572665e+30, 4.85802342890205e+31, 3.740678040254578e+32]
FROZEN_CUBIC = [
    1.0, 1.0, 2.0, 5.0, 14.0, 42.0, 132.0, 429.0, 1430.0, 4862.0, 16796.0,
    58786.0, 208012.0, 742900.0, 2674440.0, 9694845.0, 35357670.0,
    129644790.0, 477638700.0, 1767263190.0, 6564120420.0, 24466267020.0,
    91482563640.0, 343059613650.0, 1289904147324.0, 4861946401452.0,
    18367353072152.0, 69533550916004.0, 263747951750360.0, 1002242216651368.0]
FROZEN_SYSTEM = (
    {(1, 0): -2.0, (2, 1): -4.0, (3, 0): 10.0, (4, 0): -32.0,
     (3, 2): -8.0, (4, 1): 72.0, (5, 0): -2.0, (5, 1): -320.0,
     (6, 0): 544.0, (4, 3): -16.0, (5, 2): 344.0, (6, 1): -140.0,
     (7, 0): -2574.0},
    {(2, 0): -8.0, (3, 0): 32.0, (3, 1): -32.0, (4, 0): -48.0,
     (4, 1): 192.0, (5, 0): -224.0, (4, 2): -96.0, (5, 1): -288.0,
     (6, 0): 1832.0, (5, 2): 768.0, (6, 1): -3328.0, (7, 0): -4672.0})


def frozen_system():
    eq, _ = random_equation(random.Random(11), mode=FLOAT)
    assert (eq.dim_x, eq.dim_y) == (2, 2)
    return eq


@pytest.mark.parametrize("make, degree, want", [
    (lambda: scalar_equation({(1, 0): 1, (0, 2): 2}, FLOAT, 40), 40,
     ({(n,): v for n, v in enumerate(FROZEN_QUAD_C2, start=1)},)),
    (lambda: scalar_equation({(1, 0): 1, (1, 1): 1, (0, 3): 1}, FLOAT, 30), 30,
     ({(n,): v for n, v in enumerate(FROZEN_CUBIC, start=1)},)),
    (frozen_system, 7, FROZEN_SYSTEM),
], ids=["x+2y^2", "cubic", "system-2x2"])
def test_solve_float_frozen(make, degree, want):
    sol = solve_formal(make(), degree)
    assert tuple(dict(comp.terms) for comp in sol.phi.components) == want


def test_degree_must_be_positive():
    with pytest.raises(ValueError):
        solve_formal(quadratic_equation(mode=EXACT), 0)


# ---------------------------------------------------------------------------
# residual

def test_residual_vanishes_on_solutions():
    for mode in (EXACT, FLOAT):
        eq = quadratic_equation(mode=mode)
        sol = solve_formal(eq, 8)
        defect = residual(eq, sol)
        assert all(comp.is_zero() for comp in defect.components)


def test_residual_detects_perturbation():
    eq = quadratic_equation(mode=EXACT)
    sol = solve_formal(eq, 6)
    bumped = sol.phi + SeriesMap((Series.monomial(1, 6, EXACT, (3,),
                                                  F(1, 7)),))
    from impsolve import SolutionSeries
    fake = SolutionSeries(phi=bumped, degree_cap=6, source=ITERATIVE)
    defect = residual(eq, fake)
    assert not all(comp.is_zero() for comp in defect.components)


# ---------------------------------------------------------------------------
# the set-partition route

def test_partition_oracle_catalan():
    sol = solve_partition_oracle(quadratic_equation(mode=EXACT), 6)
    assert sol.source == PARTITION_ORACLE
    assert dict(sol.phi.components[0].terms) == {
        (n,): F(catalan(n - 1)) for n in range(1, 7)}


def test_partition_oracle_system_example():
    a = solve_partition_oracle(system_example(), 4)
    b = solve_formal(system_example(), 4)
    for x, y in zip(a.phi.components, b.phi.components):
        assert dict(x.terms) == dict(y.terms)


def test_routes_agree_on_random_corpus():
    rng = random.Random(202)
    for _ in range(10):
        eq, _ = random_equation(rng, mode=EXACT)
        a = solve_formal(eq, 5)
        b = solve_partition_oracle(eq, 5)
        for x, y in zip(a.phi.components, b.phi.components):
            assert dict(x.terms) == dict(y.terms)


def test_partition_oracle_degree_cap():
    with pytest.raises(ValueError, match=str(PARTITION_ORACLE_MAX_DEGREE)):
        solve_partition_oracle(quadratic_equation(mode=EXACT),
                               PARTITION_ORACLE_MAX_DEGREE + 1)


# ---------------------------------------------------------------------------
# majorization of the solution coefficients

def test_solution_majorized_by_comparison_solution():
    rng = random.Random(303)
    for _ in range(8):
        eq, _ = random_equation(rng, mode=EXACT)
        cmp_eq = majorant(eq)
        b = solve_formal(eq, 5).phi
        B = solve_formal(cmp_eq, 5).phi
        for bc, Bc in zip(b.components, B.components):
            for gamma, value in bc.terms.items():
                assert abs(value) <= Bc.coefficient(gamma)


def test_positive_type_solution_stays_nonnegative():
    rng = random.Random(404)
    for _ in range(6):
        eq, _ = random_equation(rng, mode=EXACT)
        B = solve_formal(majorant(eq), 5).phi
        for comp in B.components:
            assert all(v >= 0 for v in comp.terms.values())


def test_sign_flip_gives_degreewise_equality():
    plus = solve_formal(quadratic_equation(mode=EXACT, sign=1), 10)
    minus = solve_formal(quadratic_equation(mode=EXACT, sign=-1), 10)
    p = plus.phi.components[0]
    m = minus.phi.components[0]
    assert set(p.terms) == set(m.terms)
    for gamma, value in p.terms.items():
        assert abs(m.coefficient(gamma)) == value


# ---------------------------------------------------------------------------
# linear-part normalization

def test_resolve_linear_float():
    # y = x + 0.5 y + y^2 normalizes to y = 2x + 2y^2
    raw = SeriesMap((Series(2, 8, {(1, 0): 1.0, (0, 1): 0.5, (0, 2): 1.0},
                            FLOAT),))
    eq = resolve_linear(raw, 1, 1)
    terms = dict(eq.psi.components[0].terms)
    assert terms[(1, 0)] == pytest.approx(2.0)
    assert terms[(0, 2)] == pytest.approx(2.0)
    assert (0, 1) not in terms


def test_resolve_linear_exact():
    raw = SeriesMap((Series(2, 8, {(1, 0): F(1), (0, 1): F(1, 2),
                                   (0, 2): F(1)}, EXACT),))
    eq = resolve_linear(raw, 1, 1)
    assert dict(eq.psi.components[0].terms) == {(1, 0): F(2), (0, 2): F(2)}


def test_resolve_linear_coupled_system():
    # y1 = x + y2 + y1 y2, y2 = x + y1^2: solve the linear block by hand:
    # (I - L) = [[1, -1], [0, 1]], inverse [[1, 1], [0, 1]].
    raw = SeriesMap((
        Series(3, 8, {(1, 0, 0): F(1), (0, 0, 1): F(1), (0, 1, 1): F(1)},
               EXACT),
        Series(3, 8, {(1, 0, 0): F(1), (0, 2, 0): F(1)}, EXACT),
    ))
    eq = resolve_linear(raw, 1, 2)
    t0 = dict(eq.psi.components[0].terms)
    t1 = dict(eq.psi.components[1].terms)
    assert t0 == {(1, 0, 0): F(2), (0, 1, 1): F(1), (0, 2, 0): F(1)}
    assert t1 == {(1, 0, 0): F(1), (0, 2, 0): F(1)}
    # the rewritten equation has the same solution as the raw one
    sol = solve_formal(eq, 4)
    # substitute back into the raw map and compare
    coords = (Series.coordinate(1, 4, EXACT, 0),)
    from impsolve import series_compose
    inner = SeriesMap(coords + sol.phi.components)
    back = series_compose(raw.with_cap(4), inner)
    for got, want in zip(back.components, sol.phi.components):
        assert dict(got.terms) == dict(want.terms)


def test_resolve_linear_rejects_constant():
    raw = SeriesMap((Series(2, 8, {(0, 0): 1.0, (1, 0): 1.0}, FLOAT),))
    with pytest.raises(ValueError, match="constant"):
        resolve_linear(raw, 1, 1)


def test_resolve_linear_singular():
    raw = SeriesMap((Series(2, 8, {(1, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0},
                            FLOAT),))
    with pytest.raises(DomainError, match="singular"):
        resolve_linear(raw, 1, 1)


def test_resolve_linear_without_linear_part_is_identity():
    eq = quadratic_equation(mode=EXACT)
    again = resolve_linear(eq.psi, 1, 1)
    assert dict(again.psi.components[0].terms) == \
        dict(eq.psi.components[0].terms)


@pytest.mark.parametrize("call, message", [
    (lambda: SolutionSeries(SeriesMap.zero(1, 3, EXACT, 1), 4, ITERATIVE),
     "solution cap does not match its series"),
    (lambda: SolutionSeries(SeriesMap.zero(1, 4, EXACT, 1), 4, "newton"),
     "unknown solution source 'newton'"),
    (lambda: residual(system_example(), solve_formal(quadratic_equation(EXACT), 4)),
     "solution shape does not match the equation"),
    (lambda: solve_partition_oracle(quadratic_equation(EXACT),
                                    PARTITION_ORACLE_MAX_DEGREE + 1),
     "the partition oracle is capped at degree 6, got 7"),
    (lambda: resolve_linear(SeriesMap.zero(3, 4, EXACT, 1), 1, 1),
     "map has 3 variables, expected 2"),
    (lambda: resolve_linear(SeriesMap.zero(2, 4, EXACT, 2), 1, 1),
     "map has 2 outputs, expected 1"),
], ids=["cap mismatch", "unknown source", "residual shape", "oracle degree 7",
        "resolve variables", "resolve outputs"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
