"""Formal power-series solution of ``y = psi(x, y)``.

Two independent routes produce the coefficients of the solution branch
through the origin.  The production route re-substitutes the truncated
map into itself.  That iteration is triangular: the degree-``d`` output
of one round only reads solution coefficients of degree below ``d`` (the
map has no constant term and no term linear in the unknowns), so after
round ``k`` every coefficient of degree at most ``k`` is final, and round
``k`` runs at cap ``k`` instead of the final cap.  The second route, kept
deliberately slow and explicit, evaluates the symmetric multilinear
recursion over set partitions and exists so the two implementations can
be checked against each other; it is capped at low degree.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations
from math import isfinite
from typing import Iterator, Sequence

from .errors import DomainError
from .lattice import COMPONENTWISE, EquationSpec
from .series import (EXACT, Number, Series, SeriesMap, _set, _Value,
                     multiindex_factorial, series_compose, zero_value)

ITERATIVE = "iterative"
PARTITION_ORACLE = "partition_oracle"
PARTITION_ORACLE_MAX_DEGREE = 6
FLOAT_PIVOT_MIN = 1e-13  # a float elimination refuses a pivot not above this


class SolutionSeries(_Value):
    """Truncated series of the solution branch through the origin."""

    _fields = ("phi", "source")
    phi: SeriesMap
    source: str

    def __init__(self, phi: SeriesMap, source: str) -> None:
        if source not in (ITERATIVE, PARTITION_ORACLE):
            raise ValueError(f"unknown solution source {source!r}")
        _set(self, "phi", phi)
        _set(self, "source", source)

    @property
    def degree_cap(self) -> int:
        return self.phi.degree_cap


def formal_iterates(eq: EquationSpec, degree: int) -> Iterator[SeriesMap]:
    """Yield the successive substitution iterates, the last at cap ``degree``.

    Each round runs at a cap ``gain`` above the previous round's and yields
    its iterate at that cap, where every coefficient is final.  No solution
    coefficient lies below ``low``, the least degree of a term of ``psi``
    in x alone, and a round settles ``|alpha| + (|beta| - 1) * low`` more
    degrees through a term ``x^alpha y^beta``; ``gain`` is the least such
    number.  So round ``k`` of ``y = x + y^2`` runs at cap ``k``, and the
    last iterate carries the full cap ``degree``.  A round that changes
    nothing at its cap does not end the iteration, as it says nothing of
    the degrees above that cap.  Every round composes ``psi`` cut to ``degree``.
    """
    if not isinstance(degree, int) or degree < 1:
        raise ValueError(f"degree must be a positive integer, got {degree!r}")
    p, q, psi = eq.dim_x, eq.dim_y, eq.psi.with_cap(degree)
    terms = [gamma for comp in psi.components for gamma in comp.terms]
    low = min((sum(g) for g in terms if not any(g[p:])), default=degree)
    gain = min((sum(g[:p]) + (sum(g[p:]) - 1) * low for g in terms if any(g[p:])),
               default=degree)
    cap = min(low, degree) - 1
    phi = SeriesMap.zero(p, cap, psi.mode, q)
    while cap < degree:
        cap = min(cap + gain, degree)
        try:
            phi = _substitute(psi, phi.with_cap(cap))
        except ValueError:  # a ring result refuses only a float out of range
            raise _overflow(cap) from None
        yield phi


def _overflow(degree: int) -> DomainError:
    return DomainError(f"float coefficients of the solution overflow by degree {degree}")


def _substitute(psi: SeriesMap, phi: SeriesMap) -> SeriesMap:
    """``psi(x, phi)`` at ``phi``'s cap, at most ``psi``'s."""
    coords = SeriesMap.identity(phi.num_vars, phi.degree_cap, phi.mode).components
    return series_compose(psi, SeriesMap(coords + phi.components))


def solve_formal(eq: EquationSpec, degree: int) -> SolutionSeries:
    """Solution series to total degree ``degree`` by repeated substitution."""
    phi = None
    for phi in formal_iterates(eq, degree):
        pass
    return SolutionSeries(phi=phi, source=ITERATIVE)


def residual(eq: EquationSpec, sol: SolutionSeries) -> SeriesMap:
    """The defect ``phi - psi(x, phi)`` truncated at the solution cap."""
    p, q, psi = eq.dim_x, eq.dim_y, eq.psi
    if sol.phi.num_vars != p or sol.phi.output_dim != q:
        raise ValueError("solution shape does not match the equation")
    image = _substitute(psi.with_cap(sol.degree_cap), sol.phi)
    return SeriesMap(tuple(a - b for a, b in zip(sol.phi.components, image.components)))


# -- set-partition oracle ------------------------------------------------


def _set_partitions(seq: tuple) -> Iterator[tuple[tuple, ...]]:
    """All partitions of ``seq`` into unordered non-empty blocks, each once."""
    if not seq:
        yield ()
        return
    first, rest = seq[0], seq[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + ((first,) + part[i],) + part[i + 1:]
        yield ((first,),) + part


def _pattern(indices, width: int) -> tuple[int, ...]:
    counts = [0] * width
    for j in indices:
        counts[j] += 1
    return tuple(counts)


def _expand(beta: Sequence[int]) -> tuple[int, ...]:
    out = []
    for j, e in enumerate(beta):
        out.extend([j] * e)
    return tuple(out)


def solve_partition_oracle(eq: EquationSpec, degree: int) -> SolutionSeries:
    """Solution coefficients from the explicit multilinear recursion.

    The degree-n coefficient form of the solution is assembled by summing,
    over all splittings of the n argument slots into one (possibly empty)
    slot set fed to the x-arguments of a coefficient of psi and an
    unordered partition of the remaining slots into blocks fed to its
    y-arguments, the corresponding products of lower-degree solution
    values.  Slot sets are enumerated directly, so every partition is
    visited exactly once; no substitution machinery from the series module
    is involved.  Cost grows like the Bell numbers, hence the hard degree
    cap.
    """
    if not isinstance(degree, int) or degree < 1:
        raise ValueError(f"degree must be a positive integer, got {degree!r}")
    if degree > PARTITION_ORACLE_MAX_DEGREE:
        raise ValueError(
            f"the partition oracle is capped at degree "
            f"{PARTITION_ORACLE_MAX_DEGREE}, got {degree}")
    p, q, psi = eq.dim_x, eq.dim_y, eq.psi
    mode = psi.mode
    zero = zero_value(mode)

    coeff: list[dict] = [{} for _ in range(q)]
    by_alpha_r: list[dict] = [{} for _ in range(q)]
    for i, comp in enumerate(psi.components):
        for gamma, value in comp.terms.items():
            alpha, beta = tuple(gamma[:p]), tuple(gamma[p:])
            coeff[i][(alpha, beta)] = value
            r = sum(beta)
            if r:
                by_alpha_r[i].setdefault((alpha, r), []).append((beta, value))

    beta_zero = (0,) * q
    bvals: dict[int, dict[tuple, list]] = {}
    for n in range(1, degree + 1):
        level: dict[tuple, list] = {}
        for xs in combinations_with_replacement(range(p), n):
            level[xs] = _slot_sum(xs, n, p, q, coeff, by_alpha_r, bvals,
                                  beta_zero, zero)
        if mode != EXACT and not all(isfinite(v) for vec in level.values() for v in vec):
            raise _overflow(n)
        bvals[n] = level

    term_dicts: list[dict[tuple, Number]] = [{} for _ in range(q)]
    for n, level in bvals.items():
        for xs, vec in level.items():
            alpha = _pattern(xs, p)
            fact = multiindex_factorial(alpha)
            for i in range(q):
                if vec[i] != zero:
                    term_dicts[i][alpha] = vec[i] / fact
    comps = tuple(Series(p, degree, d, mode) for d in term_dicts)
    return SolutionSeries(phi=SeriesMap(comps), source=PARTITION_ORACLE)


def _slot_sum(xs, n, p, q, coeff, by_alpha_r, bvals, beta_zero, zero):
    total = [zero] * q
    slots = tuple(range(n))
    for m in range(n + 1):
        for chosen in combinations(slots, m):
            chosen_set = set(chosen)
            rest = tuple(t for t in slots if t not in chosen_set)
            alpha = _pattern((xs[t] for t in chosen), p)
            fa = multiindex_factorial(alpha)
            if not rest:
                for i in range(q):
                    value = coeff[i].get((alpha, beta_zero))
                    if value is not None:
                        total[i] = total[i] + value * fa
                continue
            for blocks in _set_partitions(rest):
                r = len(blocks)
                if m == 0 and r == 1:
                    continue  # would need the (absent) term linear in the unknowns
                bvecs = [bvals[len(block)][tuple(sorted(xs[t] for t in block))]
                         for block in blocks]
                for i in range(q):
                    entries = by_alpha_r[i].get((alpha, r))
                    if not entries:
                        continue
                    for beta, value in entries:
                        base = value * fa * multiindex_factorial(beta)
                        for assign in sorted(set(permutations(_expand(beta)))):
                            prod = base
                            for t, jt in enumerate(assign):
                                factor = bvecs[t][jt]
                                if factor == zero:
                                    prod = None
                                    break
                                prod = prod * factor
                            if prod is not None:
                                total[i] = total[i] + prod
    return total


# -- linear resolvent ----------------------------------------------------


def resolve_linear(raw: SeriesMap) -> EquationSpec:
    """Normalize a map with a linear part in the unknowns.

    Given ``y = raw(x, y)`` where ``raw`` carries a linear block ``L`` in
    the y variables, its last ``raw.output_dim`` ones, rewrite it as
    ``y = (I - L)^{-1} (raw - L y)`` so the result satisfies the
    no-linear-y normal form.  One ``_solve`` of ``(I - L) C = B``, B the
    non-linear coefficients, one column per term, gives every new
    coefficient, over the rationals in exact mode.  A singular
    ``I - L`` is an error, and in float mode so is one whose best pivot is
    at most ``FLOAT_PIVOT_MIN``.  The result carries componentwise norm profiles, and
    ``EquationSpec`` refuses it if ``raw`` has a constant term.
    """
    q = raw.output_dim
    p = raw.num_vars - q
    mode = raw.mode
    zero = zero_value(mode)
    one = 1 if mode == EXACT else 1.0
    units = [(0,) * p + tuple(int(k == j) for k in range(q)) for j in range(q)]
    M = [[(one if i == j else zero) - comp.terms.get(unit, zero)
          for j, unit in enumerate(units)] for i, comp in enumerate(raw.components)]
    gammas = sorted({g for comp in raw.components for g in comp.terms} - set(units))
    B = [[comp.coefficient(g) for g in gammas] for comp in raw.components]
    comps = tuple(Series(p + q, raw.degree_cap, dict(zip(gammas, row)), mode)
                  for row in _solve(M, B, mode))
    return EquationSpec(SeriesMap(comps), COMPONENTWISE, COMPONENTWISE)


def _solve(M: list[list], B: list[list], mode: str) -> list[list]:
    """X with ``M X = B``, by Gauss-Jordan elimination on ``[M | B]`` with
    partial pivoting, each pivot row scaled by the reciprocal ``one / pivot``.
    A singular M raises ``DomainError``, and in float mode so does one whose
    best pivot is at most ``FLOAT_PIVOT_MIN``."""
    n = len(M)
    one = 1 if mode == EXACT else 1.0
    # an exact solution does not depend on the pivot order, so both modes
    # take the largest pivot; only float refuses a tiny nonzero one
    tiny = 0 if mode == EXACT else FLOAT_PIVOT_MIN
    work = [list(row) + list(rhs) for row, rhs in zip(M, B)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(work[r][col]))  # the first largest
        if not abs(work[pivot_row][col]) > tiny:
            raise DomainError("the linear part cannot be resolved: I - L is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        inv = one / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and (factor := work[r][col]) != 0:
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]
