"""Componentwise vector order, norm profiles, and comparison equations.

The solver certifies convergence by replacing an equation ``y = psi(x, y)``
with a comparison equation ``Y = Psi(X, Y)`` whose coefficients dominate
the moduli of the original ones.  A comparison equation is an
``EquationSpec`` of positive type: componentwise profiles and no negative
coefficient, so every function that takes an equation takes one.  A norm
profile, how the vectors of one side are measured, is its kind alone:
``SCALAR``, ``COMPONENTWISE`` or ``AGGREGATE``, the string the file format
stores.  This module owns the small vector lattice used for that
bookkeeping, the equation containers and their file format, and the
construction of the dominating comparison equation, which keeps two map
kernels, of Psi and of ``dPsi/dY`` (``_float_kernels``), as its float engine,
and which unknowns each support of x feeds (``_support``), as every search's.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from math import isfinite
from operator import add, sub
from typing import Iterable, Mapping, Sequence

from .errors import SpecFormatError
from .series import (EXACT, FLOAT, Number, Series, SeriesMap, _bracket, _cached, _nearest_plan,
                     _set, _up, _Value, coerce_value, format_value, parse_value, zero_value)

SCALAR = "scalar"
COMPONENTWISE = "componentwise"
AGGREGATE = "aggregate"
PROFILE_KINDS = (SCALAR, COMPONENTWISE, AGGREGATE)
# relative margin a float majorant sample must clear to count as a violation
SAMPLE_SLACK = 1e-9


class LatticeVec(_Value):
    """A finite vector ordered entry by entry."""

    _fields = ("entries",)
    entries: tuple[Number, ...]

    def __init__(self, entries: Iterable[Number]) -> None:
        _set(self, "entries", tuple(entries))

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def norm(kind: str, v: Sequence[Number]) -> LatticeVec:
    """Measure ``v`` by a profile of ``kind``: the max norm for
    ``AGGREGATE``, every coordinate modulus otherwise."""
    return LatticeVec(_measure(kind, v.entries if isinstance(v, LatticeVec) else v))


def _measure(kind: str, v: Iterable[Number]) -> tuple:
    """The entries of ``norm(kind, v)``."""
    return (max(map(abs, v)),) if kind == AGGREGATE else tuple(map(abs, v))


class EquationSpec(_Value):
    """An implicit equation ``y = psi(x, y)`` in normalized form.

    ``psi`` is a truncated map with no constant term and no term linear in
    y alone.  Its outputs are the unknowns y, so ``dim_y`` is its output
    count, and its other variables, which come first, are the x block.
    ``profile_x`` and ``profile_y`` are the kinds of norm that measure each
    side, one of ``PROFILE_KINDS``; a scalar one needs a side of dimension 1.
    """

    _fields = ("psi", "profile_x", "profile_y")
    psi: SeriesMap
    profile_x: str
    profile_y: str

    def __init__(self, psi: SeriesMap, profile_x: str, profile_y: str) -> None:
        _set(self, "psi", psi)
        _set(self, "profile_x", profile_x)
        _set(self, "profile_y", profile_y)
        if self.dim_x < 1:
            raise ValueError("dim_x and dim_y must be positive")
        for kind, dim in ((self.profile_x, self.dim_x),
                          (self.profile_y, self.dim_y)):
            if kind not in PROFILE_KINDS:
                raise ValueError(f"unknown norm profile kind {kind!r}; "
                                 f"expected one of {PROFILE_KINDS}")
            if kind == SCALAR and dim != 1:
                raise ValueError(
                    "a scalar norm profile needs a one-dimensional primal space")
        if self.psi.degree_cap < 1:
            raise ValueError("the degree cap must be at least 1")
        for i, comp in enumerate(self.psi.components):
            for gamma in comp.terms:
                if sum(gamma) == 0:
                    raise SpecFormatError(
                        f"component {i}: constant term is not allowed; the map "
                        f"must vanish at the origin")
                if sum(gamma[:self.dim_x]) == 0 and sum(gamma[self.dim_x:]) == 1:
                    raise SpecFormatError(
                        f"component {i}: linear y term {tuple(gamma)} is not "
                        f"allowed; resolve the linear part first")

    @property
    def dim_x(self) -> int:
        return self.psi.num_vars - self.psi.output_dim

    @property
    def dim_y(self) -> int:
        return self.psi.output_dim

    @property
    def mode(self) -> str:
        return self.psi.mode

    @property
    def degree_cap(self) -> int:
        return self.psi.degree_cap


class ComparisonEquation(EquationSpec):
    """A dominating equation ``Y = Psi(X, Y)`` of positive type.

    An equation with componentwise profiles whose coefficients are all
    non-negative, so the fixed-point iterates started at zero increase
    monotonically.
    """

    def __init__(self, psi: SeriesMap) -> None:
        super().__init__(psi, COMPONENTWISE, COMPONENTWISE)
        for i, comp in enumerate(self.psi.components):
            for gamma, value in comp.terms.items():
                if value < 0:
                    raise ValueError(
                        f"component {i} has a negative coefficient at "
                        f"{tuple(gamma)}: not of positive type")
        _set(self, "_supports", {})  # _support's, by pattern: a Series is unhashable

    def _support(self, pattern: tuple) -> tuple:
        """``(fed, cyclic)`` at every x nonzero exactly where ``pattern`` is
        true: the unknowns that some chain of terms reaches from x's
        support, in order, all others being 0 in every Kleene iterate, and
        whether ``dPsi/dY`` has a cycle on them, a walk of length ``dim_y``
        in its pattern.  The fed set is ``dim_y`` Kleene steps at ``x``,
        ``Y`` in {0, 1}, where a kernel with every leaf 1.0 is nonzero
        exactly when a term lives on the ones, however small its
        coefficient; it is closed under one step.  Kept per pattern."""
        if (got := self._supports.get(pattern)) is None:
            (psi, leaves), (jac, jac_leaves) = self._float_kernels
            q, fed = self.dim_y, (0.0,) * self.dim_y
            for _ in range(q):
                fed = tuple(float(v != 0) for v in psi(pattern + fed, [1.0] * len(leaves), 0.0))
            J, walk = jac(pattern + fed, [1.0] * len(jac_leaves), 0.0), fed
            for _ in range(q):
                walk = [any(w and J[i * q + j] for j, w in enumerate(walk)) for i in range(q)]
            got = self._supports[pattern] = tuple(i for i in range(q) if fed[i]), any(walk)
        return got

    @_cached
    def _float_kernels(self) -> tuple:
        """The map kernels of ``Psi`` and of ``dPsi/dY``, ``dPsi_i/dY_j`` at
        ``i * dim_y + j``, on their coefficients rounded to nearest
        (``_nearest_plan``) in either mode; not a field.  The float engine:
        Newton, the Kleene trace and the graph search on it, and ``_bracket``
        makes it prove."""
        return _nearest_plan(self.psi), _nearest_plan(self._bracket[3])

    @_cached
    def _bracket(self) -> tuple:
        """``series._bracket`` of Psi, and the map ``dPsi/dY`` on Psi's exact
        coefficients, whose plan the float Jacobian and ``Fraction`` share."""
        exact = [Series._ring(c.num_vars, c.degree_cap, dict(zip(c.terms, map(
            Fraction, c.terms.values()))), EXACT) for c in self.psi.components]
        return (*_bracket(self.psi.components),
                SeriesMap([c.partial(self.dim_x + j) for c in exact for j in range(self.dim_y)]))


def check_comparison(cmp: ComparisonEquation) -> None:
    """Refuse anything but a ``ComparisonEquation``: no other type vouches
    for non-negative coefficients."""
    if not isinstance(cmp, ComparisonEquation):
        raise TypeError(f"a ComparisonEquation is required, got {type(cmp).__name__}")


def _comparison_dims(eq: EquationSpec) -> tuple[int, int]:
    """The dimensions of the comparison of ``eq``: an aggregate side, measured
    by one norm, collapses to one variable; the other keeps its own."""
    return (1 if eq.profile_x == AGGREGATE else eq.dim_x,
            1 if eq.profile_y == AGGREGATE else eq.dim_y)


def majorant(eq: EquationSpec) -> ComparisonEquation:
    """Build the comparison equation dominating ``eq``.

    One fold builds every comparison.  A componentwise (or scalar) side
    keeps its exponents, so it merges nothing and its dimensions carry
    over; each aggregate side collapses on its own to one norming
    variable, as ``|x^alpha| <= |x|^|alpha|`` in the max norm: an
    aggregate x side sums the coefficient moduli over ``alpha`` of equal
    ``|alpha|``; an aggregate y side sums over ``beta`` of equal ``|beta|``
    and keeps the largest sum of any output component, a bound coarser
    than the operator norm.  A term that meets no other keeps its modulus;
    the sums are exact, and in float mode each is then rounded up, so a
    rounded sum never falls below the moduli it bounds.
    """
    p = eq.dim_x
    fold_x, fold_y = eq.profile_x == AGGREGATE, eq.profile_y == AGGREGATE
    sums: list[dict[tuple, Number]] = []
    for comp in eq.psi.components:
        acc: dict[tuple, Number] = {}
        for gamma, value in comp.terms.items():
            alpha, beta = gamma[:p], gamma[p:]
            key = ((sum(alpha),) if fold_x else alpha) + ((sum(beta),) if fold_y else beta)
            acc[key] = Fraction(acc[key]) + abs(Fraction(value)) if key in acc else abs(value)
        sums.append(acc)
    if fold_y:  # the first largest sum, keys in order of first appearance
        sums = [{k: max(acc[k] for acc in sums if k in acc) for acc in sums for k in acc}]
    if eq.mode == FLOAT:
        sums = [{k: _up(v) for k, v in acc.items()} for acc in sums]
    num_vars = sum(_comparison_dims(eq))
    return ComparisonEquation(SeriesMap(tuple(
        Series(num_vars, eq.degree_cap, acc, eq.mode) for acc in sums)))


def check_majorant_shape(eq: EquationSpec, cmp: EquationSpec) -> None:
    """Refuse a ``cmp`` that cannot dominate ``eq``: another mode, or
    dimensions other than those ``majorant`` gives it."""
    if eq.mode != cmp.mode:
        raise ValueError(f"mode mismatch: {eq.mode} vs {cmp.mode}")
    if _comparison_dims(eq) != (cmp.dim_x, cmp.dim_y):
        raise ValueError(
            "the norm profiles do not match the comparison equation dimensions")


# -- sampled domination check -------------------------------------------


class MajorantViolation(namedtuple("MajorantViolation", "kind component point increment lhs rhs")):
    """A failed inequality at a drawn point and increment (None for a value check)."""

    __slots__ = ()


class MajorantSampleReport(namedtuple("MajorantSampleReport",
                                      "points_checked increments_checked violations")):
    """The counts checked and a tuple of ``MajorantViolation``s."""

    __slots__ = ()


def check_majorant_samples(eq: EquationSpec, cmp: ComparisonEquation,
                           n_samples: int, box: tuple[LatticeVec, LatticeVec],
                           check_increments: bool = False,
                           rng: random.Random | None = None) -> MajorantSampleReport:
    """Spot-check the domination of ``eq`` by ``cmp`` on random points.

    Draws ``n_samples >= 1`` points from the box (and, when asked, the same
    number of increment pairs) and verifies the value and increment
    inequalities that a majorant must satisfy, running each map's compiled
    kernel (``SeriesMap._plan``) once per drawn tuple.  In float mode a violation
    needs to clear the relative ``SAMPLE_SLACK`` before it is reported, and a
    box whose draws, pair sums or values overflow raises, since inf compares
    false against anything; exact mode tolerates nothing.
    """
    check_majorant_shape(eq, cmp)
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    lo, hi = box
    dim = eq.dim_x + eq.dim_y
    if lo.dimension != dim or hi.dimension != dim:
        raise ValueError(f"box corners have dimensions {lo.dimension} and "
                         f"{hi.dimension}, expected {dim}")
    spans = []
    for a, b in zip(lo.entries, hi.entries):
        a, b = coerce_value(a, eq.mode), coerce_value(b, eq.mode)
        if a > b:
            raise ValueError("box lower corner exceeds upper corner")
        spans.append((a, b - a))
    exact, overflow = eq.mode == EXACT, f"values overflow on the box from {lo} to {hi}"
    # a float draw z has |z| <= max(-a, a + span), as random() < 1; a pair sum twice that
    reach = 2.0 if check_increments else 1.0
    if not (exact or all(isfinite(reach * max(-a, a + s)) for a, s in spans)):
        raise ValueError(overflow)
    rng = random.Random(0) if rng is None else rng
    unit = (lambda: Fraction(rng.randrange(65537), 65536)) if exact else rng.random
    psi, Psi = eq.psi._plan, cmp.psi._plan
    zero, p = zero_value(eq.mode), eq.dim_x
    violations: list[MajorantViolation] = []

    def draw() -> tuple:
        return tuple(a + s * unit() for a, s in spans)

    def norms(z: tuple) -> tuple:
        return _measure(eq.profile_x, z[:p]) + _measure(eq.profile_y, z[p:])

    def values(plan: tuple, z: tuple) -> tuple:
        run, leaves = plan
        return run(z, leaves, zero)

    def compare(kind: str, z: tuple, w: tuple | None, lhs, rhs) -> None:
        for i, (a, b) in enumerate(zip(lhs, rhs)):
            if not (exact or (isfinite(a) and isfinite(b))):
                raise ValueError(overflow)
            if a > (b if exact else b + SAMPLE_SLACK * max(1.0, abs(b))):
                violations.append(MajorantViolation(kind, i, z, w, a, b))

    for z in [draw() for _ in range(n_samples)]:
        compare("value", z, None, _measure(eq.profile_y, values(psi, z)), values(Psi, norms(z)))
    pairs = [(draw(), draw()) for _ in range(n_samples if check_increments else 0)]
    for z, w in pairs:
        Z, W = norms(z), norms(w)
        move = map(sub, values(psi, tuple(map(add, z, w))), values(psi, z))
        compare("increment", z, w, _measure(eq.profile_y, move),
                map(sub, values(Psi, tuple(map(add, Z, W))), values(Psi, Z)))
    return MajorantSampleReport(points_checked=n_samples, increments_checked=len(pairs),
                                violations=tuple(violations))


# -- equation files ------------------------------------------------------


def equation_to_dict(eq: EquationSpec) -> dict:
    """Serialize an equation to the canonical JSON-ready dictionary."""
    terms = []
    for i, comp in enumerate(eq.psi.components):
        for gamma in sorted(comp.terms, key=lambda g: (sum(g), g)):
            terms.append({
                "output": i,
                "alpha": list(gamma[:eq.dim_x]),
                "beta": list(gamma[eq.dim_x:]),
                "value": format_value(comp.terms[gamma], eq.mode),
            })
    return {
        "dim_x": eq.dim_x,
        "dim_y": eq.dim_y,
        "mode": eq.mode,
        "profile_x": eq.profile_x,
        "profile_y": eq.profile_y,
        "degree_cap": eq.degree_cap,
        "terms": terms,
    }


def _require(data: Mapping, key: str, kind: type):
    if key not in data:
        raise SpecFormatError(f"missing field {key!r}")
    value = data[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SpecFormatError(f"field {key!r} must be an integer, got {value!r}")
    elif not isinstance(value, kind):
        raise SpecFormatError(
            f"field {key!r} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def equation_from_dict(data: Mapping) -> EquationSpec:
    """Parse the canonical dictionary form, naming the offending field on error.

    Only the document's own structure is checked here.  The normal form (no
    constant term, no term linear in y alone, no term above the cap) is
    refused by ``Series`` and ``EquationSpec``, whose messages name the term.
    """
    if not isinstance(data, Mapping):
        raise SpecFormatError("an equation document must be a JSON object")
    dim_x = _require(data, "dim_x", int)
    dim_y = _require(data, "dim_y", int)
    mode = _require(data, "mode", str)
    if mode not in (EXACT, FLOAT):
        raise SpecFormatError(f"field 'mode' must be 'exact' or 'float', got {mode!r}")
    profile_x = _require(data, "profile_x", str)
    profile_y = _require(data, "profile_y", str)
    degree_cap = _require(data, "degree_cap", int)
    raw_terms = _require(data, "terms", list)
    if dim_x < 1 or dim_y < 1:
        raise SpecFormatError("dim_x and dim_y must be positive")
    term_dicts: list[dict[tuple, Number]] = [{} for _ in range(dim_y)]
    for k, rec in enumerate(raw_terms):
        if not isinstance(rec, Mapping):
            raise SpecFormatError(f"terms[{k}] must be an object")
        try:
            output = rec["output"]
            alpha = rec["alpha"]
            beta = rec["beta"]
            value = rec["value"]
        except KeyError as exc:
            raise SpecFormatError(
                f"terms[{k}] is missing field {exc.args[0]!r}") from None
        if not isinstance(output, int) or isinstance(output, bool) \
                or not 0 <= output < dim_y:
            raise SpecFormatError(
                f"terms[{k}]: output {output!r} out of range for dim_y={dim_y}")
        if not isinstance(alpha, list) or len(alpha) != dim_x:
            raise SpecFormatError(
                f"terms[{k}]: alpha must be a list of {dim_x} exponents")
        if not isinstance(beta, list) or len(beta) != dim_y:
            raise SpecFormatError(
                f"terms[{k}]: beta must be a list of {dim_y} exponents")
        for e in list(alpha) + list(beta):
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise SpecFormatError(
                    f"terms[{k}]: exponents must be non-negative integers")
        gamma = tuple(alpha) + tuple(beta)
        if gamma in term_dicts[output]:
            raise SpecFormatError(
                f"terms[{k}]: duplicate term for output {output} at {gamma}")
        try:
            term_dicts[output][gamma] = parse_value(value, mode)
        except ValueError as exc:
            raise SpecFormatError(f"terms[{k}]: {exc}") from None
    try:
        psi = SeriesMap(tuple(Series(dim_x + dim_y, degree_cap, d, mode)
                              for d in term_dicts))
        return EquationSpec(psi, profile_x, profile_y)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None
