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
construction of the dominating comparison equation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite
from typing import Mapping, Sequence

from .errors import SpecFormatError
from .series import (EXACT, FLOAT, Number, Series, SeriesMap, coerce_value,
                     format_value, parse_value, zero_value)

SCALAR = "scalar"
COMPONENTWISE = "componentwise"
AGGREGATE = "aggregate"
PROFILE_KINDS = (SCALAR, COMPONENTWISE, AGGREGATE)
# relative margin a float majorant sample must clear to count as a violation
SAMPLE_SLACK = 1e-9


@dataclass(frozen=True)
class LatticeVec:
    """A finite vector ordered entry by entry."""

    entries: tuple[Number, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def _check_dim(self, other: LatticeVec) -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError(
                f"dimension mismatch: {len(self.entries)} vs {len(other.entries)}")

    def __add__(self, other: LatticeVec) -> LatticeVec:
        self._check_dim(other)
        return LatticeVec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scale(self, factor: Number) -> LatticeVec:
        return LatticeVec(tuple(e * factor for e in self.entries))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.entries) + ")"


def norm(kind: str, v: Sequence[Number]) -> LatticeVec:
    """Measure ``v`` by a profile of ``kind``: the max norm for
    ``AGGREGATE``, every coordinate modulus otherwise."""
    entries = tuple(v.entries) if isinstance(v, LatticeVec) else tuple(v)
    if kind == AGGREGATE:
        return LatticeVec((max(abs(e) for e in entries),))
    return LatticeVec(tuple(abs(e) for e in entries))


@dataclass(frozen=True)
class EquationSpec:
    """An implicit equation ``y = psi(x, y)`` in normalized form.

    ``psi`` is a truncated map in ``dim_x + dim_y`` variables (the x block
    first) with ``dim_y`` outputs, no constant term, and no term linear in
    y alone.  ``profile_x`` and ``profile_y`` are the kinds of norm that
    measure each side, one of ``PROFILE_KINDS``; a scalar one needs a side
    of dimension 1.
    """

    dim_x: int
    dim_y: int
    psi: SeriesMap
    profile_x: str
    profile_y: str

    def __post_init__(self) -> None:
        for kind, dim in ((self.profile_x, self.dim_x),
                          (self.profile_y, self.dim_y)):
            if kind not in PROFILE_KINDS:
                raise ValueError(f"unknown norm profile kind {kind!r}; "
                                 f"expected one of {PROFILE_KINDS}")
            if kind == SCALAR and dim != 1:
                raise ValueError(
                    "a scalar norm profile needs a one-dimensional primal space")
        if self.dim_x < 1 or self.dim_y < 1:
            raise ValueError("dim_x and dim_y must be positive")
        if self.psi.num_vars != self.dim_x + self.dim_y:
            raise ValueError(
                f"psi has {self.psi.num_vars} variables, expected "
                f"{self.dim_x + self.dim_y}")
        if self.psi.output_dim != self.dim_y:
            raise ValueError(
                f"psi has {self.psi.output_dim} outputs, expected {self.dim_y}")
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
    def mode(self) -> str:
        return self.psi.mode

    @property
    def degree_cap(self) -> int:
        return self.psi.degree_cap


@dataclass(frozen=True, init=False)
class ComparisonEquation(EquationSpec):
    """A dominating equation ``Y = Psi(X, Y)`` of positive type.

    An equation with componentwise profiles whose coefficients are all
    non-negative, so the fixed-point iterates started at zero increase
    monotonically.
    """

    def __init__(self, dim_x: int, dim_y: int, psi: SeriesMap) -> None:
        super().__init__(dim_x, dim_y, psi, COMPONENTWISE, COMPONENTWISE)

    def __post_init__(self) -> None:
        super().__post_init__()
        for i, comp in enumerate(self.psi.components):
            for gamma, value in comp.terms.items():
                if value < 0:
                    raise ValueError(
                        f"component {i} has a negative coefficient at "
                        f"{tuple(gamma)}: not of positive type")

    def as_float(self) -> ComparisonEquation:
        if self.mode == FLOAT:
            return self
        return ComparisonEquation(self.dim_x, self.dim_y, self.psi.as_float())


def series_abs(s: Series) -> Series:
    """Entrywise modulus of the coefficients."""
    return Series(s.num_vars, s.degree_cap,
                  {a: abs(v) for a, v in s.terms.items()}, s.mode)


def map_abs(m: SeriesMap) -> SeriesMap:
    return SeriesMap(tuple(series_abs(comp) for comp in m.components))


def majorant(eq: EquationSpec) -> ComparisonEquation:
    """Build the comparison equation dominating ``eq``.

    With componentwise (or scalar) profiles on both sides, the moduli of
    the coefficients are a majorant and the dimensions carry over.  As
    soon as an aggregate profile is involved, everything collapses to one
    norming variable per side and the coefficient at bidegree ``(m, n)``
    is the largest coefficient-modulus sum any output component carries at
    that bidegree; that sum bounds the max norm of the corresponding
    symmetric multilinear term, though it is coarser than the tight
    operator norm.
    """
    if AGGREGATE not in (eq.profile_x, eq.profile_y):
        return ComparisonEquation(eq.dim_x, eq.dim_y, map_abs(eq.psi))
    p = eq.dim_x
    cap = eq.degree_cap
    mode = eq.mode
    zero = zero_value(mode)
    sums: list[dict[tuple[int, int], Number]] = []
    for comp in eq.psi.components:
        acc: dict[tuple[int, int], Number] = {}
        for gamma, value in comp.terms.items():
            key = (sum(gamma[:p]), sum(gamma[p:]))
            acc[key] = acc.get(key, zero) + abs(value)
        sums.append(acc)
    terms: dict[tuple[int, int], Number] = {}
    for acc in sums:
        for key, value in acc.items():
            if key not in terms or value > terms[key]:
                terms[key] = value
    collapsed = Series(2, cap, {(m, n): v for (m, n), v in terms.items()}, mode)
    return ComparisonEquation(1, 1, SeriesMap((collapsed,)))


# -- sampled domination check -------------------------------------------


@dataclass(frozen=True)
class MajorantViolation:
    kind: str
    component: int
    point: tuple[Number, ...]
    increment: tuple[Number, ...] | None
    lhs: Number
    rhs: Number


@dataclass(frozen=True)
class MajorantSampleReport:
    points_checked: int
    increments_checked: int
    violations: tuple[MajorantViolation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def _draw_point(rng: random.Random, lo: LatticeVec, hi: LatticeVec, mode: str):
    if mode == FLOAT:
        return tuple(a + (b - a) * rng.random()
                     for a, b in zip(lo.entries, hi.entries))
    denom = 1 << 16
    return tuple(a + (b - a) * Fraction(rng.randrange(denom + 1), denom)
                 for a, b in zip(lo.entries, hi.entries))


def _norms(eq: EquationSpec, cmp: ComparisonEquation,
           z: tuple[Number, ...]) -> LatticeVec:
    """The norms of the x and y blocks of a primal point, as one lattice vector."""
    Xn = norm(eq.profile_x, z[:eq.dim_x])
    Yn = norm(eq.profile_y, z[eq.dim_x:])
    if Xn.dimension != cmp.dim_x or Yn.dimension != cmp.dim_y:
        raise ValueError(
            "the norm profiles do not match the comparison equation dimensions")
    return LatticeVec(Xn.entries + Yn.entries)


def check_majorant_samples(eq: EquationSpec, cmp: ComparisonEquation,
                           n_samples: int, box: tuple[LatticeVec, LatticeVec],
                           check_increments: bool = False,
                           rng: random.Random | None = None) -> MajorantSampleReport:
    """Spot-check the domination of ``eq`` by ``cmp`` on random points.

    Draws ``n_samples >= 1`` points from the box (and, when asked, the same
    number of increment pairs) and verifies the value and increment
    inequalities that a majorant must satisfy.  In float mode a violation
    needs to clear the relative ``SAMPLE_SLACK`` before it is reported, and
    a value that overflows raises, since it compares false against anything;
    exact mode tolerates nothing.
    """
    if eq.mode != cmp.mode:
        raise ValueError(f"mode mismatch: {eq.mode} vs {cmp.mode}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    lo, hi = box
    lo._check_dim(hi)
    if lo.dimension != eq.dim_x + eq.dim_y:
        raise ValueError(
            f"box has dimension {lo.dimension}, expected {eq.dim_x + eq.dim_y}")
    for a, b in zip(lo.entries, hi.entries):
        coerce_value(a, eq.mode)
        coerce_value(b, eq.mode)
        if a > b:
            raise ValueError("box lower corner exceeds upper corner")
    if rng is None:
        rng = random.Random(0)
    exact = eq.mode == EXACT

    def exceeded(lhs: Number, rhs: Number) -> bool:
        if exact:
            return lhs > rhs
        if not (isfinite(lhs) and isfinite(rhs)):
            raise ValueError(f"values overflow on the box from {lo} to {hi}")
        return lhs > rhs + SAMPLE_SLACK * max(1.0, abs(rhs))

    violations: list[MajorantViolation] = []
    points = [_draw_point(rng, lo, hi, eq.mode) for _ in range(n_samples)]
    for z in points:
        Z = _norms(eq, cmp, z)
        lhs = norm(eq.profile_y, eq.psi.evaluate(z))
        rhs = cmp.psi.evaluate(Z.entries)
        for i, (a, b) in enumerate(zip(lhs.entries, rhs)):
            if exceeded(a, b):
                violations.append(MajorantViolation(
                    kind="value", component=i, point=z, increment=None,
                    lhs=a, rhs=b))
    increments = 0
    if check_increments:
        for _ in range(n_samples):
            z = _draw_point(rng, lo, hi, eq.mode)
            w = _draw_point(rng, lo, hi, eq.mode)
            increments += 1
            zw = tuple(a + b for a, b in zip(z, w))
            Z = _norms(eq, cmp, z)
            W = _norms(eq, cmp, w)
            move = [a - b for a, b in
                    zip(eq.psi.evaluate(zw), eq.psi.evaluate(z))]
            lhs = norm(eq.profile_y, move)
            base = cmp.psi.evaluate(Z.entries)
            bumped = cmp.psi.evaluate((Z + W).entries)
            for i, (a, lo_v, hi_v) in enumerate(zip(lhs.entries, base, bumped)):
                if exceeded(a, hi_v - lo_v):
                    violations.append(MajorantViolation(
                        kind="increment", component=i, point=z, increment=w,
                        lhs=a, rhs=hi_v - lo_v))
    return MajorantSampleReport(points_checked=len(points),
                                increments_checked=increments,
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
    """Parse the canonical dictionary form, naming the offending field on error."""
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
    if degree_cap < 1:
        raise SpecFormatError("degree_cap must be at least 1")
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
        if sum(alpha) + sum(beta) == 0:
            raise SpecFormatError(f"terms[{k}]: constant term is not allowed")
        if sum(alpha) == 0 and sum(beta) == 1:
            raise SpecFormatError(
                f"terms[{k}]: linear y term is not allowed; resolve the linear "
                f"part before writing the equation")
        if sum(alpha) + sum(beta) > degree_cap:
            raise SpecFormatError(
                f"terms[{k}]: total degree {sum(alpha) + sum(beta)} exceeds "
                f"degree_cap {degree_cap}")
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
        return EquationSpec(dim_x, dim_y, psi, profile_x, profile_y)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None
