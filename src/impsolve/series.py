"""Truncated multivariate power series arithmetic.

A :class:`Series` holds the monomial coefficients of a polynomial in
``num_vars`` variables up to a fixed total degree ``degree_cap``.  Terms
are stored sparsely in a mapping from exponent vectors, plain tuples of
naturals, to nonzero coefficients.  Two coefficient modes exist and are
kept strictly apart:

``"exact"``
    coefficients are :class:`fractions.Fraction`; every operation is
    exact arithmetic over the rationals.

``"float"``
    coefficients are finite IEEE doubles.

Mixing modes in one operation raises an error, and no series is converted
between modes: float work on exact coefficients runs :func:`_nearest_plan`,
an untrusted image that only searches, and is checked on the exact series.

Terms are checked where they come in: the public constructor and
:meth:`Series.coefficient` check every key and value.  Sums, products and
substitutions of checked terms get their keys and value types right by
construction, so a ring result (``Series._ring``) is only cleared of the
zeros cancellation leaves and refused if float overflow left inf or nan.

All ring operations truncate their result to the shared degree cap, a
substitution to the inner cap.  In exact mode the retained coefficients equal
those of the untruncated result; for substitution this holds because the
inner series vanish at the origin: dropped cross terms and outer terms above
the cap feed only degrees above it.  Evaluation and substitution share one
engine: a map, or a series as a map of one component, compiles its Horner
plans once into one straight-line function, generated from integer indices
alone, never from a value (``_compile``), that returns their values in one
tuple.  The same nearest kernels also prove: ``_bracket`` bounds their
rounding on non-negative data, and ``Fraction`` stands in where it cannot.

The monomial coefficient ``c[alpha]`` of a degree-``n`` term is the value
of the completely symmetric n-linear coefficient form on the basis
multiset with exponent pattern ``alpha``, divided by ``alpha!``, the
product of the factorials of the entries.  The solver's partition oracle
works in that multilinear form.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from .errors import SpecFormatError

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)

Number = Union[int, float, Fraction]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def _exponents(raw: Iterable[int], num_vars: int) -> tuple[int, ...]:
    """*raw* as an exponent vector of ``num_vars`` naturals, else ValueError."""
    alpha = tuple(raw)
    for e in alpha:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponents must be non-negative integers, got {e!r}")
    if len(alpha) != num_vars:
        raise ValueError(f"exponent vector {alpha} has length {len(alpha)}, expected {num_vars}")
    return alpha


def _normalised(terms: Mapping, mode: str) -> Mapping:
    """Read-only *terms* without zeros; refuses a non-finite float, the one
    thing besides a zero that arithmetic on valid terms can produce."""
    if mode == FLOAT:
        for value in terms.values():
            if not math.isfinite(value):
                raise ValueError(f"float coefficients must be finite, got {value!r}")
    return MappingProxyType({a: v for a, v in terms.items() if v})


def _over_common_denominator(s: Series) -> tuple:
    """``(items, den)``: an exact series' terms as integer numerators over
    ``den``, the lcm of their denominators; float terms as they are, over 1."""
    if s.mode == FLOAT:
        return s.terms.items(), 1
    den = math.lcm(*(v.denominator for v in s.terms.values()))
    return [(a, v.numerator * (den // v.denominator)) for a, v in s.terms.items()], den


def multiindex_factorial(alpha: Sequence[int]) -> int:
    out = 1
    for e in alpha:
        out *= math.factorial(e)
    return out


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown coefficient mode {mode!r}; expected one of {MODES}")
    return mode


def zero_value(mode: str) -> Number:
    return Fraction(0) if mode == EXACT else 0.0


def coerce_value(value: Number, mode: str) -> Number:
    """Validate that *value* belongs to *mode* and normalize it.

    Integers are welcome in both modes.  A float offered to exact mode or
    a Fraction offered to float mode is rejected: conversions between the
    modes must be requested explicitly, never performed on the sly.
    """
    if mode == EXACT:
        if type(value) is Fraction:
            return value
        if isinstance(value, bool):
            raise ValueError(f"not a coefficient: {value!r}")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise ValueError(
            f"exact mode takes Fraction or int coefficients, got {type(value).__name__}")
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a coefficient: {value!r}")
    if isinstance(value, Fraction):
        raise ValueError(
            "float mode does not accept Fraction coefficients; convert explicitly")
    if isinstance(value, (int, float)):
        out = _float(value, "coefficient")
        if not math.isfinite(out):
            raise ValueError(f"float coefficients must be finite, got {out!r}")
        return out
    raise ValueError(
        f"float mode takes float or int coefficients, got {type(value).__name__}")


def _float(value: Number, name: str) -> float:
    """``float(value)``, correctly rounded, refusing an int or Fraction
    ``name`` too large for a float."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} {value} is too large for a float") from None


def format_value(value: Number, mode: str) -> str:
    """Render a coefficient as its canonical string.

    Exact values become decimal-free rational literals (``"5"``,
    ``"-3/7"``) of any size: ``Decimal`` prints an int exactly, free of the
    interpreter's int-to-str digit limit.  Float values use the shortest
    decimal that round-trips.
    """
    if mode == EXACT:
        frac = Fraction(value)
        numerator = str(Decimal(frac.numerator))
        if frac.denominator == 1:
            return numerator
        return f"{numerator}/{str(Decimal(frac.denominator))}"
    return repr(float(value))


def parse_value(text: str, mode: str) -> Number:
    """Parse a coefficient literal under the rules of *mode*.

    An exact literal may have any number of digits: its numerator and
    denominator are read through ``Decimal``, the mirror of
    :func:`format_value`, free of the int-from-str digit limit.
    """
    if not isinstance(text, str):
        raise SpecFormatError(f"coefficient literals must be strings, got {text!r}")
    text = text.strip()
    if mode == EXACT:
        if not _RATIONAL_RE.match(text):
            raise SpecFormatError(
                f"bad exact coefficient {text!r}: expected an integer or p/q rational")
        numerator, _, denominator = text.partition("/")
        return Fraction(int(Decimal(numerator)), int(Decimal(denominator or 1)))
    if "/" in text:
        raise SpecFormatError(
            f"rational literal {text!r} is not allowed in float mode")
    try:
        out = float(text)
    except ValueError:
        raise SpecFormatError(f"bad float coefficient {text!r}") from None
    if not math.isfinite(out):
        raise SpecFormatError(f"float coefficients must be finite, got {text!r}")
    return out


# sets a field of a ``_Value`` in ``__init__``.  Unlike a write through
# ``__dict__``, it keeps the fields inline in the instance, where CPython
# 3.11 reads one in about 7 ns instead of 25
_set = object.__setattr__


class _cached:
    """A method run on first use, its value then kept with ``_set``, in line
    with the fields; ``cached_property`` writes it into ``__dict__``, which
    moves every field of the instance out of line."""

    def __init__(self, build) -> None:
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        _set(obj, self.name, value := self.build(obj))
        return value


class _Value:
    """An immutable value named by its ``_fields``: equal to an instance of
    its own class alone with equal fields, hashed and shown by them.  Every
    assignment raises; ``__init__`` sets the fields with ``_set``, and a
    ``_cached`` method keeps what it builds the same way."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Series(_Value):
    """A polynomial truncated at total degree ``degree_cap``.

    Instances are immutable; every operation returns a new series.  The
    ``terms`` mapping is exposed read-only and never contains zeros or
    exponents whose total degree exceeds the cap.
    """

    _fields = ("num_vars", "degree_cap", "terms", "mode")
    num_vars: int
    degree_cap: int
    terms: Mapping[tuple[int, ...], Number]
    mode: str

    def __init__(self, num_vars: int, degree_cap: int,
                 terms: Mapping[tuple[int, ...], Number], mode: str) -> None:
        _set(self, "num_vars", num_vars)
        _set(self, "degree_cap", degree_cap)
        _set(self, "terms", terms)
        _set(self, "mode", mode)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.num_vars, int) or self.num_vars < 1:
            raise ValueError(f"num_vars must be a positive integer, got {self.num_vars!r}")
        if not isinstance(self.degree_cap, int) or self.degree_cap < 0:
            raise ValueError(f"degree_cap must be a non-negative integer, got {self.degree_cap!r}")
        check_mode(self.mode)
        clean: dict[tuple[int, ...], Number] = {}
        for raw_alpha, raw_value in self.terms.items():
            alpha = _exponents(raw_alpha, self.num_vars)
            if sum(alpha) > self.degree_cap:
                raise ValueError(
                    f"term {alpha} of degree {sum(alpha)} exceeds the cap {self.degree_cap}")
            clean[alpha] = coerce_value(raw_value, self.mode)
        _set(self, "terms", _normalised(clean, self.mode))

    @classmethod
    def _ring(cls, num_vars: int, degree_cap: int, terms: dict, mode: str) -> Series:
        """A ring result, checked by :func:`_normalised` alone, not ``__post_init__``."""
        out = object.__new__(cls)
        _set(out, "num_vars", num_vars)
        _set(out, "degree_cap", degree_cap)
        _set(out, "terms", _normalised(terms, mode))
        _set(out, "mode", mode)
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, degree_cap: int, mode: str) -> Series:
        return cls(num_vars, degree_cap, {}, mode)

    @classmethod
    def monomial(cls, num_vars: int, degree_cap: int, mode: str,
                 exponents: Sequence[int], value: Number) -> Series:
        return cls(num_vars, degree_cap, {tuple(exponents): value}, mode)

    @classmethod
    def coordinate(cls, num_vars: int, degree_cap: int, mode: str, var: int) -> Series:
        """The series of the single variable ``var``."""
        if not 0 <= var < num_vars:
            raise ValueError(f"variable index {var} out of range for {num_vars} variables")
        exps = tuple(1 if j == var else 0 for j in range(num_vars))
        return cls.monomial(num_vars, degree_cap, mode, exps, 1)

    # -- queries --------------------------------------------------------

    def coefficient(self, exponents: Sequence[int]) -> Number:
        return self.terms.get(_exponents(exponents, self.num_vars), zero_value(self.mode))

    @property
    def constant_term(self) -> Number:
        return self.terms.get((0,) * self.num_vars, zero_value(self.mode))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structural helpers ---------------------------------------------

    def _check_compatible(self, other: Series, what: str) -> None:
        if not isinstance(other, Series):
            raise TypeError(f"cannot {what} Series and {type(other).__name__}")
        if self.mode != other.mode:
            raise ValueError(
                f"cannot {what} series of different modes ({self.mode} vs {other.mode})")
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"cannot {what} series in {self.num_vars} and {other.num_vars} variables")
        if self.degree_cap != other.degree_cap:
            raise ValueError(
                f"cannot {what} series with caps {self.degree_cap} and {other.degree_cap}")

    def with_cap(self, degree_cap: int) -> Series:
        """Same series viewed at a different cap; higher terms are dropped."""
        if not isinstance(degree_cap, int) or degree_cap < 0:
            raise ValueError(f"degree_cap must be a non-negative integer, got {degree_cap!r}")
        kept = {a: v for a, v in self.terms.items() if sum(a) <= degree_cap}
        return Series._ring(self.num_vars, degree_cap, kept, self.mode)

    # -- ring operations ------------------------------------------------

    def __add__(self, other: Series) -> Series:
        self._check_compatible(other, "add")
        out = dict(self.terms)
        for alpha, value in other.terms.items():
            out[alpha] = out[alpha] + value if alpha in out else value
        return Series._ring(self.num_vars, self.degree_cap, out, self.mode)

    def __neg__(self) -> Series:
        return Series._ring(self.num_vars, self.degree_cap,
                            {a: -v for a, v in self.terms.items()}, self.mode)

    def __sub__(self, other: Series) -> Series:
        return self + (-other)

    def __mul__(self, other: Series) -> Series:
        """The product, truncated at the cap.  Its pair loop adds integer keys,
        each term's exponents in radix ``cap + 1``, and forms an output's tuple
        once, from its first pair.  A pair above the cap is skipped before its
        keys are added, so no entry of a kept sum passes the cap, no digit
        carries, and equal keys mean equal exponents.  Exact operands enter as
        integer numerators over the lcm of their denominators, and each output
        is divided once by the product of the two lcms.  Left terms in order
        outside, right terms inside: that order fixes each float sum's rounding
        and the output's order, which ``test_solve_float_frozen`` pins."""
        self._check_compatible(other, "multiply")
        cap, n, mode = self.degree_cap, self.num_vars, self.mode
        if not (self.terms and other.terms):
            return Series._ring(n, cap, {}, mode)
        left, den_a = _over_common_denominator(self)
        right, den_b = _over_common_denominator(other)
        weights = [(cap + 1) ** j for j in range(n)]
        right = [(b, sum(b), sum(map(operator.mul, b, weights)), cb) for b, cb in right]
        out: dict[int, Number] = {}
        exponents: dict[int, tuple] = {}
        for a, ca in left:
            room, ka = cap - sum(a), sum(map(operator.mul, a, weights))
            for b, db, kb, cb in right:
                if db > room:
                    continue
                key, prod = ka + kb, ca * cb
                if key in out:
                    out[key] += prod
                else:
                    out[key], exponents[key] = prod, tuple(map(operator.add, a, b))
        values = out.values()  # in the order of ``exponents``, as both gain keys together
        if mode == EXACT:
            den = den_a * den_b
            values = map(Fraction, values) if den == 1 else (Fraction(v, den) for v in values)
        return Series._ring(n, cap, dict(zip(exponents.values(), values)), mode)

    def partial(self, var: int) -> Series:
        """Partial derivative with respect to variable ``var``.

        The result's cap drops by one: a truncated series determines its
        derivative only up to that degree.
        """
        if not 0 <= var < self.num_vars:
            raise ValueError(f"variable index {var} out of range for {self.num_vars} variables")
        new_cap = max(self.degree_cap - 1, 0)
        out: dict[tuple, Number] = {}
        for alpha, value in self.terms.items():
            e = alpha[var]
            if e == 0:
                continue
            key = tuple(x - 1 if j == var else x for j, x in enumerate(alpha))
            out[key] = value * e
        return Series._ring(self.num_vars, new_cap, out, self.mode)

    # -- evaluation -----------------------------------------------------

    @_cached
    def _plan(self) -> tuple:
        """Kernel and coefficients from :func:`_compile`, as a one-component
        map's, built on first use; not a field."""
        return _compile([self.terms], self.num_vars)

    def evaluate(self, point: Sequence[Number]) -> Number:
        """Horner-style evaluation at a point whose entries match the mode:
        the one value of :meth:`SeriesMap.evaluate` on this series' kernel."""
        return SeriesMap.evaluate(self, point)[0]

    # -- serialization --------------------------------------------------

    def to_records(self) -> list[dict]:
        """Canonical record list, ordered by degree then exponents."""
        out = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a)):
            out.append({"exponents": list(alpha),
                        "value": format_value(self.terms[alpha], self.mode)})
        return out

    @classmethod
    def from_records(cls, records: Iterable[Mapping], num_vars: int,
                     degree_cap: int, mode: str) -> Series:
        terms: dict[tuple, Number] = {}
        for k, rec in enumerate(records):
            try:
                exponents = tuple(rec["exponents"])
                value = rec["value"]
            except (KeyError, TypeError):
                raise ValueError(
                    f"record {k} must have 'exponents' and 'value' fields") from None
            if exponents in terms:
                raise ValueError(f"record {k} repeats exponents {exponents}")
            terms[exponents] = parse_value(value, mode)
        return cls(num_vars, degree_cap, terms, mode)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for alpha in sorted(self.terms, key=lambda a: (sum(a), a)):
            factors = [format_value(self.terms[alpha], self.mode)]
            for j, e in enumerate(alpha):
                if e == 1:
                    factors.append(f"x{j}")
                elif e > 1:
                    factors.append(f"x{j}^{e}")
            bits.append("*".join(factors))
        return " + ".join(bits)


def _nearest_plan(s: Series | SeriesMap) -> tuple:
    """``s._plan``'s kernel, a series' or a map's, on its coefficients rounded
    to nearest, which reads one below the float range as 0.0; one above it is refused."""
    run, coefficients = s._plan
    return run, tuple(_float(c, "coefficient") for c in coefficients)


def _down(value: Number) -> float:
    """The largest float at most ``value >= 0``."""
    f = float(min(value, sys.float_info.max))
    return f if f <= value else f - 5e-324 if f <= sys.float_info.min else f * (1 - 2 ** -53)


def _up(value: Number) -> float:
    """The least float at least ``value``, inf above the float range."""
    f = float(min(value, sys.float_info.max))
    return f if f >= value else math.nextafter(f, math.inf)


def _bracket(series: Sequence[Series]) -> tuple:
    """``(lo, hi, floor)``: ``lo*v <= exact <= hi*v``, each product rounded,
    for the nearest value v of a kernel of *series* at a point rounded to
    nearest, if v is finite and ``floor <= min(1, positive entries)``.  On
    non-negative data a term passes ``K <= 3|alpha| + num_vars + 1``
    roundings: a product, its entry and a sum per Horner step, a sum into
    each node, and the leaf, ``float(c)`` or ``fl(e*c)`` in a partial.  The
    gate, ``c*floor^deg >= 2^-1000`` (least coefficient c, top degree deg)
    and a normal floor, keeps every nonzero step normal, so v is within
    ``(1 +- u)^K`` of exact (Higham, *Accuracy and Stability*, Lemma 3.1);
    ``lo, hi = 1 -+ (K + 1) 2^-52``.  An entry rounded to 0 only lowers v."""
    deg = max([1, *(sum(a) for s in series for a in s.terms)])
    g = (3 * deg + series[0].num_vars + 2) * 2.0 ** -52
    c = float(min([sys.float_info.max, *(v for s in series for v in s.terms.values())]))
    return 1 - g, 1 + g, max(sys.float_info.min, 2 ** ((-1000 - math.log2(c or 5e-324)) / deg))


def _compile(terms: Sequence[Mapping], num_vars: int) -> tuple:
    """Kernel ``run(point, leaves, zero, scale=None)`` of a map's sequence of
    term sets, the tuple of each component's value, times ``scale`` where it
    is given, and its coefficients, in turn.

    Nested Horner form: a node of variable ``j`` starts from ``zero`` and,
    from the top power of ``x_j`` down to 0, multiplies by ``point[j]`` and
    adds the node of the lower variables with that power or, at ``j == 0``,
    the coefficient ``leaves[i]``.  The first step multiplies ``zero`` too,
    as that product fixes the sign of a zero result.  Each step is one
    assignment to the node's temporary, so nothing nests however long the
    plan; the source holds only integer indices and fixed names.  On floats
    ``_bracket`` bounds its rounding."""
    coefficients: list[Number] = []
    lines: list[str] = []
    temporaries = itertools.count()

    def node(terms: Mapping, var: int) -> str:
        groups: dict[int, dict] = {}
        for alpha, value in terms.items():
            groups.setdefault(alpha[var], {})[alpha] = value
        acc, prev = f"a{next(temporaries)}", "zero"
        for k in range(max(groups, default=-1), -1, -1):
            sub = groups.get(k)
            if sub is None:
                add = ""
            elif var == 0:
                add = f" + leaves[{len(coefficients)}]"
                coefficients.extend(sub.values())
            else:
                add = f" + {node(sub, var - 1)}"
            lines.append(f"{acc} = {prev} * t{var}{add}")
            prev = acc
        return prev

    roots = [node(component, num_vars - 1) for component in terms]
    names = "".join(f"t{j}, " for j in range(num_vars))
    values, scaled = ("".join(f"{times}{r}, " for r in roots) for times in ("", "scale * "))
    source = "\n    ".join([f"def run(point, leaves, zero, scale=None):\n    {names}= point",
                           *lines, f"if scale is None:\n        return ({values})",
                           f"return ({scaled})"])
    namespace: dict = {}
    exec(source, namespace)
    return namespace["run"], tuple(coefficients)


class SeriesMap(_Value):
    """A tuple of series over one shared variable space, cap, and mode."""

    _fields = ("components",)
    components: tuple[Series, ...]

    def __init__(self, components: Iterable[Series]) -> None:
        comps = tuple(components)
        if not comps:
            raise ValueError("a series map needs at least one component")
        head = comps[0]
        for comp in comps[1:]:
            head._check_compatible(comp, "combine into a map")
        _set(self, "components", comps)

    @property
    def num_vars(self) -> int:
        return self.components[0].num_vars

    @property
    def degree_cap(self) -> int:
        return self.components[0].degree_cap

    @property
    def mode(self) -> str:
        return self.components[0].mode

    @property
    def output_dim(self) -> int:
        return len(self.components)

    @_cached
    def _plan(self) -> tuple:
        """The map's one kernel and its coefficients (:func:`_compile`)."""
        return _compile([c.terms for c in self.components], self.num_vars)

    @classmethod
    def identity(cls, num_vars: int, degree_cap: int, mode: str) -> SeriesMap:
        return cls(tuple(Series.coordinate(num_vars, degree_cap, mode, j)
                         for j in range(num_vars)))

    @classmethod
    def zero(cls, num_vars: int, degree_cap: int, mode: str, output_dim: int) -> SeriesMap:
        return cls(tuple(Series.zero(num_vars, degree_cap, mode)
                         for _ in range(output_dim)))

    def with_cap(self, degree_cap: int) -> SeriesMap:
        return SeriesMap(tuple(comp.with_cap(degree_cap) for comp in self.components))

    def evaluate(self, point: Sequence[Number]) -> tuple[Number, ...]:
        """The values at a point whose entries match the mode, in one run of
        the map's kernel."""
        if len(point) != self.num_vars:
            raise ValueError(f"point has {len(point)} entries, expected {self.num_vars}")
        run, coefficients = self._plan
        return run([coerce_value(c, self.mode) for c in point], coefficients,
                   zero_value(self.mode))


def compose_series(outer: Series, inner: Sequence[Series]) -> Series:
    """Substitute the series ``inner[j]`` for variable ``j`` of ``outer``.

    Every inner component must vanish at the origin; this keeps the
    truncated substitution exact up to the inner cap.  So an outer term of
    degree d feeds only degrees of at least d, and the outer cap may lie
    above the inner one.  The substitution proceeds variable by variable in
    Horner form, so only degree-capped products are ever formed.
    """
    inner = list(inner)
    if len(inner) != outer.num_vars:
        raise ValueError(
            f"outer series has {outer.num_vars} variables but {len(inner)} "
            f"inner components were given")
    base = inner[0]
    for comp in inner[1:]:
        base._check_compatible(comp, "compose")
    if outer.degree_cap < base.degree_cap:
        raise ValueError(
            f"outer cap {outer.degree_cap} does not match inner cap {base.degree_cap}")
    if outer.mode != base.mode:
        raise ValueError(
            f"outer mode {outer.mode} does not match inner mode {base.mode}")
    zero = zero_value(outer.mode)
    for k, comp in enumerate(inner):
        if comp.constant_term != zero:
            raise ValueError(
                f"inner component {k} has a nonzero constant term; "
                f"substitution requires maps vanishing at the origin")
    run, coefficients = outer._plan
    n, cap = base.num_vars, base.degree_cap
    leaves = [Series._ring(n, cap, {(0,) * n: v}, base.mode) for v in coefficients]
    return run(inner, leaves, Series._ring(n, cap, {}, base.mode))[0]


def series_compose(outer: SeriesMap, inner: SeriesMap) -> SeriesMap:
    """Composition ``outer(inner(...))`` of two truncated maps."""
    if inner.output_dim != outer.num_vars:
        raise ValueError(
            f"inner map has {inner.output_dim} outputs but outer map "
            f"takes {outer.num_vars} variables")
    return SeriesMap(tuple(compose_series(comp, inner.components)
                           for comp in outer.components))
