"""Shared oracles and generators for the test suite.

Everything here recomputes results with plain dict arithmetic and closed
forms so the library is never used to check itself.  The dict convention
matches the library's storage (exponent tuple -> coefficient) but none of
the arithmetic below goes through Series.
"""

import math
import signal
from fractions import Fraction

from impsolve import (
    COMPONENTWISE,
    EXACT,
    FLOAT,
    ComparisonEquation,
    EquationSpec,
    Series,
    SeriesMap,
)


# ---------------------------------------------------------------------------
# naive polynomial arithmetic (the oracle ring)

def naive_mul(a, b, cap):
    """Dict-of-tuples product, truncated above total degree ``cap``."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if sum(k) > cap:
                continue
            out[k] = out.get(k, 0 * va) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def naive_pow(a, n, num_vars, cap, one):
    out = {(0,) * num_vars: one}
    for _ in range(n):
        out = naive_mul(out, a, cap)
    return out


def naive_substitute(outer, args, num_vars, cap, one):
    """Evaluate ``outer`` (a dict over len(args) variables) at polynomial
    arguments ``args`` (dicts over ``num_vars`` variables)."""
    total = {}
    for expo, coeff in outer.items():
        term = {(0,) * num_vars: one}
        for i, e in enumerate(expo):
            if e:
                term = naive_mul(
                    term, naive_pow(args[i], e, num_vars, cap, one), cap)
        for k, v in term.items():
            total[k] = total.get(k, 0 * coeff) + coeff * v
    return {k: v for k, v in total.items() if v != 0}


def naive_solve(terms, dim_x, dim_y, degree, one):
    """Fixed-point substitution with the naive ring.

    ``terms`` maps ``(output, alpha, beta)`` to a coefficient.  Returns a
    list of ``dim_y`` dicts over the x variables, coefficients correct up
    to total degree ``degree``.
    """
    coords = []
    for j in range(dim_x):
        e = tuple(1 if t == j else 0 for t in range(dim_x))
        coords.append({e: one})
    outers = []
    for i in range(dim_y):
        outer = {}
        for (out_i, alpha, beta), v in terms.items():
            if out_i == i:
                key = tuple(alpha) + tuple(beta)
                outer[key] = outer.get(key, 0 * v) + v
        outers.append(outer)
    phi = [{} for _ in range(dim_y)]
    for _ in range(degree):
        args = coords + phi
        phi = [naive_substitute(outers[i], args, dim_x, degree, one)
               for i in range(dim_y)]
    return phi


# ---------------------------------------------------------------------------
# closed forms

def catalan(n):
    """Catalan numbers by the convolution recurrence."""
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


def principal_quadratic(x):
    """Smaller root of Y = X + Y^2."""
    return (1.0 - math.sqrt(1.0 - 4.0 * x)) / 2.0


def signed_quadratic(x):
    """The series solution of y = x - y^2 evaluated in closed form."""
    return (-1.0 + math.sqrt(1.0 + 4.0 * x)) / 2.0


# ---------------------------------------------------------------------------
# equation builders

def quadratic_equation(mode=FLOAT, sign=1, cap=24):
    """y = x + sign * y^2 with componentwise profiles."""
    if mode == EXACT:
        one, s = Fraction(1), Fraction(sign)
    else:
        one, s = 1.0, float(sign)
    psi = SeriesMap((Series(2, cap, {(1, 0): one, (0, 2): s}, mode),))
    return EquationSpec(psi, COMPONENTWISE, COMPONENTWISE)


def quadratic_comparison(mode=FLOAT, cap=24):
    """Y = X + Y^2 as a comparison equation."""
    one = Fraction(1) if mode == EXACT else 1.0
    psi = SeriesMap((Series(2, cap, {(1, 0): one, (0, 2): one}, mode),))
    return ComparisonEquation(psi)


def scalar_comparison(terms, cap=24):
    """A one-in-one-out float comparison equation from a plain dict."""
    psi = SeriesMap((Series(2, cap, {k: float(v) for k, v in terms.items()},
                            FLOAT),))
    return ComparisonEquation(psi)


def random_equation(rng, mode=EXACT, cap=8, max_terms=6):
    """A seeded small equation plus its raw term dict for the oracle.

    Shapes follow the regression corpus convention: p, q <= 2, total
    degrees <= 3, no constant term, no linear y term, coefficients small
    rationals (exact mode) or their float images.
    """
    p = rng.randint(1, 2)
    q = rng.randint(1, 2)
    n_terms = rng.randint(3, max_terms)
    terms = {}
    guard = 0
    while len(terms) < n_terms and guard < 400:
        guard += 1
        i = rng.randrange(q)
        total = rng.randint(1, 3)
        alpha = [0] * p
        beta = [0] * q
        for _ in range(total):
            if rng.random() < 0.5:
                alpha[rng.randrange(p)] += 1
            else:
                beta[rng.randrange(q)] += 1
        alpha, beta = tuple(alpha), tuple(beta)
        if sum(alpha) == 0 and sum(beta) <= 1:
            continue
        num = rng.choice([-2, -1, 1, 2])
        den = rng.choice([1, 2])
        value = Fraction(num, den) if mode == EXACT else num / den
        terms[(i, alpha, beta)] = value
    comps = []
    for i in range(q):
        body = {alpha + beta: v
                for (out_i, alpha, beta), v in terms.items() if out_i == i}
        comps.append(Series(p + q, cap, body, mode))
    psi = SeriesMap(tuple(comps))
    eq = EquationSpec(psi, COMPONENTWISE, COMPONENTWISE)
    return eq, terms


def random_comparison(rng, cap=8):
    """A seeded positive-type float comparison equation, dims <= 2."""
    P = rng.randint(1, 2)
    Q = rng.randint(1, 2)
    comps = []
    for _ in range(Q):
        body = {}
        wanted = rng.randint(2, 4)
        guard = 0
        while len(body) < wanted and guard < 200:
            guard += 1
            total = rng.randint(1, 3)
            gamma = [0] * (P + Q)
            for _ in range(total):
                gamma[rng.randrange(P + Q)] += 1
            gamma = tuple(gamma)
            if sum(gamma[:P]) == 0 and sum(gamma) <= 1:
                continue
            body[gamma] = rng.randint(1, 4) / 2.0
        comps.append(Series(P + Q, cap, body, FLOAT))
    return ComparisonEquation(SeriesMap(tuple(comps)))


# ---------------------------------------------------------------------------
# exact least fixed points of positive systems

def exact_polys(cmp_eq):
    """The components of a comparison equation as exact dicts over (X, Y)."""
    return [{g: Fraction(v) for g, v in comp.terms.items()}
            for comp in cmp_eq.psi.components]


def poly_at(poly, z):
    """Exact value of a dict polynomial at the point ``z``."""
    total = Fraction(0)
    for g, c in poly.items():
        term = Fraction(c)
        for zi, e in zip(z, g):
            term *= Fraction(zi) ** e
        total += term
    return total


def is_pre_fixed(polys, X, Y):
    """Exactly ``0 <= Y`` and ``P(X, Y) <= Y``, entry by entry."""
    z = tuple(map(Fraction, X)) + tuple(map(Fraction, Y))
    return all(Fraction(y) >= 0 and poly_at(p, z) <= Fraction(y)
               for p, y in zip(polys, Y))


def _jacobian(polys, z, dim_x):
    """Exact ``dP_i/dY_j`` at ``z``."""
    out = []
    for p in polys:
        row = []
        for j in range(dim_x, len(z)):
            d = {}
            for g, c in p.items():
                if g[j]:
                    d[g[:j] + (g[j] - 1,) + g[j + 1:]] = c * g[j]
            row.append(poly_at(d, z))
        out.append(row)
    return out


def expands(polys, X, W):
    """``rho(J) > 1`` exactly for ``J = dP/dY`` at ``(X, W)``, one or two
    unknowns, in closed form: the larger root of ``(l - a)(l - d) = bc``
    exceeds 1 exactly when ``a + d > 2`` or ``bc > (1 - a)(1 - d)``.  No
    least fixed point at X lies at or above such a W with no zero entry
    (Etessami and Yannakakis, JACM 2009)."""
    J = _jacobian(polys, tuple(map(Fraction, X)) + tuple(map(Fraction, W)), len(X))
    if len(J) == 1:
        return J[0][0] > 1
    (a, b), (c, d) = J
    return a + d > 2 or b * c > (1 - a) * (1 - d)


def _exact_inverse(A):
    """Inverse of a small Fraction matrix, or None when it is singular."""
    n = len(A)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [v / work[col][col] for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [row[n:] for row in work]


def fixed_point_oracle(polys, X, steps=80, bits=256):
    """Exact monotone Newton from zero on the positive system Y = P(X, Y).

    Returns ``(lower, upper, outside)``.  P has non-negative coefficients,
    so for ``0 <= Y <= Y*`` convexity gives ``(I - J(Y))(Y* - Y) >= P(X, Y)
    - Y``; while ``(I - J(Y))^-1 >= 0`` the Newton step stays below the
    least fixed point ``Y*``, and so does its value rounded down to a
    multiple of ``2^-bits`` and clamped at 0.  So ``lower <= Y*`` whenever
    ``Y*`` exists.  A ``Y*`` with no zero entry has ``rho(J(Y*)) <= 1``
    (Esparza, Kiefer and Luttenberger, JACM 2010), and ``rho(J)`` only grows
    with Y, so at a positive ``Y <= Y*`` an ``I - J(Y)`` that is nonsingular
    with a negative entry in its inverse (``rho(J(Y)) > 1``) proves that no
    ``Y*`` exists: ``outside`` is True.  A zero entry proves nothing: Y = 4XY
    has ``Y* = 0`` at every X, where ``J = 4X``.  ``upper``
    is ``lower`` pushed by ``2^-(bits/2)`` along ``(I - J)^-1 * 1`` when
    that is exactly a pre-fixed point, which proves ``Y*`` exists and lies
    below it; else None.
    """
    X = tuple(map(Fraction, X))
    dim_x, q = len(X), len(polys)
    grid = 2 ** bits
    Y = (Fraction(0),) * q
    for _ in range(steps):
        z = X + Y
        inverse = _exact_inverse([[int(i == j) - e for j, e in enumerate(row)]
                                  for i, row in enumerate(_jacobian(polys, z, dim_x))])
        if inverse is None:
            return Y, None, False
        if any(e < 0 for row in inverse for e in row):
            return Y, None, all(y > 0 for y in Y)
        r = [poly_at(p, z) - y for p, y in zip(polys, Y)]
        step = [sum(a * b for a, b in zip(row, r)) for row in inverse]
        if max(step) * grid <= 1:
            push = Fraction(1, 2 ** (bits // 2))
            upper = tuple(y + push * sum(row) for y, row in zip(Y, inverse))
            return Y, (upper if is_pre_fixed(polys, X, upper) else None), False
        Y = tuple(max(Fraction(math.floor((y + s) * grid), grid), Fraction(0))
                  for y, s in zip(Y, step))
    return Y, None, False


def oracle_on_the_fed_unknowns(polys, direction, t):
    """``(lower, upper)`` of the oracle at ``t * direction`` on the unknowns
    the ray feeds, the others held at 0, as points of the whole system.

    An unknown that is 0 after ``q`` Kleene steps at the direction is 0 in
    every iterate, so in the least fixed point; the oracle alone stops at
    its first Jacobian with a negative inverse entry, which a loop of such
    an unknown, as in ``Y = 4XY``, gives at a large t.
    """
    p, q = len(direction), len(polys)
    Y = (Fraction(0),) * q
    for _ in range(q):
        Y = tuple(poly_at(f, direction + Y) for f in polys)
    fed = [i for i in range(q) if Y[i] > 0]
    zero = (Fraction(0),) * q
    if not fed:
        return zero, zero
    sub = [{g[:p] + tuple(g[p + j] for j in fed): c for g, c in polys[i].items()
            if not any(g[p + j] for j in range(q) if j not in fed)} for i in fed]
    lower, upper, _ = fixed_point_oracle(sub, tuple(t * d for d in direction))

    def whole(point):
        if point is None:
            return None
        entries = dict(zip(fed, point))
        return tuple(entries.get(j, Fraction(0)) for j in range(q))
    return whole(lower), whole(upper)


# ---------------------------------------------------------------------------
# time limits

def within(seconds, call):
    """``call()``, or TimeoutError once it has run ``seconds``: the alarm
    turns a hang into a failure."""
    def too_slow(signum, frame):
        raise TimeoutError(f"ran for more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
