"""Reference answers computed without impsolve.

Every function here works on plain numbers and on the equation documents
as JSON-ready dicts, so the benchmark never uses the library to check the
library.  Polynomials are dicts from exponent tuples to coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

# -- closed forms -----------------------------------------------------------


def catalan_numbers(count):
    """The first ``count`` Catalan numbers by the convolution recurrence."""
    c = [1]
    for m in range(count - 1):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c


def quadratic_coefficients(c, degree):
    """Coefficients of x^1..x^degree of the root of y = x + c*y^2.

    The coefficient of x^n is c^(n-1) * Catalan(n-1); ``c`` may be a
    Fraction (exact) or a float.
    """
    cat = catalan_numbers(degree)
    return [c ** (n - 1) * cat[n - 1] for n in range(1, degree + 1)]


def quadratic_x_star(c):
    """Radius of y = x + c*y^2: the turning point X* = 1/(4c)."""
    return 1.0 / (4.0 * c)


def quadratic_root(c, x):
    """Principal (smaller) root of Y = x + c*Y^2, for 0 <= x <= 1/(4c)."""
    disc = 1.0 - 4.0 * c * x
    return 2.0 * x / (1.0 + math.sqrt(disc))


def signed_quadratic_root(x):
    """The series solution of y = x - y^2 in closed form."""
    return 2.0 * x / (1.0 + math.sqrt(1.0 + 4.0 * x))


def bisect(fn, lo, hi, steps=200):
    """Root of ``fn`` on [lo, hi] by bisection, given fn(lo) < 0 < fn(hi)."""
    if not fn(lo) < 0 < fn(hi):
        raise ValueError("bisection needs a sign change")
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cubic_turning_point():
    """Turning point (X*, Y*) of Y = X + XY + Y^3.

    On the graph X = (Y - Y^3)/(1 + Y); with the tangency condition
    X + 3Y^2 = 1 this reduces to 2Y^3 + 3Y^2 = 1, whose root in (0, 1) is
    Y* = 1/2, so X* = 1/4.
    """
    y = bisect(lambda t: 2 * t ** 3 + 3 * t ** 2 - 1, 0.2, 0.8)
    return (y - y ** 3) / (1 + y), y


def cubic_graph_x(y):
    """X on the graph of Y = X + XY + Y^3."""
    return (y - y ** 3) / (1 + y)


def cubic_root(x):
    """Smallest non-negative root of Y = x + xY + Y^3 (0 <= x <= X*)."""
    _, y_star = cubic_turning_point()
    if x == 0:
        return 0.0
    return bisect(lambda t: t - (x + x * t + t ** 3), 0.0, y_star)


# -- the naive dict ring ----------------------------------------------------


def poly_mul(a, b, cap):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if sum(k) <= cap:
                out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def poly_substitute(outer, args, nvars, cap):
    """``outer`` (a dict over len(args) variables) at polynomial arguments."""
    powers = [{0: {(0,) * nvars: 1}} for _ in args]
    total = {}
    for expo, coeff in outer.items():
        term = {(0,) * nvars: 1}
        for i, e in enumerate(expo):
            if not e:
                continue
            table = powers[i]
            if e not in table:
                k = max(table)
                while k < e:
                    table[k + 1] = poly_mul(table[k], args[i], cap)
                    k += 1
            term = poly_mul(term, table[e], cap)
        for k, v in term.items():
            total[k] = total.get(k, 0) + coeff * v
    return {k: v for k, v in total.items() if v != 0}


def doc_value(text, mode):
    return Fraction(text) if mode == "exact" else Fraction(float(text))


def doc_polys(doc, modulus=False):
    """The components of a document as exact dicts over (x..., y...)."""
    polys = [{} for _ in range(doc["dim_y"])]
    for t in doc["terms"]:
        value = doc_value(t["value"], doc["mode"])
        polys[t["output"]][tuple(t["alpha"]) + tuple(t["beta"])] = \
            abs(value) if modulus else value
    return polys


def solve_series(doc, degree, modulus=False):
    """Solution coefficients of a document, by naive exact substitution.

    Round k runs at cap k: after k rounds every coefficient of degree at
    most k is final, because psi has no constant and no linear-y term.
    With ``modulus`` the coefficients of psi are replaced by their moduli,
    which gives the majorant series used to scale float tolerances.
    """
    p, q = doc["dim_x"], doc["dim_y"]
    outers = doc_polys(doc, modulus)
    coords = [{tuple(1 if t == j else 0 for t in range(p)): 1} for j in range(p)]
    phi = [{} for _ in range(q)]
    for cap in range(1, degree + 1):
        args = coords + phi
        phi = [poly_substitute(outer, args, p, cap) for outer in outers]
    return phi


# -- least fixed points of positive systems ---------------------------------


def _eval(poly, z):
    s = 0.0
    for g, c in poly.items():
        t = c
        for zi, e in zip(z, g):
            if e:
                t *= zi ** e
        s += t
    return s


def _partial(poly, z, j):
    s = 0.0
    for g, c in poly.items():
        if not g[j]:
            continue
        t = c * g[j]
        for k, (zi, e) in enumerate(zip(z, g)):
            e = e - 1 if k == j else e
            if e:
                t *= zi ** e
        s += t
    return s


def _solve_linear(a, b):
    """Solve the small dense system a x = b by Gaussian elimination."""
    n = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def newton_inside(polys, X):
    """Does the positive system Y = P(X, Y) have a least fixed point at X?

    Monotone Newton from zero (Etessami and Yannakakis): below the least
    fixed point every step solves (I - J) d = P(Y) - Y with I - J an
    M-matrix, and the iterates rise to the fixed point.  Beyond the
    boundary the iterates reach a point where I - J has lost that property
    or grow without bound.
    """
    q = len(polys)
    dim_x = len(next(iter(polys[0]))) - q
    Y = [0.0] * q
    for _ in range(300):
        z = tuple(X) + tuple(Y)
        r = [_eval(p, z) - y for p, y in zip(polys, Y)]
        jac = [[(1.0 if i == j else 0.0) - _partial(p, z, dim_x + j)
                for j in range(q)] for i, p in enumerate(polys)]
        d = _solve_linear(jac, r)
        if d is None or any(v < -1e-9 * max(1.0, abs(y)) for v, y in zip(d, Y)):
            return False
        if q == 2:
            det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
            if det <= 0 or jac[0][0] <= 0 or jac[1][1] <= 0:
                return False
        elif jac[0][0] <= 0:
            return False
        Y = [y + v for y, v in zip(Y, d)]
        if max(Y) > 1e30:
            return False
        if all(abs(v) <= 1e-12 * max(1.0, abs(y)) for v, y in zip(d, Y)):
            return True
    return False


def ray_crossing(polys, direction=(1.0,)):
    """Scale t* at which the ray X = t*direction leaves the region."""
    lo, hi = 0.0, 1.0
    while newton_inside(polys, [hi * d for d in direction]):
        lo, hi = hi, hi * 2.0
        if hi > 1e9:
            return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if newton_inside(polys, [mid * d for d in direction]):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
