"""A reference computation that tells how fast the machine is right now.

The sandbox this benchmark runs on is a share of a busy host: the same
pure-Python loop takes anywhere from 13 to 23 ms from one second to the
next, in process CPU time as well as in wall time, and a slow spell can
last minutes.  Run medians and best-of-run figures both follow that drift,
so every time the benchmark reports is scaled by this reference, timed
right next to it in the same process.

``compute_s()`` times a small computation of the kind the library's hot
loops do: products of truncated series held as dicts keyed by exponent
tuples, in float and in Fraction arithmetic, and term-by-term evaluation.
It never touches impsolve, so no change to the program can make it faster
or slower.  ``scale(seconds, ref_s)`` is the time ``seconds`` would have
taken when the reference takes ``NOMINAL_S``, its typical time on the
2-core sandbox the benchmark was written on; the nominal time only fixes
the scale of the reported figures.

Traces of 60 to 100 s on that sandbox, alternating the reference with one
operation, gave these spreads (quartile distance over median) of the
medians of 5 to 10 s windows, unscaled and scaled: set-up 0.20 and 0.08,
a radius CLI call of 1.4 s 0.17 and 0.07, a short CLI call 0.11 and 0.09;
over single samples, a float solve 0.28 and 0.12, an exact solve 0.24 and
0.16, a membership verdict 0.25 and 0.22.  Process start-up follows the
reference least closely: on one trace a bare ``import impsolve`` process
spread more scaled (0.17) than unscaled (0.14).
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.002
REPEATS = 2


def _product(a, b, cap):
    out = {}
    for ka, va in a.items():
        da = sum(ka)
        for kb, vb in b.items():
            if da + sum(kb) > cap:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out[key] + va * vb if key in out else va * vb
    return out


def _horner(terms, point):
    total = 0.0
    for key, value in terms.items():
        term = value
        for x, e in zip(point, key):
            term *= x ** e
        total += term
    return total


_FLOAT = {(i, j): 1.0 / (1 + i + 2 * j) for i in range(9) for j in range(9) if i + j <= 9}
_EXACT = {(i,): Fraction(1, i + 1) for i in range(14)}


def _work():
    square = _product(_FLOAT, _FLOAT, 9)
    _product(_EXACT, _EXACT, 13)
    return sum(_horner(square, (0.3, 0.2)) for _ in range(3))


def compute_s(span_s=0.0):
    """Mean time of the reference computation, run at least ``REPEATS``
    times and for at least ``span_s`` seconds."""
    runs, start = 0, time.perf_counter()
    while runs < REPEATS or time.perf_counter() - start < span_s:
        _work()
        runs += 1
    return (time.perf_counter() - start) / runs


def scale(seconds, ref_s):
    """``seconds`` measured while the reference took ``ref_s``, at nominal speed."""
    return seconds * NOMINAL_S / ref_s
