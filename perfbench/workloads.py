"""Workload definitions: equation documents, operation lists and oracles.

``build(name, seed)`` returns the inputs of one workload as plain data.
The documents use the equation-file format that ``equation_from_dict``
reads; every random system is drawn from ``random.Random(seed)`` and
serialized before the library sees it.  The expected answers are computed
here, by the code in ``oracles``, before any worker starts, so they cost
nothing inside a timed section or inside set-up.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracles

WORKLOADS = ("series-solve", "certify-sweep", "boundary-geometry", "cli-verbs")

QUADRATIC_FAMILY = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))
INSIDE_FRACTIONS = (0.5, 0.8, 0.9, 0.99, 0.999, 0.9996, 0.99996, 0.999996)
OUTSIDE_FRACTIONS = (1.000004, 1.00004, 1.0004, 1.004, 1.04, 1.2)
RADIUS_TOL = 1e-6
EXACT_GUARD_BUDGET = 14
# Shapes (dim_x, dim_y) and solve degrees of the seeded systems of
# series-solve.  The degrees keep every seeded solve cheaper than the seven
# fixed ones, so that op_p50_ms and op_p90_ms fall on fixed solves
# whatever the seed.
RANDOM_DEGREES = {(1, 2): 12, (2, 1): 9, (2, 2): 7}
SAMPLE_SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 2))
SEEDED_RAYS = 2
# The seeded rays are scaled so that the boundary sits at t = 0.6: the
# probe schedule of radius_along_ray starts at t = 1, so every seeded ray
# does comparable work.
RAY_CROSSING = 0.6


# -- documents ----------------------------------------------------------------


def _value_text(value, mode):
    value = Fraction(value)
    if mode == "exact":
        return str(value)
    return repr(float(value))


def make_doc(dim_x, dim_y, terms, mode, cap, profile="componentwise"):
    """An equation document from ``{(output, alpha, beta): value}``."""
    rows = []
    for (i, alpha, beta), value in sorted(terms.items()):
        rows.append({"output": i, "alpha": list(alpha), "beta": list(beta),
                     "value": _value_text(value, mode)})
    return {"dim_x": dim_x, "dim_y": dim_y, "mode": mode,
            "profile_x": profile, "profile_y": profile,
            "degree_cap": cap, "terms": rows}


def quadratic_doc(c, mode, cap, sign=1):
    """y = x + sign * c * y^2."""
    return make_doc(1, 1, {(0, (1,), (0,)): 1, (0, (0,), (2,)): sign * c},
                    mode, cap)


def cubic_doc(mode, cap):
    """y = x + x*y + y^3."""
    return make_doc(1, 1, {(0, (1,), (0,)): 1, (0, (1,), (1,)): 1,
                           (0, (0,), (3,)): 1}, mode, cap)


# Monomial supports (output, alpha, beta) of the seeded systems, one per
# shape (dim_x, dim_y): total degree at most 3, no constant term and no
# term linear in y alone, as in the test suite's random equations.  Only
# the coefficients are drawn, so a solve costs about the same on every
# seed while the values, and so the answers, change.
SUPPORTS = {
    (1, 1): ((0, (1,), (0,)), (0, (0,), (2,)), (0, (1,), (1,)), (0, (0,), (3,))),
    (1, 2): ((0, (1,), (0, 0)), (0, (0,), (1, 1)), (0, (0,), (0, 2)),
             (1, (1,), (0, 0)), (1, (0,), (2, 0)), (1, (1,), (0, 1))),
    (2, 1): ((0, (1, 0), (0,)), (0, (0, 1), (0,)), (0, (0, 0), (2,)),
             (0, (1, 0), (1,)), (0, (0, 1), (2,))),
    (2, 2): ((0, (1, 0), (0, 0)), (0, (0, 0), (1, 1)), (0, (0, 1), (0, 1)),
             (1, (0, 1), (0, 0)), (1, (0, 0), (2, 0)), (1, (1, 0), (1, 0)),
             (1, (0, 0), (0, 3))),
}


def random_terms(rng, p, q):
    """A seeded signed system of shape (p, q); coefficients in {+-1/2, +-1, +-2}."""
    return {term: Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
            for term in SUPPORTS[(p, q)]}


def ray_system(rng):
    """A seeded positive 1x2 comparison system.

    Y0 = a X + b Y0 Y1 + c Y1^2 and Y1 = d X + e Y0^2 + f X Y1, with
    coefficients drawn from [0.5, 2].  Both components carry an X term, so
    the least fixed point is positive, and the quadratic coupling gives the
    region a finite boundary along the ray.
    """
    def coeff():
        return Fraction(rng.randint(500, 2000), 1000)

    terms = {(0, (1,), (0, 0)): coeff(), (0, (0,), (1, 1)): coeff(),
             (0, (0,), (0, 2)): coeff(), (1, (1,), (0, 0)): coeff(),
             (1, (0,), (2, 0)): coeff(), (1, (1,), (0, 1)): coeff()}
    return make_doc(1, 2, terms, "float", 3)


def dumps(doc):
    """Canonical serialization; the same seed gives the same bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- the workloads --------------------------------------------------------------


def _float_polys(doc):
    return [{g: float(v) for g, v in poly.items()} for poly in oracles.doc_polys(doc)]


def _series_solve(rng):
    docs, ops = {}, []

    def solve(name, doc, degree, expect):
        docs[name] = doc
        ops.append({"id": f"solve/{name}", "kind": "solve", "doc": name,
                    "degree": degree, "expect": expect})

    cat = oracles.quadratic_coefficients(Fraction(1), 60)
    solve("catalan-exact", quadratic_doc(1, "exact", 60), 60,
          {"exact": True, "components": [[[[n + 1], str(v)] for n, v in enumerate(cat)]]})
    solve("catalan-float", quadratic_doc(1, "float", 60), 60,
          {"exact": False, "components": [[[[n + 1], float(v), float(v)]
                                           for n, v in enumerate(cat)]]})
    for c in QUADRATIC_FAMILY:
        coeffs = oracles.quadratic_coefficients(c, 40)
        solve(f"quad-c{float(c)}-float", quadratic_doc(c, "float", 40), 40,
              {"exact": False, "components": [
                  [[[n + 1], float(v), float(v)] for n, v in enumerate(coeffs)]]})
    cubic = cubic_doc("float", 30)
    solve("cubic-float", cubic, 30, _series_expect(cubic, 30, exact=False))
    for k, ((p, q), degree) in enumerate(RANDOM_DEGREES.items()):
        terms = random_terms(rng, p, q)
        for mode in ("exact", "float"):
            doc = make_doc(p, q, terms, mode, degree)
            solve(f"random{k}-{p}x{q}-{mode}", doc, degree,
                  _series_expect(doc, degree, exact=mode == "exact"))
    return docs, [], ops


def _series_expect(doc, degree, exact):
    """Oracle coefficients; float cases carry the majorant coefficient."""
    phi = oracles.solve_series(doc, degree)
    if exact:
        return {"exact": True, "components": [
            [[list(g), str(v)] for g, v in sorted(comp.items())] for comp in phi]}
    scale = oracles.solve_series(doc, degree, modulus=True)
    return {"exact": False, "components": [
        [[list(g), float(comp.get(g, 0)), float(v)] for g, v in sorted(big.items())]
        for comp, big in zip(phi, scale)]}


def _certify_sweep(rng):
    docs, ops = {}, []
    scalar = {f"quad-c{float(c)}": (quadratic_doc(c, "float", 3),
                                    oracles.quadratic_x_star(float(c)),
                                    lambda x, c=float(c): oracles.quadratic_root(c, x))
              for c in QUADRATIC_FAMILY}
    x_star, _ = oracles.cubic_turning_point()
    scalar["cubic"] = (cubic_doc("float", 3), x_star, oracles.cubic_root)
    for name, (doc, star, root) in scalar.items():
        docs[name] = doc
        for f in INSIDE_FRACTIONS + OUTSIDE_FRACTIONS:
            X = f * star
            expect = {"verdict": "inside" if f < 1 else "outside"}
            if f < 1:
                expect["Y"] = [root(X)]
            ops.append({"id": f"membership/{name}@{f}", "kind": "membership",
                        "doc": name, "X": [repr(X)], "expect": expect})
    # Y0 = 1e10 X, Y1 = 1e-9 Y0^2 has the fixed point (1e10, 1e11) at X = 1.
    docs["big-fixed-point"] = make_doc(
        1, 2, {(0, (1,), (0, 0)): Fraction(10 ** 10),
               (1, (0,), (2, 0)): Fraction(1, 10 ** 9)}, "float", 3)
    ops.append({"id": "membership/big-fixed-point@1", "kind": "membership",
                "doc": "big-fixed-point", "X": ["1.0"],
                "expect": {"verdict": "inside", "Y": [1e10, 1e11]}})
    # Exact iteration doubles the size of its rationals every step, so the
    # exact op runs on a small budget that bounds its time.
    docs["catalan-exact"] = quadratic_doc(1, "exact", 3)
    ops.append({"id": "membership/catalan-exact@1/5", "kind": "membership",
                "doc": "catalan-exact", "X": ["1/5"], "budget": EXACT_GUARD_BUDGET,
                "expect": {"verdict": "inside",
                           "Y": [oracles.quadratic_root(1.0, 0.2)]}})
    docs["signed-quad"] = quadratic_doc(1, "float", 3, sign=-1)
    docs["quad"] = quadratic_doc(1, "float", 3)
    for name, xs, root in (("signed-quad", (0.05, 0.1, 0.2, 0.24),
                            oracles.signed_quadratic_root),
                           ("quad", (0.2, 0.2499),
                            lambda x: oracles.quadratic_root(1.0, x))):
        for x in xs:
            ops.append({"id": f"primal/{name}@{x}", "kind": "primal", "doc": name,
                        "x": [repr(x)], "expect": {"y": root(x)}})
    for k, (p, q) in enumerate(SAMPLE_SHAPES):
        name = f"signed{k}-{p}x{q}"
        docs[name] = make_doc(p, q, random_terms(rng, p, q), "float", 3)
        ops.append({"id": f"samples/{name}", "kind": "samples", "doc": name,
                    "n": 100, "half": 0.1, "rng": rng.randrange(2 ** 31),
                    "expect": {"points": 100, "increments": 100}})
    majorants = sorted({op["doc"] for op in ops})
    return docs, majorants, ops


def _boundary_geometry(rng):
    docs, ops = {}, []
    x_star, y_star = oracles.cubic_turning_point()
    scalar = {f"quad-c{float(c)}": (quadratic_doc(c, "float", 3),
                                    oracles.quadratic_x_star(float(c)),
                                    1.0 / (2.0 * float(c)))
              for c in QUADRATIC_FAMILY}
    scalar["cubic"] = (cubic_doc("float", 3), x_star, y_star)
    for name, (doc, X, Y) in scalar.items():
        docs[name] = doc
        ops.append({"id": f"hille/{name}", "kind": "hille", "doc": name,
                    "expect": {"X": X, "Y": Y}})
    ops.append({"id": "graph/cubic", "kind": "graph", "doc": "cubic",
                "ymax": 1.0, "steps": 900, "expect": {"turn_Y": y_star}})
    for name, (_, X, _) in scalar.items():
        ops.append({"id": f"radius/{name}", "kind": "radius", "doc": name,
                    "direction": [1.0], "tol": RADIUS_TOL,
                    "expect": {"t_star": X, "tol": RADIUS_TOL}})
    for k in range(SEEDED_RAYS):
        name = f"ray{k}-1x2"
        doc = ray_system(rng)
        docs[name] = doc
        crossing = oracles.ray_crossing(_float_polys(doc))
        ops.append({"id": f"radius/{name}", "kind": "radius", "doc": name,
                    "direction": [crossing / RAY_CROSSING], "tol": RADIUS_TOL,
                    "expect": {"t_star": RAY_CROSSING, "tol": RADIUS_TOL}})
    majorants = sorted(docs)
    return docs, majorants, ops


def _cli_verbs(rng):
    docs = {"quad": quadratic_doc(1, "float", 24),
            "signed-quad": quadratic_doc(1, "float", 24, sign=-1),
            "catalan-exact": quadratic_doc(1, "exact", 24),
            "signed-random": make_doc(2, 2, random_terms(rng, 2, 2), "float", 3)}
    cat = oracles.catalan_numbers(12)
    root = oracles.quadratic_root(1.0, 0.2)
    verbs = [
        ("solve", ["--spec", "catalan-exact", "--degree", "12"],
         {"coeffs": [str(v) for v in cat]}),
        ("majorant", ["--spec", "signed-quad"], {"doc": docs["quad"]}),
        ("hille", ["--spec", "quad"], {"X": 0.25, "Y": 0.5}),
        ("iterate_comparison", ["--spec", "quad", "--X", "0.2"], {"Y": root}),
        ("iterate_primal", ["--spec", "signed-quad", "--x", "0.2"],
         {"y": oracles.signed_quadratic_root(0.2)}),
        ("membership", ["--spec", "quad", "--X", "0.2"],
         {"verdict": "inside", "Y": [root]}),
        ("region", ["--spec", "quad", "--ymax", "1.0", "--steps", "200"],
         {"turn_Y": 0.5}),
        ("radius", ["--spec", "quad", "--direction", "1.0", "--tol", repr(RADIUS_TOL)],
         {"t_star": 0.25, "tol": RADIUS_TOL}),
        ("check", ["--spec", "signed-random", "--samples", "200",
                   "--seed", str(rng.randrange(2 ** 31))], {"points": 200}),
    ]
    ops = []
    for verb, args, expect in verbs:
        argv = [verb.split("_")[0]] + args
        ops.append({"id": f"cli/{verb}", "kind": "cli", "verb": verb, "argv": argv,
                    "expect": expect})
    return docs, [], ops


_BUILDERS = {"series-solve": _series_solve, "certify-sweep": _certify_sweep,
             "boundary-geometry": _boundary_geometry, "cli-verbs": _cli_verbs}


def build(workload, seed):
    """Documents, comparison builds and operations of one workload."""
    docs, majorants, ops = _BUILDERS[workload](random.Random(seed))
    return {"docs": docs, "majorants": majorants, "ops": ops}
