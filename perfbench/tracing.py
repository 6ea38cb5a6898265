"""Span tracing around calls into impsolve, installed from the benchmark.

``Tracer.install()`` replaces the public functions of each layer with
wrappers, on the defining module and on every impsolve module that
imported the same object by name (``solver.series_compose``,
``hille.membership``, ...), and on the class for methods.  An untraced run
never imports this module, so no wrapper is ever in place there.

Every wrapped call is timed.  A call of a structural layer (solver,
kantorovich, hille, lattice, composition) is also kept as a span: name,
start, end, parent span and op id.  The innermost layers (Series
multiplication, evaluation and construction) run millions of times per
pass, so they are only summed into the self time and call count of their
layer; their time still counts as child time of the enclosing span.
Self time is a call's duration minus the time its wrapped children took.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

# (module, attribute, layer, keep spans).  A dotted attribute names a method.
WRAPPED = (
    ("impsolve.series", "Series.__mul__", "series.mul", False),
    ("impsolve.series", "Series.evaluate", "series.evaluate", False),
    ("impsolve.series", "Series.__post_init__", "series.construct", False),
    ("impsolve.series", "compose_series", "series.compose", True),
    ("impsolve.series", "series_compose", "series.compose_map", True),
    ("impsolve.lattice", "equation_from_dict", "lattice.parse", True),
    ("impsolve.lattice", "majorant", "lattice.majorant", True),
    ("impsolve.lattice", "check_majorant_samples", "lattice.samples", True),
    ("impsolve.solver", "solve_formal", "solver.solve", True),
    ("impsolve.solver", "formal_iterates", "solver.rounds", False),
    ("impsolve.kantorovich", "iterate_comparison", "kantorovich.iterate", True),
    ("impsolve.kantorovich", "iterate_primal", "kantorovich.primal", True),
    ("impsolve.kantorovich", "membership", "kantorovich.membership", True),
    ("impsolve.hille", "hille_point", "hille.point", True),
    ("impsolve.hille", "trace_graph", "hille.graph", True),
    ("impsolve.hille", "radius_along_ray", "hille.radius", True),
)

# formal_iterates is a generator: its wrapper only counts the rounds yielded.
LAYERS = tuple(layer for _, _, layer, _ in WRAPPED if layer != "solver.rounds")


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {"series.mul.term_pairs": 0, "solver.rounds": 0,
                       "kantorovich.iterations": 0, "kantorovich.unresolved": 0,
                       "hille.radius.probes": 0, "hille.radius.probe_iterations": 0,
                       "lattice.samples.points": 0}
        self.width_over_tol = []
        self.spans = []
        self.op = None
        # one entry per active wrapped call: [layer, span id or None, child time]
        self._stack = []
        self._radius_depth = 0
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        import impsolve  # noqa: F401  (loads every submodule)
        modules = [m for name, m in sys.modules.items()
                   if name == "impsolve" or name.startswith("impsolve.")]
        for module_name, attr, layer, keep in WRAPPED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self._wrap(getattr(owner, meth), layer, keep))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, layer, keep)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, wrapper):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, layer, keep):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        hook = getattr(self, "_after_" + layer.replace(".", "_"), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            if keep:
                span_id = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                spans.append([layer, 0.0, 0.0, parent, self.op])
            frame = [layer, span_id, 0.0]
            stack.append(frame)
            if layer == "hille.radius":
                self._radius_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if layer == "hille.radius":
                    self._radius_depth -= 1
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                calls[layer] += 1
                self_s[layer] += duration - frame[2]
                if keep:
                    spans[span_id][1] = start
                    spans[span_id][2] = end
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts["solver.rounds"] += 1
                yield item

        return wrapper

    # -- counters read from arguments and results ----------------------------

    def _after_series_mul(self, args, kwargs, result):
        a, b = args
        self.counts["series.mul.term_pairs"] += len(a.terms) * len(b.terms)

    def _after_kantorovich_iterate(self, args, kwargs, result):
        self.counts["kantorovich.iterations"] += result.steps

    def _after_kantorovich_membership(self, args, kwargs, result):
        if result.verdict == "unresolved":
            self.counts["kantorovich.unresolved"] += 1
        if self._radius_depth:
            self.counts["hille.radius.probes"] += 1
            self.counts["hille.radius.probe_iterations"] += result.iterations_used

    def _after_hille_radius(self, args, kwargs, result):
        if result.t_outside is not None:
            self.width_over_tol.append((result.t_outside - result.t_inside) / kwargs["tol"])

    def _after_lattice_samples(self, args, kwargs, result):
        self.counts["lattice.samples.points"] += (result.points_checked
                                                  + result.increments_checked)

    # -- report ---------------------------------------------------------------

    def table(self):
        """Per-layer figures of everything traced so far."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counts)
        out["hille.radius.width_over_tol"] = (
            statistics.median(self.width_over_tol) if self.width_over_tol else 0.0)
        return out
