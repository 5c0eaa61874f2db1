"""In-process call tracing of the geodesicnets layers, from outside the library.

``install()`` wraps the public functions and chart methods listed in
``TARGETS`` wherever a ``geodesicnets`` module binds them, so calls that
go through a by-name import (``from .net import length``) are traced as
well.  Each call records one span ``(name, start, end, parent, info)`` in
memory; ``Tracer.dump`` writes them out when the traced process ends.
``fd_weights`` is counted but records no spans: a cold operator build
calls it about 10^5 times.

A target that the library no longer defines is skipped, so its metrics are
simply absent from the report.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# span name -> (module, attributes).  A "*.method" attribute is patched on
# every class of that module which defines the method itself.
TARGETS = {
    "specfile.load_spec": ("specfile", "load_spec"),
    "stencils.upsample_operator": ("stencils", "upsample_operator"),
    "stencils.sbp42": ("stencils", "sbp42"),
    "stencils.periodic_diff_matrix": ("stencils", "periodic_diff_matrix"),
    "stencils.velocity": ("stencils", "velocity"),
    "net.length": ("net", "length"),
    "net.reparametrize": ("net", "reparametrize_constant_speed"),
    "variation.gradient": ("variation", "length_sample_gradient"),
    "variation.stationarity": ("variation", "stationarity_residual"),
    "geometry.metric": ("geometry", "*.metric_many"),
    "geometry.christoffel": ("geometry", "*.christoffel_many"),
    "geometry.bump": ("geometry", "*.value_many *.gradient_many"),
    "jacobi.assemble": ("jacobi", "assemble_jacobi_system"),
    "jacobi.kernel": ("jacobi", "jacobi_kernel"),
    "jacobi.reduced_basis": ("jacobi", "reduced_basis_fields"),
    "jacobi.oracle": ("jacobi", "reduced_hessian_fd"),
    "jacobi.embeddedness": ("jacobi", "approximate_embeddedness"),
    "solver.solve": ("solver", "solve_stationary"),
    "solver.break": ("solver", "break_degeneracy"),
    "solver.continue": ("solver", "continue_family"),
    "localcoords.build_net_chart": ("localcoords", "build_net_chart"),
    "localcoords.xi_prime": ("localcoords", "xi_prime"),
    "localcoords.residual": ("localcoords", "mean_curvature_H"),
}
COUNTED = {"stencils.fd_weights": ("stencils", "fd_weights")}
# The class whose subclasses a "*.method" target patches.
_METHOD_BASES = {"value_many": "ScalarField", "gradient_many": "ScalarField",
                 "metric_many": "MetricChart", "christoffel_many": "MetricChart"}
OPERATORS = ("stencils.upsample_operator", "stencils.sbp42", "stencils.periodic_diff_matrix")


def _nbytes(result) -> int:
    if isinstance(result, tuple):
        return sum(_nbytes(x) for x in result)
    return int(getattr(result, "nbytes", 0))


def _info(name, args, result):
    """Small exact facts about one call, kept with its span."""
    if name == "variation.gradient":
        net = args[1]
        return {"samples": sum(s.shape[0] for s in net.edge_samples.values())}
    if name == "jacobi.reduced_basis":
        net = args[1]
        rows = sum(s.shape[0] for s in net.edge_samples.values())
        return {"dim": len(result[0]), "bytes": len(result[0]) * rows * net.dim * 8}
    if name == "jacobi.oracle":
        return {"dim": int(result[0].shape[0])}
    if name == "solver.solve":
        return {"iterations": result.iterations,
                "accepted": sum("step_size" in row for row in result.trace)}
    if name == "solver.break":
        return {"accepted": len(result[3]) - 1}
    if name == "solver.continue":
        return {"steps": len(result)}
    if name in OPERATORS:
        return {"key": repr(args), "bytes": _nbytes(result)}
    return None


def _error_info(name, exc):
    partial = getattr(exc, "result", None)
    if name == "solver.solve" and partial is not None:
        return {"iterations": partial.iterations, "error": type(exc).__name__,
                "accepted": sum("step_size" in row for row in partial.trace)}
    return {"error": type(exc).__name__}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.originals = {}
        self.installed = set()

    def span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, clock(), parent, _error_info(name, exc))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent, _info(name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Patch every target in every loaded geodesicnets module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "geodesicnets" or n.startswith("geodesicnets.")]
        for table, make in ((TARGETS, self.span_wrapper), (COUNTED, self.count_wrapper)):
            for name, (modname, attr) in table.items():
                try:
                    home = importlib.import_module(f"geodesicnets.{modname}")
                except ImportError:
                    continue
                if attr.startswith("*."):
                    for method in attr.split():
                        self._patch_methods(home, method[2:], name, make)
                    continue
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapped = make(name, original)
                self.originals[name] = original
                self.installed.add(name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def _patch_methods(self, home, method, name, make):
        base = getattr(home, _METHOD_BASES[method], None)
        if base is None:
            return
        for cls in vars(home).values():
            if isinstance(cls, type) and issubclass(cls, base) and method in vars(cls):
                setattr(cls, method, make(name, vars(cls)[method]))
                self.installed.add(name)

    def cache_info(self):
        original = self.originals.get("stencils.upsample_operator")
        info = getattr(original, "cache_info", None)
        if info is None:
            return None
        ci = info()
        return {"hits": ci.hits, "misses": ci.misses}

    def dump(self, path, extra=None):
        doc = {"spans": self.spans, "counts": self.counts, "installed": sorted(self.installed),
               "upsample_cache": self.cache_info(), **(extra or {})}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def per_call_overhead(calls: int = 20000) -> tuple[float, float]:
    """Measured cost in seconds of one traced span and of one counted call."""

    def noop():
        return None

    clock = time.perf_counter
    tracer = Tracer()
    costs = []
    for wrapped in (tracer.span_wrapper("noop", noop), tracer.count_wrapper("noop", noop)):
        best = float("inf")
        for _ in range(3):
            tracer.spans.clear()
            start = clock()
            for _ in range(calls):
                wrapped()
            mid = clock()
            for _ in range(calls):
                noop()
            best = min(best, ((mid - start) - (clock() - mid)) / calls)
        costs.append(max(best, 0.0))
    return costs[0], costs[1]
