"""Per-layer metrics derived from the spans that ``tracer.Tracer`` dumps.

A layer's time is its self time: the span's duration minus the part that
its child spans cover.  Counts scoped to an ancestor (gradient calls made
inside the FD oracle, solves made inside ``continue_family``) walk each
span's parent chain.  Every count and byte total is exact, so it repeats
from run to run on the same inputs.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracer import OPERATORS

# metric name -> (span name, field): "calls" or "s" over all spans of a name.
_CALLS_AND_TIMES = {
    "specfile.load_spec.s": ("specfile.load_spec", "s"),
    "stencils.upsample_operator.s": ("stencils.upsample_operator", "s"),
    "stencils.velocity.calls": ("stencils.velocity", "calls"),
    "stencils.velocity.s": ("stencils.velocity", "s"),
    "net.length.calls": ("net.length", "calls"),
    "net.length.s": ("net.length", "s"),
    "net.reparametrize.calls": ("net.reparametrize", "calls"),
    "net.reparametrize.s": ("net.reparametrize", "s"),
    "variation.gradient.calls": ("variation.gradient", "calls"),
    "variation.gradient.s": ("variation.gradient", "s"),
    "variation.stationarity.calls": ("variation.stationarity", "calls"),
    "variation.stationarity.s": ("variation.stationarity", "s"),
    "geometry.metric.calls": ("geometry.metric", "calls"),
    "geometry.metric.s": ("geometry.metric", "s"),
    "geometry.christoffel.calls": ("geometry.christoffel", "calls"),
    "geometry.christoffel.s": ("geometry.christoffel", "s"),
    "geometry.bump.s": ("geometry.bump", "s"),
    "jacobi.assemble.s": ("jacobi.assemble", "s"),
    "jacobi.kernel.s": ("jacobi.kernel", "s"),
    "jacobi.reduced_basis.calls": ("jacobi.reduced_basis", "calls"),
    "jacobi.reduced_basis.s": ("jacobi.reduced_basis", "s"),
    "jacobi.oracle.s": ("jacobi.oracle", "s"),
    "jacobi.embeddedness.s": ("jacobi.embeddedness", "s"),
    "solver.solve.calls": ("solver.solve", "calls"),
    "solver.solve.s": ("solver.solve", "s"),
    "localcoords.build_net_chart.s": ("localcoords.build_net_chart", "s"),
    "localcoords.xi_prime.calls": ("localcoords.xi_prime", "calls"),
    "localcoords.xi_prime.s": ("localcoords.xi_prime", "s"),
    "localcoords.residual.s": ("localcoords.residual", "s"),
}
# metric name -> (span summed, ancestor it must run under)
_SCOPED_COUNTS = {
    "jacobi.oracle.gradient_calls": ("variation.gradient", "jacobi.oracle"),
    "solver.newton.gradient_calls": ("variation.gradient", "solver.solve"),
    "solver.break.solves": ("solver.solve", "solver.break"),
    "solver.continue.solves": ("solver.solve", "solver.continue"),
}
# metric name -> span name whose info field is summed
_INFO_SUMS = {
    "variation.gradient.samples": ("variation.gradient", "samples"),
    "jacobi.reduced_basis.bytes": ("jacobi.reduced_basis", "bytes"),
    "jacobi.oracle.dim": ("jacobi.oracle", "dim"),
    "solver.newton.iterations": ("solver.solve", "iterations"),
}
# metric -> the span names it needs; a metric is reported only when the
# tracer could patch all of them.
_NEEDS = {
    "stencils.upsample_operator.misses": ("stencils.upsample_operator",),
    "stencils.upsample_operator.hit_ratio": ("stencils.upsample_operator",),
    "stencils.operator_bytes": ("stencils.upsample_operator",),
    "solver.line_search.trials": ("solver.solve", "net.reparametrize"),
    "solver.line_search.accept_ratio": ("solver.solve", "net.reparametrize"),
    "solver.break.accept_ratio": ("solver.solve", "solver.break"),
    "solver.continue.step_ratio": ("solver.solve", "solver.continue"),
    **{k: (v[0],) for k, v in _CALLS_AND_TIMES.items()},
    **{k: v for k, v in _SCOPED_COUNTS.items()},
    **{k: (v[0],) for k, v in _INFO_SUMS.items()},
}


def unit_of(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("ratio", "_frac")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def layer_metrics(docs: list[dict], import_s: list[float], results_bytes: int | None,
                  span_cost_s: float, count_cost_s: float, traced_wall_s: float) -> dict:
    """Per-layer metrics over every traced process of one run.

    Returns name -> value; a ratio with no attempts is None, and a metric
    whose functions the library no longer defines is left out.
    """
    calls, self_s, info_sum = Counter(), defaultdict(float), Counter()
    scoped = Counter()
    reparam_children = 0
    break_accepted = continue_steps = accepted_steps = 0
    hits = misses = 0
    fd_calls = op_bytes = n_spans = n_counted = 0
    installed = set()
    for doc in docs:
        spans = doc["spans"]
        installed.update(doc["installed"])
        n_spans += len(spans)
        n_counted += sum(doc["counts"].values())
        fd_calls += doc["counts"].get("stencils.fd_weights", 0)
        cache = doc.get("upsample_cache")
        if cache:
            hits += cache["hits"]
            misses += cache["misses"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        operators = {}
        first_reparam_seen = set()
        for idx, (name, start, end, parent, info) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_s[idx]
            info = info or {}
            for metric, (span_name, key) in _INFO_SUMS.items():
                if name == span_name:
                    info_sum[metric] += info.get(key, 0)
            if name in OPERATORS and "key" in info:
                operators[(name, info["key"])] = info["bytes"]
            if name == "solver.solve":
                accepted_steps += info.get("accepted", 0)
            elif name == "solver.break":
                break_accepted += info.get("accepted", 0)
            elif name == "solver.continue":
                continue_steps += info.get("steps", 0)
            elif name == "net.reparametrize" and parent >= 0 and spans[parent][0] == "solver.solve":
                # the first reparametrization of each solve anchors it; the
                # rest are line-search candidates
                if parent in first_reparam_seen:
                    reparam_children += 1
                first_reparam_seen.add(parent)
            ancestors = set()
            up = parent
            while up >= 0:
                ancestors.add(spans[up][0])
                up = spans[up][3]
            for metric, (span_name, ancestor) in _SCOPED_COUNTS.items():
                if name == span_name and ancestor in ancestors:
                    scoped[metric] += 1
        op_bytes += sum(operators.values())

    out = {}
    if import_s:
        out["import.s"] = statistics.median(import_s)
    if results_bytes is not None:
        out["specfile.results_bytes"] = results_bytes
    out.update({
        "stencils.upsample_operator.misses": misses,
        "stencils.upsample_operator.hit_ratio": _ratio(hits, hits + misses),
        "stencils.fd_weights.calls": fd_calls,
        "stencils.operator_bytes": op_bytes,
        "solver.line_search.trials": reparam_children,
        "solver.line_search.accept_ratio": _ratio(accepted_steps, reparam_children),
        "solver.break.accept_ratio": _ratio(break_accepted, scoped["solver.break.solves"]),
        "solver.continue.step_ratio": _ratio(continue_steps, scoped["solver.continue.solves"]),
    })
    for metric, (span_name, field) in _CALLS_AND_TIMES.items():
        out[metric] = calls[span_name] if field == "calls" else self_s[span_name]
    out.update({m: scoped[m] for m in _SCOPED_COUNTS})
    out.update({m: info_sum[m] for m in _INFO_SUMS})
    if "stencils.fd_weights" not in installed:
        out.pop("stencils.fd_weights.calls")
    for metric, needs in _NEEDS.items():
        if not set(needs) <= installed:
            out.pop(metric, None)
    overhead = n_spans * span_cost_s + n_counted * count_cost_s
    out["trace.overhead_frac"] = overhead / traced_wall_s if traced_wall_s > 0 else None
    return dict(sorted(out.items()))
